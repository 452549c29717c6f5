"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (inter-quartile distance as a share of the median)
against its bound in BENCHMARK.json.

Usage: python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... [--out FILE]

With ``--against FILE`` (an earlier ``--out``), also reports how far each
median moved from that set of runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import spread  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        if not res or not res["correct"]:
            print(f"seed {seed}: run failed\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        runs.append({k: v["value"] for k, v in res["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs))
    before = json.loads(args.against.read_text()) if args.against else None
    for m in bench["end_to_end"]:
        vals = [r[m["name"]] for r in runs]
        med = statistics.median(vals)
        line = (f"{m['name']:>14}: median {med:.5g} {m['unit']}, spread {spread(vals):.3f} "
                f"(bound {m['bound']}, a third {m['bound'] / 3:.3f})")
        if before:
            old = statistics.median(r[m["name"]] for r in before)
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            line += f", worse than before by {worse:+.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
