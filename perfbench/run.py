"""SLUGGER benchmark: run one workload with one seed, check the output and
print every metric with its unit.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A repetition is two fresh interpreters (``rep.py``): one summarizes, so
the program's process-global caches start empty, and one decodes and
queries the saved summary. ``--trace 0`` repeats repetitions until
``--seconds`` of timed work is measured, adds set-up-only starts until
the workload's set-up sample count is reached, and reports medians: the
end-to-end metrics. ``--trace 1`` runs one untraced and one
traced repetition and reports the per-layer metrics, the tracing
overhead, and whether both gave the same summary. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_BUDGET_S = 130  # start no repetition that would end a run past this
RUN_DEADLINE_S = 170  # a process still running this long after the start is killed

END_TO_END = {
    "setup_s": "s",
    "summarize_s": "s",
    "decode_s": "s",
    "query_us_p50": "us",
    "query_us_p90": "us",
    "relative_size": "ratio",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class RepFailed(RuntimeError):
    """A repetition died without reporting (crash, kill or bad output)."""


class Runner:
    """Starts the processes of one workload's repetitions."""

    def __init__(self, workload: str, seed: int, scale: str, tmp: Path):
        self.argv = ["--workload", workload, "--seed", str(seed), "--scale", scale]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(tmp)
        self.env["SPARK_LOCAL_DIRS"] = str(tmp)
        self.env["PYSPARK_PYTHON"] = sys.executable
        self.walls: list[float] = []  # wall seconds of each repetition
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def _start(self, mode: str, traced: bool) -> tuple[float, dict | None]:
        """(set-up seconds, JSON result) of one ``rep.py`` process."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), *self.argv, "--mode", mode,
             *(["--traced"] if traced else [])],
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
        )
        timer = threading.Timer(max(0.0, self.deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            setup_s = None
            for line in proc.stdout:
                if line.strip() == "ready":
                    setup_s = time.perf_counter() - t0
                    break
            lines = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or setup_s is None:
            raise RepFailed(f"{mode} process exited with code {code}")
        if mode == "setup":
            return setup_s, None
        try:
            return setup_s, json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError) as e:
            raise RepFailed(f"{mode} process printed no result") from e

    def setup(self) -> float:
        t0 = time.perf_counter()
        setup_s = self._start("setup", False)[0]
        self.walls.append(time.perf_counter() - t0)
        return setup_s

    def repetition(self, traced: bool = False) -> tuple[float, dict]:
        """(set-up seconds, results) of one summarize process and, if it
        succeeded, one read process on the summary it saved."""
        t0 = time.perf_counter()
        setup_s, r = self._start("summarize", traced)
        if r["failed"] == 0:
            _, rd = self._start("read", traced)
            r["attempted"] += rd["attempted"] + 1
            r["failed"] += rd["failed"]
            r["errors"] += rd["errors"]
            r["measured_s"] += rd["measured_s"]
            if rd["digest"] != r["digest"]:
                r["failed"] += 1
                r["errors"].append("the summary changed between summarize and read")
            for k in ("query_us_p50", "query_us_p90", "query_samples", "query_passes"):
                r[k] = rd[k]
            r.setdefault("decode_s", rd.get("decode_s"))
            if traced:
                r["restored"] = r["restored"] and rd["restored"]
                r["spans"] += rd["spans"]
                for k, v in rd["layers"].items():
                    r["layers"][k] = r["layers"].get(k, 0) + v
        self.walls.append(time.perf_counter() - t0)
        return setup_s, r


def _ok(r: dict) -> bool:
    return r["failed"] == 0 and "query_us_p50" in r


def end_to_end(runner: Runner, seconds: float, setup_samples: int) -> tuple[bool, list[dict], dict]:
    start = time.perf_counter()
    setups, reps = [], []
    while True:
        s, r = runner.repetition()
        setups.append(s)
        reps.append(r)
        if not _ok(r):
            break
        measured = sum(x["measured_s"] for x in reps)
        if measured >= seconds or time.perf_counter() - start + runner.walls[-1] > RUN_BUDGET_S:
            break
    while len(setups) < setup_samples and _ok(reps[-1]):
        if time.perf_counter() - start + runner.walls[-1] > RUN_BUDGET_S:
            break
        setups.append(runner.setup())

    correct = all(_ok(r) for r in reps)
    correct = correct and len({r["digest"] for r in reps}) == 1
    correct = correct and len({r["relative_size"] for r in reps}) == 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"repetitions: {len(reps)} timed, {len(setups)} set-ups; query samples: "
          f"{sum(r.get('query_samples', 0) for r in reps)} in "
          f"{sum(r.get('query_passes', 0) for r in reps)} passes")
    if not correct:
        return False, reps, {}
    return True, reps, {
        "setup_s": statistics.median(setups),
        "summarize_s": statistics.median(r["summarize_s"] for r in reps),
        "decode_s": statistics.median(r["decode_s"] for r in reps),
        "query_us_p50": statistics.median(r["query_us_p50"] for r in reps),
        "query_us_p90": statistics.median(r["query_us_p90"] for r in reps),
        "relative_size": reps[0]["relative_size"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(runner: Runner) -> tuple[bool, list[dict], dict]:
    _, plain = runner.repetition()
    _, traced = runner.repetition(traced=True)
    reps = [plain, traced]
    correct = all(_ok(r) for r in reps)
    correct = correct and traced["digest"] == plain["digest"] and traced["restored"]
    print(f"traced summary digest {'matches' if correct else 'DIFFERS from'} the untraced one; "
          f"wrappers restored: {traced.get('restored')}; spans: {traced.get('spans')}")
    if not correct:
        return False, reps, {}
    values = dict(traced["layers"])
    values.setdefault("spark.tasks", 0)
    values.setdefault("spark.tasks_failed", 0)
    values["trace.overhead_s"] = traced["summarize_s"] - plain["summarize_s"]
    total = traced["summarize_s"]
    marshal = values["tall_rows.s"] + values["marshal.s"] + values["driver.other_s"]
    print(f"summarize_s untraced {plain['summarize_s']:.3f}, traced {total:.3f}; "
          f"marshalling (tall_rows.s + marshal.s + driver.other_s) {marshal / total:.1%}, "
          f"alg2.s {values['alg2.s'] / total:.1%}, spark.job_s {values['spark.job_s'] / total:.1%}")
    return True, reps, values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", default="bench", choices=["test", "bench"],
                    help="input size; test scale is for the benchmark's own tests")
    args = ap.parse_args()
    # on SIGTERM, unwind so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, args.scale, tmp)
        if args.trace:
            correct, reps, values = per_layer(runner)
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        else:
            correct, reps, values = end_to_end(runner, args.seconds, wl.setup_samples)
            units = END_TO_END
    except RepFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for i, r in enumerate(reps):
        print(f"rep {i}: summarize_s={r.get('summarize_s')} decode_s={r.get('decode_s')} "
              f"relative_size={r.get('relative_size')} digest={r.get('digest')} "
              f"n={r.get('n')} m={r.get('m')}")
        for err in r["errors"]:
            print(f"rep {i} failure: {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()} if correct else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
