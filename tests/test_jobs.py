"""Smoke tests for the experiment jobs in ``jobs/``. Each job runs at test
scale as a subprocess of this checkout, with its ``src/`` first on
``PYTHONPATH``. A local job starts no Spark session and imports no
pyspark; the ``--engine spark`` case starts its own session and must
print the local record."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SUMMARIZE = ["jobs/summarize.py", "--scale", "test", "--T", "2", "--dataset", "ppi_like"]

JOBS = [
    SUMMARIZE,
    ["jobs/table3_iterations.py", "--scale", "test", "--Ts", "1", "2",
     "--datasets", "ppi_like"],
    ["jobs/table4_pruning.py", "--scale", "test", "--T", "2",
     "--datasets", "collab_cliques"],
    ["jobs/table5_height.py", "--scale", "test", "--T", "2", "--hbs", "2", "0",
     "--datasets", "ppi_like"],
    ["jobs/fig6_composition.py", "--scale", "test", "--T", "2",
     "--datasets", "ppi_like"],
    ["jobs/fig5_compactness.py", "--scale", "test", "--T", "2",
     "--datasets", "ppi_like"],
    ["jobs/scalability.py", "--base-n", "400"],
]


def run_proc(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python *args`` in the repository root."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in path if p),
    }
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
        env=env,
    )


def run_python(args: list[str]) -> str:
    """Run ``python *args`` in the repository root; return its stdout."""
    proc = run_proc(args)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip(), "printed nothing"
    return proc.stdout


@pytest.mark.parametrize("cmd", JOBS, ids=[c[0].split("/")[-1] for c in JOBS])
def test_job_runs(cmd):
    run_python(cmd)


def test_jobs_read_every_flag_they_offer():
    # a flag the job's builder never reads is rejected, not ignored
    scal = ["jobs/scalability.py", "--base-n", "400"]
    for cmd in ([*scal, "--T", "1"], [*scal, "--scale", "test"],
                [*scal, "--datasets", "ppi_like"],
                ["jobs/table3_iterations.py", "--T", "2"],
                [*SUMMARIZE, "--datasets", "ppi_like"]):
        proc = run_proc(cmd)
        assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr, cmd


def test_summarize_spark_engine_prints_local_record():
    def record(out: str) -> list[str]:
        return [ln for ln in out.splitlines() if not ln.startswith("elapsed_s:")]

    local = record(run_python(SUMMARIZE))
    assert record(run_python([*SUMMARIZE, "--engine", "spark"])) == local


LOCAL_PATH = """
import json, runpy, sys

import repro.oracle
from repro.baselines.sags import sags
from repro.baselines.sweg import sweg
from repro.core.slugger import slugger
from repro.eval.harness import load_dataset
from repro.eval.tables import table4_pruning
from repro.model.decode import assert_lossless_pd
from repro.model.neighbors import NeighborIndex

edges, n = load_dataset("ppi_like", "test", 0)
for res in (slugger(edges, n, T=2), sweg(edges, n, T=2), sags(edges, n)):
    assert_lossless_pd(res.summary, edges)
    idx = NeighborIndex(res.summary)
    assert sum(len(idx.neighbors(v)) for v in range(n)) == 2 * len(edges)
table4_pruning(scale="test", names=["ppi_like"], T=2)
sys.path.insert(0, "jobs")
sys.argv = ["jobs/summarize.py", "--scale", "test", "--T", "2", "--dataset", "ppi_like"]
runpy.run_path("jobs/summarize.py", run_name="__main__")
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("pyspark", "py4j")))))
"""


def test_local_path_loads_no_pyspark():
    out = run_python(["-c", LOCAL_PATH]).splitlines()
    assert "method: slugger" in out
    assert json.loads(out[-1]) == []
