"""Tests of the benchmark itself: test-scale smoke runs of every workload,
the self-time arithmetic, the percentile rule, wrapper restoration, and
that BENCHMARK.json names exactly the metrics the runs print.

Run with: python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from stats import percentile  # noqa: E402
from tracing import NO_PARENT, Tracer, is_restored, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# ------------------------------------------------------------- self time

def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap (union 5 s), and
    # [9, 12] sticks out of the parent (only 1 s counts)
    start = [0.0, 1.0, 3.0, 9.0, 1.5]
    end = [10.0, 4.0, 6.0, 12.0, 2.0]
    parent = [NO_PARENT, 0, 0, 0, 1]  # span 4 is a grandchild
    own = self_times(start, end, parent)
    assert own[0] == pytest.approx(10 - 5 - 1)
    assert own[1] == pytest.approx(3 - 0.5)
    assert own[2] == pytest.approx(3)
    assert own[4] == pytest.approx(0.5)


def test_self_time_without_children_is_duration():
    assert self_times([2.0], [5.0], [NO_PARENT]) == [3.0]


# ------------------------------------------------------------- percentile

def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(100)), 0.90) == 89  # 10 samples above
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.90)  # only 9 above
    assert percentile(list(range(20)), 0.50) == 9
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.50)
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(ValueError):
        percentile(list(range(999)), 0.99)


# ------------------------------------------------------------- tracer

class _Base:
    def hello(self, x):
        return x + 1


class _Child(_Base):
    pass


def test_tracer_records_nesting_and_restores():
    mod = types.ModuleType("m")
    mod.outer = lambda: mod.inner() * 2
    mod.inner = lambda: 3
    originals = [(mod, "outer", mod.outer), (mod, "inner", mod.inner)]
    tr = Tracer()
    tr.wrap(mod, "outer", "outer")
    tr.wrap(mod, "inner", "inner", lambda t, res: t.count("inner.result", res))
    tr.wrap(_Child, "hello", "hello")  # inherited: restore must delete it
    with tr.phase(7, "phase"):
        assert mod.outer() == 6
        assert _Child().hello(1) == 2
    spans = tr.spans()
    names = [s[0] for s in spans]
    assert names == ["phase", "outer", "inner", "hello"]
    assert spans[2][3] == 1 and spans[1][3] == 0 and spans[0][3] == NO_PARENT
    assert all(s[4] == 7 for s in spans)
    assert tr.counters[(7, "inner.result")] == 3
    assert tr.totals()[(7, "outer")][0] == 1
    tr.restore()
    assert is_restored(originals)
    assert "hello" not in vars(_Child)


# ------------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_names_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# ------------------------------------------------------------- smoke runs

def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--scale", "test"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(END_TO_END)
    for name, m in res["metrics"].items():
        assert m["unit"] == END_TO_END[name]
        assert math.isfinite(m["value"]) and m["value"] > 0, name


def test_smoke_traced():
    res = _result(_run("--workload", "ppi_t20", "--seed", "3", "--seconds", "1",
                       "--trace", "1", "--scale", "test"))
    assert res["correct"]
    assert set(res["metrics"]) == set(PER_LAYER)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["run_group.calls"] == m["candidates.groups"] > 0
    assert m["saving.calls"] > 0 and m["localenc.solve_calls"] > 0
    # marshal.s is run_group minus Algorithm 2, so it holds the worker's I/O
    assert m["marshal.s"] >= m["worker_init.s"] + m["worker_output.s"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "collab_t20", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
