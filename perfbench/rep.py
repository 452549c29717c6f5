"""One repetition of one phase of a workload, in a fresh interpreter.

``run.py`` starts this script once per phase of every repetition, so the
program's process-global state (``localenc._memo``, the panel caches,
Spark's reused Python workers) starts empty every time. Modes:

- ``setup``: build the inputs and stop; one set-up sample.
- ``summarize``: build the inputs, time one ``slugger()`` call and save
  the summary to ``$TMPDIR/summary.npz``. On the Spark engine, also time
  the Spark decode and cross-check it against ``decode_pd``.
- ``read``: load the saved summary into a fresh heap, then time
  ``decode_pd`` (local engine) and passes over the seeded neighbour
  queries for ``READ_S`` seconds, and check every result against the
  input. A query takes a few microseconds, and in the heap a summarize
  run leaves behind its latency moved by up to 40% from one process to
  the next on a 4-vCPU VM, so the read path is timed in a process of
  its own.

``--traced`` wraps the layers with a tracer and adds per-layer numbers.
On stdout: the line ``ready`` once the inputs are built (the parent
times set-up up to that line), then one JSON line of results.

Usage: python3 perfbench/rep.py --workload NAME --seed N
       [--mode setup|summarize|read] [--traced] [--scale test]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import layers
from tracing import Tracer, is_restored
from stats import percentile
from workloads import (N_QUERIES, READ_S, SPARK_DRIVER_MEM, SPARK_SHUFFLE_PARTITIONS,
                       SPARK_SLOTS, WORKLOADS)

TABLES = {"nodes": ["nid", "size"], "hedges": ["parent", "child"], "pedges": ["x", "y", "sign"]}


def _spark_session(tmp: str):
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_SLOTS}] --driver-memory {SPARK_DRIVER_MEM} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SPARK_SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(tmp, "warehouse"))
        .getOrCreate()
    )
    # warm-up: start the executor threads and Python workers with an
    # identity pandas function; it never runs the group worker, whose
    # memo would survive in the reused Python workers
    spark.range(4 * SPARK_SLOTS, numPartitions=SPARK_SLOTS).mapInPandas(
        lambda it: it, schema="id long"
    ).collect()
    return spark


def digest(summary) -> str:
    """sha256 of the summary tables, each sorted on all its columns."""
    h = hashlib.sha256(str(summary.n_sub).encode())
    for table, cols in TABLES.items():
        df = getattr(summary, table)
        arr = df.sort_values(cols)[cols].to_numpy(dtype=np.int64)
        h.update(",".join(cols).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _edge_set(src, dst) -> set[tuple[int, int]]:
    return {(a, b) if a < b else (b, a) for a, b in zip(np.asarray(src).tolist(),
                                                        np.asarray(dst).tolist())}


class Report(dict):
    """The JSON result of one process: attempted and failed operations,
    what failed, and the measurements."""

    def __init__(self) -> None:
        super().__init__(attempted=0, failed=0, errors=[], measured_s=0.0)

    def fail(self, what: str, count: int = 1) -> None:
        self["failed"] += count
        self["errors"].append(what)

    def emit(self, tracer: Tracer | None, spark=None) -> None:
        if tracer is not None:
            originals = tracer.originals()
            tracer.restore()
            self["restored"] = is_restored(originals)
            self["layers"] = layers.metrics(tracer)
            self["spans"] = len(tracer)
            if spark is not None:
                self["layers"].update(_spark_tasks(spark))
        self["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(self), flush=True)


def _phases(tracer: Tracer | None, spark=None):
    def phase(run_id: int, name: str):
        if spark is not None:
            spark.sparkContext.setJobGroup(name, name)
        return tracer.phase(run_id, name) if tracer is not None else nullcontext()
    return phase


def summarize(wl, args, saved: Path, tracer: Tracer | None) -> None:
    from repro.core import localenc
    from repro.core.slugger import slugger
    from repro.graphs import datasets
    from repro.graphs.generators import n_nodes
    from repro.model import decode
    from repro.model.cost import metrics

    spark = _spark_session(os.environ["TMPDIR"]) if wl.engine == "spark" else None
    if tracer is not None:
        layers.install(tracer, worker_side=spark is None,
                       spark_df_cls=type(spark.range(1)) if spark is not None else None)
    phase = _phases(tracer, spark)
    with phase(layers.SETUP, "phase.setup"):
        edges = datasets.load(wl.dataset, scale=args.scale, seed=0 if wl.fixed_input else args.seed)
    n = n_nodes(edges)
    print("ready", flush=True)
    if args.mode == "setup":
        if spark is not None:
            spark.stop()
        return

    out = Report()
    out.update(n=n, m=len(edges))
    if localenc.memo_size() != 0:
        out.fail(f"localenc memo held {localenc.memo_size()} cases before the timed run")
    out["attempted"] += 1
    try:
        with phase(layers.SUMMARIZE, "phase.summarize"):
            t0 = time.perf_counter()
            res = slugger(edges, n, T=wl.T, seed=0 if wl.fixed_input else args.seed,
                          engine=wl.engine, spark=spark)
            out["summarize_s"] = out["measured_s"] = time.perf_counter() - t0
    except Exception:
        out.fail("summarize raised:\n" + traceback.format_exc())
        out.emit(tracer, spark)
        return
    summary = res.summary
    out["digest"] = digest(summary)
    out["relative_size"] = metrics(summary, len(edges)).relative_size
    np.savez(saved, n_sub=summary.n_sub, edges=edges[["src", "dst"]].to_numpy(np.int64),
             **{t: getattr(summary, t)[cols].to_numpy(np.int64) for t, cols in TABLES.items()})

    if spark is not None:
        want = _edge_set(edges["src"], edges["dst"])
        out["attempted"] += 2
        try:
            with phase(layers.DECODE, "phase.decode"):
                t0 = time.perf_counter()
                got = decode.decode(spark, summary).toPandas()
                out["decode_s"] = time.perf_counter() - t0
            out["measured_s"] += out["decode_s"]
            got = _edge_set(got["src"], got["dst"])
            if got != want:
                out.fail("Spark decode is lossy")
        except Exception:
            out.fail("Spark decode raised:\n" + traceback.format_exc())
        try:
            got_pd = decode.decode_pd(summary)
            got_pd = _edge_set(got_pd["src"], got_pd["dst"])
            if got_pd != want:
                out.fail("decode_pd is lossy")
            elif "decode_s" in out and got != got_pd:
                out.fail("Spark decode and decode_pd disagree")
        except Exception:
            out.fail("decode_pd raised:\n" + traceback.format_exc())
    out.emit(tracer, spark)
    if spark is not None:
        spark.stop()


def read(wl, args, saved: Path, tracer: Tracer | None) -> None:
    import pandas as pd

    from repro.model import decode
    from repro.model.neighbors import NeighborIndex
    from repro.model.summary import HierSummary

    if tracer is not None:
        layers.install(tracer, worker_side=False)
    phase = _phases(tracer)
    with np.load(saved) as data:
        summary = HierSummary(
            n_sub=int(data["n_sub"]),
            **{t: pd.DataFrame(data[t], columns=cols) for t, cols in TABLES.items()},
        )
        edges = data["edges"]
    want = _edge_set(edges[:, 0], edges[:, 1])
    queries = np.random.default_rng(args.seed).integers(0, summary.n_sub, size=N_QUERIES).tolist()
    print("ready", flush=True)
    adj: dict[int, list[int]] = {}
    for a, b in want:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    expected = [sorted(adj.get(v, [])) for v in queries]

    out = Report()
    out["digest"] = digest(summary)
    # Each pass runs on the next CPU in turn: on a shared 4-vCPU VM a CPU
    # was fast or about 1.7x slower for seconds at a time, so a process
    # left on one CPU reports whichever state it landed in. Per-pass figures are then
    # averaged, which weighs the two states by their share of the window;
    # a median over all samples would jump between them.
    cpus = sorted(os.sched_getaffinity(0))
    decode_times: list[float] = []  # one decode_pd per pass (local engine)
    p50s: list[float] = []
    p90s: list[float] = []
    with phase(layers.QUERY, "phase.query"):
        idx = NeighborIndex(summary)
    t_end = time.perf_counter() + READ_S
    while time.perf_counter() < t_end:
        os.sched_setaffinity(0, {cpus[len(p50s) % len(cpus)]})
        if wl.engine == "local":  # the Spark decode is timed by summarize
            out["attempted"] += 1
            try:
                with phase(layers.DECODE, "phase.decode"):
                    t0 = time.perf_counter()
                    got = decode.decode_pd(summary)
                    decode_times.append(time.perf_counter() - t0)
                if _edge_set(got["src"], got["dst"]) != want:
                    out.fail("decode_pd is lossy")
                    break
            except Exception:
                out.fail("decode_pd raised:\n" + traceback.format_exc())
                break
        answers, lat_us = [], []
        with phase(layers.QUERY, "phase.query"):
            for v in queries:
                t0 = time.perf_counter_ns()
                try:
                    answers.append(idx.neighbors(v))
                except Exception:
                    answers.append(None)
                lat_us.append((time.perf_counter_ns() - t0) / 1e3)
        out["attempted"] += len(queries)
        wrong = sum(a != e for a, e in zip(answers, expected))
        if wrong:
            out.fail(f"{wrong} of {len(queries)} neighbour lists differ from the input", wrong)
            break
        p50s.append(percentile(lat_us, 0.50))
        p90s.append(percentile(lat_us, 0.90))
        out["measured_s"] += sum(lat_us) / 1e6
    os.sched_setaffinity(0, cpus)
    if decode_times:
        out["decode_s"] = statistics.fmean(decode_times)
    out["query_passes"] = len(p50s)
    out["query_samples"] = len(p50s) * len(queries)
    if p50s:
        out["query_us_p50"] = statistics.fmean(p50s)
        out["query_us_p90"] = statistics.fmean(p90s)
    out["measured_s"] += sum(decode_times)
    out.emit(tracer)


def _spark_tasks(spark) -> dict[str, int]:
    """Tasks of the summarize jobs, from Spark's status tracker."""
    st = spark.sparkContext.statusTracker()
    tasks = failed = 0
    for job in st.getJobIdsForGroup("phase.summarize"):
        info = st.getJobInfo(job)
        for stage in info.stageIds if info else ():
            s = st.getStageInfo(stage)
            if s is not None:
                tasks += s.numTasks
                failed += s.numFailedTasks
    return {"spark.tasks": tasks, "spark.tasks_failed": failed}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="bench", choices=["test", "bench"])
    ap.add_argument("--mode", default="summarize", choices=["setup", "summarize", "read"])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    saved = Path(os.environ["TMPDIR"]) / "summary.npz"
    tracer = Tracer() if args.traced else None
    (read if args.mode == "read" else summarize)(WORKLOADS[args.workload], args, saved, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
