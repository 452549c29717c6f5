"""Benchmark workloads: which graph, how many SLUGGER rounds, which engine.

Why each workload exists (the layer it isolates) is recorded in
BENCHMARK.json; the layer -> end-to-end map is ``layers.LAYER_MOVES``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # repro.graphs.datasets name
    T: int  # SLUGGER rounds
    engine: str  # "local" or "spark"
    # graph and SLUGGER seed fixed at 0, ``--seed`` draws only the query
    # set: on ppi_like, Algorithm 2's cost moves by about 2x from one graph
    # or SLUGGER seed to the next (on a 4-vCPU Xeon VM: 10.2-19.9 s over
    # graph seeds 1-6, 10.8 and 16.0 s for SLUGGER seeds 1 and 2 on one
    # graph), which no run length the benchmark can afford averages out
    fixed_input: bool = False
    # set-ups measured per run (timed repetitions included); setup_s is
    # their median. A Spark set-up costs 12 s of the run budget.
    setup_samples: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload("collab_t20", "collab_cliques", 20, "local"),
        Workload("ppi_t20", "ppi_like", 20, "local", fixed_input=True),
        Workload("spark_collab_t5", "collab_cliques", 5, "spark", setup_samples=1),
    )
}

# Spark runs in local mode with no more task slots than cores.
SPARK_SLOTS = max(1, min(4, len(os.sched_getaffinity(0))))
SPARK_SHUFFLE_PARTITIONS = 4
SPARK_DRIVER_MEM = "2g"

# The read path takes micro- to milliseconds per call, while the CPUs of
# a shared 4-vCPU VM swung between two speeds about 1.7x apart every few
# seconds, so each read process repeats it for READ_S seconds, moving
# across CPUs, and averages the per-pass figures.
N_QUERIES = 2000  # distinct seeded queries per pass
READ_S = 3.0
