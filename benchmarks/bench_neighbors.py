"""Sect. VIII-B benchmark: per-node neighbor retrieval latency on a
summary (partial decompression, Algorithm 4). Every node's neighbor list
must equal its input adjacency before the latency is timed. The pass over
all nodes then repeats for ``PASS_S`` seconds, and the CSV records the
median over those passes of a pass's mean per-query latency."""
import statistics
import time

import pandas as pd
import pytest

from repro.core.slugger import slugger
from repro.eval.harness import load_dataset
from repro.graphs.ops import adjacency_dict
from repro.model.neighbors import NeighborIndex

from benchmarks._util import persist, run_once

PASS_S = 5.0


@pytest.mark.benchmark(group="neighbors")
def test_neighbor_retrieval_latency(benchmark):
    edges, n = load_dataset("ppi_like", "bench", 0)
    res = slugger(edges, n, T=10, seed=0, engine="local")
    idx = NeighborIndex(res.summary)
    got = [idx.neighbors(v) for v in range(n)]
    adj = adjacency_dict(edges)
    for v, nbrs in enumerate(got):
        assert nbrs == sorted(adj.get(v, ())), v
    total = sum(map(len, got))
    assert total == 2 * len(edges)

    def passes() -> list[float]:
        out = []
        t_end = time.perf_counter() + PASS_S
        while time.perf_counter() < t_end:
            t0 = time.perf_counter()
            for v in range(n):
                idx.neighbors(v)
            out.append((time.perf_counter() - t0) / n * 1e6)
        return out

    per_pass_us = run_once(benchmark, passes)
    persist(
        pd.DataFrame(
            [{"dataset": "ppi_like", "n": n, "m": len(edges), "passes": len(per_pass_us),
              "us_per_query": statistics.median(per_pass_us), "total_neighbors": total}]
        ),
        "neighbors",
    )
