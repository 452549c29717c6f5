"""Sect. VIII-B benchmark: per-node neighbor retrieval latency on a
summary (partial decompression, Algorithm 4)."""
import time

import pandas as pd
import pytest

from repro.core.slugger import slugger
from repro.eval.harness import load_dataset
from repro.model.neighbors import NeighborIndex

from benchmarks._util import persist


@pytest.mark.benchmark(group="neighbors")
def test_neighbor_retrieval_latency(benchmark):
    edges, n = load_dataset("ppi_like", "bench", 0)
    res = slugger(edges, n, T=10, seed=0, engine="local")
    idx = NeighborIndex(res.summary)

    def query_all():
        for v in range(0, n, 7):
            idx.neighbors(v)

    benchmark.pedantic(query_all, rounds=3, iterations=1)
    t0 = time.perf_counter()
    total = sum(len(idx.neighbors(v)) for v in range(n))
    per_query_us = (time.perf_counter() - t0) / n * 1e6
    persist(
        pd.DataFrame(
            [{"dataset": "ppi_like", "n": n, "m": len(edges),
              "us_per_query": per_query_us, "total_neighbors": total}]
        ),
        "neighbors",
    )
    assert total == 2 * len(edges)
