"""Partial decompression (Alg. 4) + graph algorithms on summaries
(Sect. VIII-B/C): results must match the raw graph exactly."""
import numpy as np
import pytest

from repro.core.slugger import slugger
from repro.graphs import generators as gen
from repro.graphs.ops import adjacency_dict
from repro.model.algorithms import (
    bfs,
    dijkstra_unit,
    pagerank_on_summary,
    pagerank_spark,
    triangle_count,
)
from repro.model.neighbors import NeighborIndex


@pytest.fixture(scope="module")
def summarized():
    edges = gen.nested_partition(60, levels=2, branching=3, p_top=0.06, ratio=8, seed=1)
    res = slugger(edges, 60, T=5, seed=0, engine="local")
    return edges, res.summary, NeighborIndex(res.summary)


class TestNeighborRetrieval:
    def test_matches_raw_adjacency(self, summarized):
        edges, _, idx = summarized
        adj = adjacency_dict(edges)
        for v in range(60):
            assert idx.neighbors(v) == sorted(adj.get(v, set())), v

    def test_degree(self, summarized):
        edges, _, idx = summarized
        adj = adjacency_dict(edges)
        assert idx.degree(5) == len(adj.get(5, set()))

    def test_on_clique_summary(self):
        edges = gen.clique(9)
        res = slugger(edges, 9, T=3, seed=0, engine="local")
        idx = NeighborIndex(res.summary)
        for v in range(9):
            assert idx.neighbors(v) == [u for u in range(9) if u != v]

    def test_isolated_node_empty(self):
        import pandas as pd

        edges = pd.DataFrame({"src": [0], "dst": [1]})
        res = slugger(edges, 4, T=2, seed=0, engine="local")
        idx = NeighborIndex(res.summary)
        assert idx.neighbors(3) == []


    @pytest.mark.parametrize("which", ["negative", "n_sub", "supernode"])
    def test_rejects_non_subnode_id(self, which):
        edges = gen.caveman_cliques(48, clique_size=8)
        idx = NeighborIndex(slugger(edges, 48, T=5, seed=0, engine="local").summary)
        supernodes = set(idx.parent.values())
        assert supernodes and min(supernodes) >= 48
        v = {"negative": -1, "n_sub": 48, "supernode": max(supernodes)}[which]
        with pytest.raises(ValueError, match="not a subnode id"):
            idx.neighbors(v)


class TestAlgorithmsOnSummary:
    def test_bfs_matches_raw(self, summarized):
        edges, _, idx = summarized
        adj = adjacency_dict(edges)
        # reference BFS on raw adjacency
        from collections import deque

        want = {0: 0}
        dq = deque([0])
        while dq:
            v = dq.popleft()
            for u in sorted(adj.get(v, set())):
                if u not in want:
                    want[u] = want[v] + 1
                    dq.append(u)
        assert bfs(idx, 0) == want

    def test_dijkstra_equals_bfs(self, summarized):
        _, _, idx = summarized
        assert dijkstra_unit(idx, 0) == bfs(idx, 0)

    def test_triangles_match_raw(self, summarized):
        edges, _, idx = summarized
        adj = adjacency_dict(edges)
        want = 0
        for v in adj:
            for u in adj[v]:
                if u > v:
                    want += sum(1 for w in adj[v] & adj[u] if w > u)
        assert triangle_count(idx) == want

    def test_pagerank_summary_vs_spark_raw(self, summarized, spark):
        edges, _, idx = summarized
        on_summary = pagerank_on_summary(idx, iters=10)
        raw = spark.createDataFrame(edges[["src", "dst"]], schema="src long, dst long")
        on_raw = pagerank_spark(spark, raw, 60, iters=10)
        np.testing.assert_allclose(on_summary, on_raw, rtol=1e-8, atol=1e-12)

    def test_pagerank_sums_to_one(self, summarized):
        _, _, idx = summarized
        r = pagerank_on_summary(idx, iters=5)
        assert abs(r.sum() - 1.0) < 1e-9
