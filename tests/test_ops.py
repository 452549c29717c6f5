"""Graph-utility tests (repro.graphs.ops)."""
import numpy as np
import pandas as pd

from repro.graphs import generators as gen
from repro.graphs import ops


class TestCanonicalizePd:
    def test_orders_and_dedups(self):
        df = pd.DataFrame({"src": [3, 1, 2, 2], "dst": [1, 3, 2, 4]})
        out = ops.canonicalize_pd(df)
        assert out.to_dict("records") == [
            {"src": 1, "dst": 3},
            {"src": 2, "dst": 4},
        ]

    def test_drops_self_loops(self):
        df = pd.DataFrame({"src": [1, 5], "dst": [1, 6]})
        assert len(ops.canonicalize_pd(df)) == 1


class TestInducedSubgraph:
    def test_relabels_contiguously(self):
        e = gen.clique(6)
        sub = ops.induced_subgraph(e, np.array([1, 3, 5]))
        assert len(sub) == 3  # triangle
        assert set(sub["src"]) <= {0, 1} and set(sub["dst"]) <= {1, 2}

    def test_sampling_monotone(self):
        e = gen.er(200, 6.0, seed=0)
        small = ops.sample_nodes_subgraph(e, 0.3, seed=1)
        big = ops.sample_nodes_subgraph(e, 0.8, seed=1)
        assert len(small) < len(big) <= len(e)

    def test_sampling_deterministic(self):
        e = gen.er(100, 5.0, seed=0)
        pd.testing.assert_frame_equal(
            ops.sample_nodes_subgraph(e, 0.5, seed=2),
            ops.sample_nodes_subgraph(e, 0.5, seed=2),
        )


class TestAdjacencyDict:
    def test_symmetric(self):
        e = gen.path(5)
        adj = ops.adjacency_dict(e)
        assert adj[0] == {1} and adj[2] == {1, 3}

    def test_degree_sum(self):
        e = gen.er(60, 4.0, seed=3)
        adj = ops.adjacency_dict(e)
        assert sum(len(v) for v in adj.values()) == 2 * len(e)

