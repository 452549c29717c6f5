"""Flat (Navlakha) model + optimal flat encoder tests."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.flat_encode import encode_flat
from repro.graphs import generators as gen
from repro.model.flat import FlatSummary, decode_flat_pd
from repro.oracle import assert_equivalent


def _lossless(fs: FlatSummary, edges: pd.DataFrame):
    got = decode_flat_pd(fs).sort_values(["src", "dst"]).reset_index(drop=True)
    want = edges.sort_values(["src", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


class TestEncodeFlat:
    def test_trivial_partition_is_identity(self, spark):
        e = gen.er(40, 4.0, seed=0)
        fs = encode_flat(spark, e, np.arange(40, dtype=np.int64))
        assert len(fs.p) == 0 and len(fs.cn) == 0 and len(fs.cp) == len(e)
        _lossless(fs, e)

    def test_clique_collapses_to_self_loop(self, spark):
        e = gen.clique(8)
        fs = encode_flat(spark, e, np.zeros(8, dtype=np.int64))
        assert len(fs.p) == 1 and fs.p.iloc[0].tolist() == [0, 0]
        assert len(fs.cp) == 0 and len(fs.cn) == 0
        _lossless(fs, e)

    def test_near_clique_uses_negative_corrections(self, spark):
        e = gen.clique(8).iloc[2:].reset_index(drop=True)  # drop 2 edges
        fs = encode_flat(spark, e, np.zeros(8, dtype=np.int64))
        assert len(fs.p) == 1 and len(fs.cn) == 2 and len(fs.cp) == 0
        _lossless(fs, e)

    def test_sparse_pair_uses_positive_corrections(self, spark):
        # two groups joined by a single edge: corrections beat a superedge
        e = pd.DataFrame({"src": [0], "dst": [5]})
        group = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        fs = encode_flat(spark, e, group)
        assert len(fs.p) == 0 and len(fs.cp) == 1
        _lossless(fs, e)

    def test_bipartite_superedge(self, spark):
        # complete bipartite between two triples -> one superedge
        e = pd.DataFrame(
            {"src": [0, 0, 0, 1, 1, 1, 2, 2, 2], "dst": [3, 4, 5, 3, 4, 5, 3, 4, 5]}
        )
        group = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        fs = encode_flat(spark, e, group)
        assert len(fs.p) == 1 and len(fs.cp) == 0 and len(fs.cn) == 0
        _lossless(fs, e)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_partitions_lossless(self, spark, seed):
        e = gen.nested_partition(40, levels=2, branching=2, p_top=0.08, ratio=5, seed=seed)
        g = np.random.default_rng(seed).integers(0, 8, 40).astype(np.int64)
        _lossless(encode_flat(spark, e, g), e)

    def test_pair_counts_match_duckdb(self, spark):
        e = gen.er(30, 4.0, seed=5)
        g = (np.arange(30) % 5).astype(np.int64)
        gm = pd.DataFrame({"sub": np.arange(30), "g": g})
        from repro.baselines.flat_encode import _pair_counts

        _, _, _, counts, _ = _pair_counts(spark, e, g)
        assert_equivalent(
            counts,
            "SELECT least(a.g, b.g) AS gx, greatest(a.g, b.g) AS gy, "
            "count(*) AS e_ab FROM e JOIN gm a ON e.src = a.sub "
            "JOIN gm b ON e.dst = b.sub GROUP BY 1, 2",
            e=e,
            gm=gm,
        )


class TestFlatMetrics:
    def test_h_star_counts_nonsingleton_members(self, spark):
        e = gen.clique(6)
        group = np.array([0, 0, 0, 1, 2, 3], dtype=np.int64)
        fs = encode_flat(spark, e, group)
        assert fs.h_star() == 3

    def test_eq11_identity_is_m_over_m(self, spark):
        e = gen.er(30, 4.0, seed=2)
        fs = encode_flat(spark, e, np.arange(30, dtype=np.int64))
        assert abs(fs.cost_eq11(len(e)) - 1.0) < 1e-12

    def test_unified_metrics_bundle(self, spark):
        e = gen.clique(8)
        fs = encode_flat(spark, e, np.zeros(8, dtype=np.int64))
        m = fs.metrics(len(e))
        assert m.n_h == 8 and m.max_height == 1 and m.avg_leaf_depth == 1.0
        assert abs(m.relative_size - 9 / 28) < 1e-12
