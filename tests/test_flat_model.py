"""Flat (Navlakha) model + optimal flat encoder tests. The encoder writes
a height-1 ``HierSummary``, read here through the flat model's tables."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.groupmerge import ID_BASE
from repro.core.slugger import slugger
from repro.graphs import generators as gen
from repro.graphs.ops import canonicalize_pd
from repro.model.cost import metrics
from repro.model.decode import assert_lossless_pd
from repro.model.flat import PairTable, encode_flat, pair_cost
from repro.model.summary import Forest
from repro.oracle import assert_equivalent


def _lossless(summary, edges: pd.DataFrame):
    summary.validate()
    assert_lossless_pd(summary, edges)


def flat_tables(summary) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """(P, C+, C−) of a height-1 summary: the superedges are the p-edges
    with an internal endpoint, C+ the p-edges between subnodes and C− the
    n-edges."""
    pe = summary.pedges
    pos = pe["sign"] == 1
    internal = (pe["x"] >= summary.n_sub) | (pe["y"] >= summary.n_sub)
    return pe[pos & internal], pe[pos & ~internal], pe[~pos]


class TestEncodeFlat:
    def test_trivial_partition_is_identity(self):
        e = gen.er(40, 4.0, seed=0)
        fs = encode_flat(e, np.arange(40, dtype=np.int64))
        p, cp, cn = flat_tables(fs)
        assert len(p) == 0 and len(cn) == 0 and len(cp) == len(e)
        assert len(fs.hedges) == 0 and len(fs.nodes) == 40
        _lossless(fs, e)

    def test_clique_collapses_to_self_loop(self):
        e = gen.clique(8)
        fs = encode_flat(e, np.zeros(8, dtype=np.int64))
        p, cp, cn = flat_tables(fs)
        # the one group of 8 is supernode 8 (n_sub + rank 0)
        assert len(p) == 1 and p.iloc[0].tolist() == [8, 8, 1]
        assert len(cp) == 0 and len(cn) == 0
        _lossless(fs, e)

    def test_near_clique_uses_negative_corrections(self):
        e = gen.clique(8).iloc[2:].reset_index(drop=True)  # drop 2 edges
        fs = encode_flat(e, np.zeros(8, dtype=np.int64))
        p, cp, cn = flat_tables(fs)
        assert len(p) == 1 and len(cn) == 2 and len(cp) == 0
        _lossless(fs, e)

    def test_sparse_pair_uses_positive_corrections(self):
        # two groups joined by a single edge: corrections beat a superedge
        e = pd.DataFrame({"src": [0], "dst": [5]})
        group = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        fs = encode_flat(e, group)
        p, cp, _ = flat_tables(fs)
        assert len(p) == 0 and len(cp) == 1
        _lossless(fs, e)

    def test_bipartite_superedge(self):
        # complete bipartite between two triples -> one superedge
        e = pd.DataFrame(
            {"src": [0, 0, 0, 1, 1, 1, 2, 2, 2], "dst": [3, 4, 5, 3, 4, 5, 3, 4, 5]}
        )
        group = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        fs = encode_flat(e, group)
        p, cp, cn = flat_tables(fs)
        assert p[["x", "y"]].values.tolist() == [[6, 7]]
        assert len(cp) == 0 and len(cn) == 0
        _lossless(fs, e)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_partitions_lossless(self, seed):
        e = gen.nested_partition(40, levels=2, branching=2, p_top=0.08, ratio=5, seed=seed)
        g = np.random.default_rng(seed).integers(0, 8, 40).astype(np.int64)
        _lossless(encode_flat(e, g), e)

    def test_pair_counts_match_duckdb(self):
        # DuckDB counts E_AB per group pair; P must be exactly the pairs
        # whose pair_cost is below E_AB, i.e. where the superedge wins,
        # written between the groups' supernodes 30 + rank, and the
        # encoding's size must be the sum of pair_cost over all pairs.
        # Planted blocks of 6 with sparse ids, dense inside and between the
        # first two, edges written in both orientations.
        rng = np.random.default_rng(5)
        u, v = np.triu_indices(30, 1)
        bu, bv = u // 6, v // 6
        keep = rng.random(len(u)) < np.where(
            bu == bv, 0.9, np.where((bu == 0) & (bv == 1), 0.7, 0.1))
        flip = rng.random(len(u)) < 0.5
        e = pd.DataFrame({"src": np.where(flip, v, u)[keep], "dst": np.where(flip, u, v)[keep]})
        g = (np.arange(30) // 6 * 7).astype(np.int64)
        gm = pd.DataFrame({"sub": np.arange(30), "g": g})
        con = duckdb.connect()
        try:
            con.register("e", e)
            con.register("gm", gm)
            counts = con.execute(
                "SELECT least(a.g, b.g) AS gx, greatest(a.g, b.g) AS gy, "
                "count(*) AS e_ab FROM e JOIN gm a ON e.src = a.sub "
                "JOIN gm b ON e.dst = b.sub GROUP BY 1, 2").fetchdf()
        finally:
            con.close()
        size = np.bincount(g)
        counts["cost"] = [pair_cost(n, size[x], size[y], x == y)
                          for x, y, n in zip(counts["gx"], counts["gy"], counts["e_ab"])]
        fs = encode_flat(e, g)
        p, cp, cn = flat_tables(fs)
        # every group has 6 members, so each is a supernode
        assert_equivalent(
            p[["x", "y"]],
            "WITH sup AS (SELECT g, 29 + row_number() OVER (ORDER BY g) AS s "
            "FROM (SELECT DISTINCT g FROM gm)) "
            "SELECT a.s AS x, b.s AS y FROM counts "
            "JOIN sup a ON gx = a.g JOIN sup b ON gy = b.g WHERE cost < e_ab",
            counts=counts, gm=gm)
        assert len(p) == 6 and len(cp) and len(cn)
        assert len(fs.pedges) == counts["cost"].sum()
        _lossless(fs, canonicalize_pd(e))


class TestPairTable:
    def test_slugger_root_ids_match_duckdb(self):
        # group ids as Forest.leaf_root returns them after SLUGGER's merges
        # (>= 2**40): DuckDB computes each root pair's E_AB and flat cost
        # on the raw ids, the table on dense ranks
        e = gen.nested_partition(60, levels=2, branching=3, p_top=0.05, ratio=8, seed=0)
        s = slugger(e, 60, T=4, seed=0, engine="local", do_prune=False).summary
        g = Forest.from_summary(s).leaf_root()
        assert (g >= ID_BASE).sum() > 10
        tab = PairTable(e, g)
        got = pd.DataFrame({"gx": tab.ids[tab.px], "gy": tab.ids[tab.py],
                            "e_ab": tab.e, "cost": tab.cost})
        assert (got["gx"] >= ID_BASE).any() and (got["gx"] == got["gy"]).any()
        assert_equivalent(
            got,
            "WITH sz AS (SELECT g, count(*) AS n FROM gm GROUP BY g), "
            "c AS (SELECT least(a.g, b.g) AS gx, greatest(a.g, b.g) AS gy, "
            "count(*) AS e_ab FROM e JOIN gm a ON e.src = a.sub "
            "JOIN gm b ON e.dst = b.sub GROUP BY 1, 2) "
            "SELECT gx, gy, e_ab, least(e_ab, CASE WHEN gx = gy "
            "THEN x.n * (x.n - 1) // 2 ELSE x.n * y.n END - e_ab + 1) AS cost "
            "FROM c JOIN sz x ON gx = x.g JOIN sz y ON gy = y.g",
            e=e, gm=pd.DataFrame({"sub": np.arange(60), "g": g}))


class TestFlatMetrics:
    def test_h_star_counts_nonsingleton_members(self):
        e = gen.clique(6)
        group = np.array([0, 0, 0, 1, 2, 3], dtype=np.int64)
        fs = encode_flat(e, group)
        # group 0 is supernode 6 over its members; singletons stay roots
        assert fs.hedges.values.tolist() == [[6, 0], [6, 1], [6, 2]]
        assert metrics(fs, len(e)).n_h == 3

    def test_eq11_identity_is_m_over_m(self):
        e = gen.er(30, 4.0, seed=2)
        fs = encode_flat(e, np.arange(30, dtype=np.int64))
        assert abs(metrics(fs, len(e)).relative_size - 1.0) < 1e-12

    def test_unified_metrics_bundle(self):
        e = gen.clique(8)
        fs = encode_flat(e, np.zeros(8, dtype=np.int64))
        m = metrics(fs, len(e))
        assert m.n_h == 8 and m.max_height == 1 and m.avg_leaf_depth == 1.0
        assert abs(m.relative_size - 9 / 28) < 1e-12
