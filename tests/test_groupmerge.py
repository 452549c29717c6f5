"""Unit tests of the per-group merge worker (Algorithm 2 internals)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import groupmerge as gm


def make_worker(roots, hedges=(), pedges=(), ext=(), radj=(), sizes=None,
                theta=0.0, seed=0, hb=0):
    """Build a GroupWorker from terse tuples."""
    all_nodes = set(roots)
    for p, c in hedges:
        all_nodes.add(p)
        all_nodes.add(c)
    # root of each node: walk up
    parent = {c: p for p, c in hedges}

    def rootof(v):
        while v in parent:
            v = parent[v]
        return v

    children = {}
    for p, c in hedges:
        children.setdefault(p, []).append(c)

    def sz(v):
        kids = children.get(v)
        if not kids:
            return 1
        return sum(sz(c) for c in kids)

    nodes = [(v, sizes[v] if sizes else sz(v), rootof(v)) for v in sorted(all_nodes)]
    return gm.GroupWorker(
        gid=0, t=1, theta=theta, seed=seed, hb=hb, roots=list(roots), nodes=nodes,
        hedges=list(hedges), pedges=list(pedges), ext=list(ext), radj=list(radj),
    )


U0 = gm.new_id(1, 0, 0)


class TestBookkeeping:
    def test_initial_costs(self):
        w = make_worker([0, 1, 2], pedges=[(0, 1, 1), (1, 2, 1)])
        assert w.inc[0] == 1 and w.inc[1] == 2 and w.inc[2] == 1
        assert w.pcnt(0, 1) == 1 and w.pcnt(0, 2) == 0

    def test_treeof_after_merge(self):
        w = make_worker([0, 1], pedges=[(0, 1, 1)])
        w.merge(0, 1, U0)
        assert w.treeof(0) == U0 and w.treeof(1) == U0 and w.treeof(U0) == U0

    def test_merge_updates_size_height_hcount(self):
        w = make_worker([0, 1], pedges=[(0, 1, 1)])
        w.merge(0, 1, U0)
        assert w.size[U0] == 2 and w.height[U0] == 1 and w.hcount[U0] == 2

    def test_pmap_rekeyed_after_merge(self):
        w = make_worker([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)])
        w.merge(0, 1, U0)
        # case2 lifts (0,2),(1,2) -> (U0,2); counts follow
        assert w.pcnt(U0, 2) == 1
        assert w.edges == {(2, U0): 1}

    def test_ext_lift_is_virtual(self):
        w = make_worker([0, 1], ext=[(0, 99, 1), (1, 99, 1)])
        before = w.inc[0] + w.inc[1]
        w.merge(0, 1, U0)
        assert w.ext_adj[U0] == {99: 1}
        assert w.inc[U0] == before - 1


class TestSaving:
    def test_twin_singletons_sharing_member_neighbor(self):
        # 0 and 1 both connected to 2: case2 lift saves 1, h-edges cost 2
        w = make_worker([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)],
                        radj=[(0, 2), (1, 2)])
        s = w.saving(0, 1)
        # den=2, num=0+0+2+2-0+0-1-0=3 -> saving=-0.5
        assert s == pytest.approx(-0.5)

    def test_connected_pair_in_triangle(self):
        # triangle 0-1-2: den=3 (edges 01,02,12 once each); merging 0,1
        # costs 2 h-edges, Case 2 lifts (0,2)+(1,2) -> (U,2): num=4
        w = make_worker([0, 1, 2],
                        pedges=[(0, 1, 1), (0, 2, 1), (1, 2, 1)],
                        radj=[(0, 1), (0, 2), (1, 2)])
        assert w.saving(0, 1) == pytest.approx(1 - 4 / 3)

    def test_connected_pair_in_k4_breaks_even(self):
        # K4: two Case-2 lifts exactly pay for the two new h-edges
        pe = [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
        ra = [(a, b) for a in range(4) for b in range(4) if a != b]
        w = make_worker([0, 1, 2, 3], pedges=pe, radj=ra)
        assert w.saving(0, 1) == pytest.approx(0.0)

    def test_height_bound_blocks(self):
        w = make_worker([0, 1], pedges=[(0, 1, 1)], hb=0)
        w2 = make_worker([0, 1], pedges=[(0, 1, 1)], hb=1)
        assert w.saving(0, 1) > gm.NO_MERGE
        # merging two singletons gives height 1 <= hb=1: allowed
        assert w2.saving(0, 1) > gm.NO_MERGE
        w3 = make_worker([10, 11], hedges=[(10, 0), (10, 1), (11, 2), (11, 3)],
                         pedges=[(10, 11, 1)], hb=1)
        assert w3.saving(10, 11) == gm.NO_MERGE

    def test_isolated_pair_never_merges(self):
        w = make_worker([0, 1])
        assert w.saving(0, 1) == gm.NO_MERGE


class TestMergeEncoding:
    def test_dense_pair_collapses(self):
        # two internal supernodes, dense inside and across
        w = make_worker(
            [10, 11],
            hedges=[(10, 0), (10, 1), (11, 2), (11, 3)],
            pedges=[(10, 10, 1), (11, 11, 1), (10, 11, 1)],
        )
        w.merge(10, 11, U0)
        assert w.edges == {(U0, U0): 1}

    def test_case2_consolidates_member_neighbor(self):
        w = make_worker([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)])
        w.merge(0, 1, U0)
        assert w.edges == {(2, U0): 1}
        assert w.inc[2] == 1 and w.inc[U0] == 1

    def test_run_respects_theta(self):
        # theta=0.6 > any achievable saving here -> no merges
        w = make_worker([0, 1, 2], pedges=[(0, 1, 1), (0, 2, 1), (1, 2, 1)],
                        radj=[(0, 1), (0, 2), (1, 2)], theta=0.6)
        w.run()
        assert w.merges == []

    def test_run_merges_at_zero_theta(self):
        # K4 break-even merges are admitted when theta reaches 0 (t = T)
        pe = [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
        ra = [(a, b) for a in range(4) for b in range(4) if a != b]
        w = make_worker([0, 1, 2, 3], pedges=pe, radj=ra, theta=0.0)
        w.run()
        assert len(w.merges) >= 1

    def test_output_schema(self):
        w = make_worker([0, 1, 2], pedges=[(0, 1, 1), (0, 2, 1), (1, 2, 1)],
                        radj=[(0, 1), (0, 2), (1, 2)], theta=0.0)
        w.run()
        merges, pedges = w.output()
        assert all(len(m) == 3 for m in merges)
        assert pedges and all(len(e) == 3 and e[0] <= e[1] for e in pedges)


def bundle(roots, nodes=None, hedges=(), pedges=(), ext=(), radj=()):
    """A group bundle; ``nodes`` defaults to one singleton per root."""
    if nodes is None:
        nodes = [(r, 1, r) for r in roots]
    return (list(roots), list(nodes), list(hedges), list(pedges), list(ext), list(radj))


def k6_bundle():
    pe = [(a, b, 1) for a in range(6) for b in range(a + 1, 6)]
    ra = [(a, b) for a in range(6) for b in range(6) if a != b]
    return bundle(range(6), pedges=pe, radj=ra)


class TestRunGroup:
    def test_empty_group(self):
        assert gm.run_group(0, bundle([]), 1, 5, 0, 0) == ([], [])

    def test_deterministic_in_seed(self):
        o1 = gm.run_group(0, k6_bundle(), 1, 1, 42, 0)
        o2 = gm.run_group(0, k6_bundle(), 1, 1, 42, 0)
        assert o1 == o2 and o1[0]

    def test_single_root_passes_edges_through(self):
        b = bundle([10], nodes=[(10, 2, 10), (0, 1, 10), (1, 1, 10)],
                   hedges=[(10, 0), (10, 1)], pedges=[(1, 0, 1), (10, 10, -1)],
                   ext=[(10, 99, 1)], radj=[(10, 7)])
        merges, pedges = gm.run_group(3, b, 1, 5, 0, 0)
        assert merges == [] and pedges == [(1, 0, 1), (10, 10, -1)]

    @pytest.mark.parametrize("gid,make", [
        (0, k6_bundle),
        (5, lambda: bundle([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)],
                           ext=[(0, 99, 1), (1, 99, 1)], radj=[(0, 2), (1, 2), (0, 99)])),
        (9, lambda: bundle([4], pedges=[(4, 4, 1)])),
        (2, lambda: bundle([])),
    ], ids=["k6", "ext", "single_root", "empty"])
    def test_pandas_adapter_matches_run_group(self, gid, make):
        t, big_t, seed, hb = 1, 1, 7, 0
        merges, pedges = gm.run_group(gid, make(), t, big_t, seed, hb)
        tall = gm.tall_frame({gid: make()})
        out = gm.run_group_pandas(tall, t, big_t, seed, hb)
        rows = list(zip(out["kind"], out["x"].tolist(), out["y"].tolist(), out["v"].tolist()))
        assert [r[1:] for r in rows if r[0] == "merge"] == merges
        assert [r[1:] for r in rows if r[0] == "pedge"] == pedges
        assert set(out["gid"]) <= {gid}
        if len(out):
            assert out.dtypes[["gid", "x", "y", "v"]].eq(np.int64).all()

    def test_new_ids_unique_across_groups(self):
        ids = {gm.new_id(t, g, s) for t in (1, 2) for g in (0, 1, 7) for s in (0, 1)}
        assert len(ids) == 12
        assert min(ids) >= gm.ID_BASE
