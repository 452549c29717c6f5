"""Unit tests of the per-group merge worker (Algorithm 2 internals)."""
import itertools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import groupmerge as gm
from repro.core import localenc as L
from repro.core.candidates import run_groups


def make_worker(roots, hedges=(), pedges=(), ext=(), sizes=None,
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
        hedges=list(hedges), pedges=list(pedges), ext=list(ext),
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
        assert w.forest.size[U0] == 2 and w.height[U0] == 1 and w.hcount[U0] == 2

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
        w = make_worker([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)])
        s = w.saving(0, 1)
        # den=2, num=0+0+2+2-0+0-1-0=3 -> saving=-0.5
        assert s == pytest.approx(-0.5)

    def test_connected_pair_in_triangle(self):
        # triangle 0-1-2: den=3 (edges 01,02,12 once each); merging 0,1
        # costs 2 h-edges, Case 2 lifts (0,2)+(1,2) -> (U,2): num=4
        w = make_worker([0, 1, 2],
                        pedges=[(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert w.saving(0, 1) == pytest.approx(1 - 4 / 3)

    def test_connected_pair_in_k4_breaks_even(self):
        # K4: two Case-2 lifts exactly pay for the two new h-edges
        pe = [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
        w = make_worker([0, 1, 2, 3], pedges=pe)
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
        w = make_worker([0, 1, 2], pedges=[(0, 1, 1), (0, 2, 1), (1, 2, 1)], theta=0.6)
        w.run()
        assert w.merges == []

    def test_run_merges_at_zero_theta(self):
        # K4 break-even merges are admitted when theta reaches 0 (t = T)
        pe = [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
        w = make_worker([0, 1, 2, 3], pedges=pe, theta=0.0)
        w.run()
        assert len(w.merges) >= 1

    def test_output_schema(self):
        w = make_worker([0, 1, 2], pedges=[(0, 1, 1), (0, 2, 1), (1, 2, 1)], theta=0.0)
        w.run()
        merges, pedges = w.output()
        assert all(len(m) == 3 for m in merges)
        assert pedges and all(len(e) == 3 and e[0] <= e[1] for e in pedges)


# Two hand-built groups for pinning Saving and the Case-2 re-encoding.
# LEAFY: internal roots 10, 11, 12 and leaf roots 4, 5, so every pair has
# both a leaf C and an internal C beside its panel. DEEP: root 20 has an
# internal child 21, so 22 and 23 are grandchildren of C = 20 and their
# edges to other panels (22-31, 22-32, 23-32, 23-40) are out of Case 2.
LEAFY = dict(
    roots=[10, 11, 4, 5, 12],
    hedges=[(10, 0), (10, 1), (11, 2), (11, 3), (12, 6), (12, 7)],
    pedges=[(0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, -1), (10, 4, 1), (2, 4, 1),
            (3, 5, 1), (11, 5, 1), (0, 5, 1), (10, 10, 1), (4, 5, 1), (0, 6, 1),
            (0, 7, 1), (2, 12, 1), (12, 12, 1), (1, 12, -1)],
    ext=[(10, 99, 1), (11, 99, 1), (4, 98, -1), (5, 98, -1)],
)
DEEP = dict(
    roots=[20, 30, 40, 41],
    hedges=[(20, 21), (20, 8), (21, 22), (21, 23), (30, 31), (30, 32)],
    pedges=[(22, 31, 1), (23, 40, 1), (21, 31, 1), (8, 30, -1), (8, 40, 1),
            (20, 41, 1), (30, 41, 1), (32, 40, 1), (21, 21, 1), (30, 30, 1),
            (40, 41, 1), (22, 23, 1), (22, 32, 1), (23, 32, -1)],
    ext=[(30, 97, 1), (40, 97, 1)],
)
PINNED_GROUPS = {"leafy": LEAFY, "deep": DEEP}


class TestPinned:
    """Saving and merge results recorded before Case 2 was bucketed in one
    adjacency pass; the rewrite must reproduce them exactly."""

    SAVING = {
        "leafy": {
            (10, 11): 0.09999999999999998, (10, 4): 0.125, (10, 5): 0.05882352941176472,
            (10, 12): 0.05882352941176472, (11, 10): 0.050000000000000044, (11, 4): 0.0,
            (11, 5): 0.0, (11, 12): 0.05882352941176472, (4, 10): 0.125, (4, 11): 0.0,
            (4, 5): -0.125, (4, 12): 0.0, (5, 10): 0.05882352941176472, (5, 11): 0.0,
            (5, 4): -0.125, (5, 12): 0.0, (12, 10): 0.05882352941176472,
            (12, 11): 0.05882352941176472, (12, 4): 0.0, (12, 5): 0.0,
        },
        "deep": {
            (20, 30): 0.0, (20, 40): 0.0, (20, 41): -0.0625, (30, 20): 0.0, (30, 40): 0.0,
            (30, 41): -0.07692307692307687, (40, 20): 0.0, (40, 30): 0.0,
            (40, 41): -0.2857142857142858, (41, 20): -0.0625,
            (41, 30): -0.07692307692307687, (41, 40): -0.2857142857142858,
        },
    }

    MERGED = {
        ("leafy", 10, 11): [
            ((0, 3), 1), ((0, 12), 1), ((1, 3), -1), ((1, 5), -1), ((1, 12), -1),
            ((2, 10), 1), ((2, 12), 1), ((3, 4), -1), ((3, 5), 1), ((4, 5), 1),
            ((4, U0), 1), ((5, U0), 1), ((10, 10), 1), ((12, 12), 1)],
        ("leafy", 4, 5): [
            ((0, 2), 1), ((0, 3), 1), ((0, 6), 1), ((0, 7), 1), ((1, 2), 1),
            ((1, 3), -1), ((1, 5), -1), ((1, 12), -1), ((2, 12), 1), ((3, 4), -1),
            ((3, 5), 1), ((10, 10), 1), ((10, U0), 1), ((11, U0), 1), ((12, 12), 1),
            ((U0, U0), 1)],
        ("deep", 30, 40): [
            ((8, 30), -1), ((8, 40), 1), ((20, 41), 1), ((21, 21), 1), ((21, 31), 1),
            ((22, 23), 1), ((22, 31), 1), ((22, 32), 1), ((23, 32), -1), ((23, 40), 1),
            ((31, 40), -1), ((41, U0), 1), ((U0, U0), 1)],
        ("deep", 40, 41): [
            ((8, 30), -1), ((20, U0), 1), ((21, 21), 1), ((21, 31), 1), ((21, 40), -1),
            ((22, 23), 1), ((22, 31), 1), ((22, 32), 1), ((23, 32), -1), ((23, 40), 1),
            ((30, 30), 1), ((30, U0), 1), ((31, 40), -1), ((U0, U0), 1)],
    }

    @pytest.mark.parametrize("name", PINNED_GROUPS)
    def test_saving_every_root_pair(self, name):
        group = PINNED_GROUPS[name]
        got = {(a, z): make_worker(**group).saving(a, z)
               for a, z in itertools.permutations(group["roots"], 2)}
        assert got == pytest.approx(self.SAVING[name])

    @pytest.mark.parametrize("name", PINNED_GROUPS)
    def test_case2_buckets_match_brute_force(self, name):
        # A's side scan, then z's, without the buckets of C in {a, z}
        group = PINNED_GROUPS[name]
        w = make_worker(**group)
        c_labels = (L.C, L.C0, L.C1)
        for a, b in itertools.permutations(group["roots"], 2):
            sa, sb = w._side(a, 0), w._side(b, 1)
            real2label = dict(zip(sa.reals + sb.reals, sa.labels + sb.labels))
            want: dict[int, Counter] = {}
            for c in set(group["roots"]) - {a, b}:
                s_bar = [c] + w.forest.children.get(c, [])
                found = Counter(
                    (real2label[x], c_labels[s_bar.index(y)], s)
                    for (p, q), s in w.edges.items()
                    for x, y in ((p, q), (q, p))
                    if x in real2label and y in s_bar)
                if found:
                    want[c] = found
            got = {c: Counter(sa.buckets.get(c, ()) + sb.buckets.get(c, ()))
                   for c in (sa.buckets.keys() | sb.buckets.keys()) - {a, b}}
            assert got == want, (a, b)

    @pytest.mark.parametrize("name", PINNED_GROUPS)
    def test_case1_removal_match_brute_force(self, name):
        group = PINNED_GROUPS[name]
        w = make_worker(**group)
        for a, b in itertools.permutations(group["roots"], 2):
            sa, sb = w._side(a, 0), w._side(b, 1)
            real2label = dict(zip(sa.reals + sb.reals, sa.labels + sb.labels))
            want = Counter((frozenset((real2label[x], real2label[y])), s)
                           for (x, y), s in w.edges.items()
                           if x in real2label and y in real2label)
            got = Counter((frozenset((lx, ly)), s) for lx, ly, s in gm._case1_removal(sa, sb, b))
            assert got == want, (a, b)

    @pytest.mark.parametrize("key", MERGED, ids=lambda k: "-".join(map(str, k)))
    def test_merge_reencoding(self, key):
        name, a, b = key
        w = make_worker(**PINNED_GROUPS[name])
        w.merge(a, b, U0)
        assert sorted(w.edges.items()) == self.MERGED[key]


def random_group(seed, n_roots=7):
    """Roots that are leaves, two-leaf trees or depth-2 trees, with random
    signed p/n-edges between nodes of different trees, between siblings
    and as self-loops on internal nodes, and random root-level externals."""
    rng = random.Random(seed)
    ids = itertools.count()
    roots, hedges, nodes = [], [], []

    def tree(depth):
        v = next(ids)
        nodes.append(v)
        if depth:
            kids = [tree(depth - 1), tree(rng.randrange(depth))]
            hedges.extend((v, c) for c in kids)
        return v

    for _ in range(n_roots):
        roots.append(tree(rng.choice((0, 1, 2))))
    parent = {c: p for p, c in hedges}

    def top(v):
        while v in parent:
            v = parent[v]
        return v

    internal = {p for p, _ in hedges}
    pedges = [(x, y, rng.choice((1, -1)))
              for x, y in itertools.combinations_with_replacement(nodes, 2)
              if (x == y and x in internal
                  or x != y and (top(x) != top(y) or parent.get(x, x) == parent.get(y, y)))
              and rng.random() < 0.35]
    ext = [(r, 900 + y, rng.choice((1, -1))) for r in roots for y in range(4)
           if rng.random() < 0.6]
    return dict(roots=roots, hedges=hedges, pedges=pedges, ext=ext)


# ZERO_TARGET: merging leaves 1 and 2 re-encodes root 10's edges
# (A, C, +1), (A, C0, -1) and (A, C1, -1), whose coverage cancels, so the
# Case-2 solver drops them all and the new root gets no bucket in 10's scans
ZERO_TARGET = dict(roots=[1, 2, 10], hedges=[(10, 3), (10, 4)],
                   pedges=[(1, 2, 1), (1, 10, 1), (1, 3, -1), (1, 4, -1)])
# budget_out runs with a solver node budget of 1: every re-encoding keeps
# the old edges, so each patched bucket is built from edges to A and B
STALE_GROUPS = {**PINNED_GROUPS, "random": random_group(3), "budget_out": random_group(3),
                "zero_target": ZERO_TARGET}
FIRST_MERGES = {"zero_target": [(1, 2)]}


def assert_scan_is_fresh(w, root, role):
    """The cached scan of (root, role) equals a fresh ``_scan``, field by
    field."""
    got, want = w._sides[(root, role)], w._scan(root, role)
    assert (got.labels, got.reals, got.flags) == (want.labels, want.reals, want.flags)
    assert got.inner == want.inner
    assert got.buckets == want.buckets
    assert got.sids == want.sids
    assert {sid: w._shapes[sid] for sid in got.sids.values()} == {
        sid: (2 if w.forest.children.get(c) else 1, want.buckets[c])
        for c, sid in want.sids.items()}
    assert got.shapes == want.shapes
    assert got.ext == want.ext


@pytest.mark.parametrize("name", STALE_GROUPS)
def test_side_scans_never_stale(name, monkeypatch):
    """After every merge, each cached side scan equals a fresh scan, Saving
    from the cached scans equals Saving with the caches emptied, and
    merging through them gives the edges a worker that rescans before
    every merge gives."""
    if name == "budget_out":
        L.clear_memo()  # a memo hit would bypass the budget
        monkeypatch.setattr(L, "NODE_BUDGET", 1)
    try:
        patched = check_scans_through_merges(name)
        unsolved = None in L._memo.values()
    finally:
        if name == "budget_out":
            L.clear_memo()  # drop the budget-limited answers
    # (scans patched, of them with a bucket for the new root, of those
    # built only from edges to the merged roots' panels)
    assert patched[0] > 0
    if name == "budget_out":
        assert unsolved
        assert patched[2] == patched[1] > 0
    elif name == "zero_target":
        assert patched[1] < patched[0]


def check_scans_through_merges(name):
    """Merge the group down to one root, checking the cached scans, edges
    and scores after every merge; returns the patch counts."""
    group = STALE_GROUPS[name]
    w, ref = make_worker(**group), make_worker(**group)
    rng = random.Random(0)
    first = list(FIRST_MERGES.get(name, ()))
    patched = [0, 0, 0]

    def scores():
        return {(a, z): w.saving(a, z) for a, z in itertools.permutations(sorted(w.roots), 2)}

    scores()  # fill the caches before the first merge
    for seq in itertools.count():
        if len(w.roots) < 2:
            break
        a, b = first.pop(0) if first else rng.sample(sorted(w.roots), 2)
        u = gm.new_id(1, 0, seq)
        touched = [k for k, side in w._sides.items()
                   if k[0] not in (a, b) and side.buckets.keys() & {a, b}]
        w.merge(a, b, u)
        ref._sides.clear()
        ref.merge(a, b, u)
        # same edges, added in the same order (the order of the output's
        # triples)
        assert list(w.edges.items()) == list(ref.edges.items()), (a, b)
        assert {x: list(d.items()) for x, d in w.edges.adj.items()} == {
            x: list(d.items()) for x, d in ref.edges.adj.items()}, (a, b)
        assert {r for r, _ in w._sides} <= w.roots - {u}
        for root, role in w._sides:
            assert_scan_is_fresh(w, root, role)
        for k in touched:
            bucket = w._sides[k].buckets.get(u)
            patched[0] += 1
            patched[1] += bucket is not None
            patched[2] += bucket is not None and all(lc != L.C for _, lc, _ in bucket)
        cached = scores()
        kept, w._sides = w._sides, {}
        assert cached == scores(), (a, b)
        w._sides = kept  # the next merge reads the caches built before it
    assert seq == len(group["roots"]) - 1
    return patched


def brute_saving(w, a, z):
    """Saving(a, z) with every term rebuilt from ``w.edges``: the Case-1
    edges and one Case-2 bucket per root C, each re-encoded on its own and
    summed per C, as one pass over the merged panel would."""
    if w.hb and max(w.height[a], w.height[z]) + 1 > w.hb:
        return gm.NO_MERGE
    den = w.eff_h(a) + w.eff_h(z) + w.inc[a] + w.inc[z] - w.pcnt(a, z)
    if den <= 0:
        return gm.NO_MERGE

    def panel(root, labels):
        kids = w.forest.children.get(root, [])
        return dict(zip([root, *kids], labels)), tuple(w.forest.size[k] == 1 for k in kids or [root])

    la, fa = panel(a, (L.A, L.A0, L.A1))
    lz, fz = panel(z, (L.B, L.B0, L.B1))
    label = {**la, **lz}
    na, nb = len(fa), len(fz)
    case1 = [(label[x], label[y], s) for (x, y), s in w.edges.items()
             if x in label and y in label]
    total = list(L.effect(L.solve_case1(na, nb, fa + fz, case1), case1))
    for c in set(w.roots) - {a, z}:
        lc, fc = panel(c, (L.C, L.C0, L.C1))
        bucket = [(label[x], lc[y], s) for (p, q), s in w.edges.items()
                  for x, y in ((p, q), (q, p)) if x in label and y in lc]
        e = L.effect(L.solve_case2(na, nb, len(fc), bucket), bucket)
        total = [t + v for t, v in zip(total, e)]
    d, da, db, du = total
    dext = sum(w.ext_adj.get(z, {}).get(y) == s for y, s in w.ext_adj.get(a, {}).items())
    adj = 0
    for root, delta in ((a, da), (z, db)):
        if w.forest.children.get(root):
            after = w.ndeg[root] + delta - dext
            adj += (w.ndeg[root] > 0 and after == 0) - (w.ndeg[root] == 0 and after > 0)
    if du + dext == 0:
        adj += 2
    return 1.0 - (den + 2 - adj + d - dext) / den


# DENSE: twelve singleton roots, about 70 % of the pairs joined by a
# p-edge, so every root's Case-2 buckets share one shape ((A, C, +1),), the
# shape of ppi_like's first round; after a merge, shapes such as
# ((A0, C, +1), (A1, C, +1)) recur over many roots C, some touched by one
# side only. REDUNDANT: root 10's leaves 0 and 1 both reach six leaf roots
# C, edges a merge would lift to (10, C), so one bucket shape with a
# non-zero effect recurs on one side only. MIXED: a seeded random group
# with depth-2 roots beside leaves and two-leaf trees.
DENSE = dict(roots=list(range(12)),
             pedges=[(x, y, 1) for x, y in itertools.combinations(range(12), 2)
                     if random.Random(x * 12 + y).random() < 0.7],
             ext=[(r, 99, 1) for r in range(0, 12, 3)])
REDUNDANT = dict(
    roots=[10, 20, 4, 5, 6, 7, 8, 9, 11],
    hedges=[(10, 0), (10, 1), (20, 2), (20, 3)],
    pedges=[*((x, c, 1) for x in (0, 1) for c in range(4, 10)),
            *((2, c, 1) for c in (4, 5, 6)), (20, 7, -1), (11, 7, 1), (11, 8, 1)],
)
SHAPE_GROUPS = {"dense": DENSE, "redundant": REDUNDANT, "mixed": random_group(11, n_roots=9)}


@pytest.mark.parametrize("name", SHAPE_GROUPS)
def test_shape_grouped_saving_matches_per_c_sum(name):
    group = SHAPE_GROUPS[name]
    w = make_worker(**group)
    if name == "dense":
        assert {sid for r in w.roots for sid in w._side(r, 0).sids.values()} == {0}
    elif name == "redundant":
        assert w._side(10, 0).shapes == {0: {4, 5, 6, 7, 8, 9}}
    else:
        assert max(w.height.values()) == 2
    rng = random.Random(1)
    for seq in range(4):  # before and after merges: deeper panels, shared Cs
        for a, z in itertools.permutations(sorted(w.roots), 2):
            assert w.saving(a, z) == brute_saving(w, a, z), (a, z)
        a, b = rng.sample(sorted(w.roots), 2)
        w.merge(a, b, gm.new_id(1, 0, seq))


def group_bundle(group):
    """A :func:`random_group` as a worker bundle."""
    w = make_worker(**group)
    top = w.static_root
    nodes = [(v, w.forest.size[v], top[v]) for v in sorted(top)]
    return (list(group["roots"]), nodes, list(group["hedges"]), list(group["pedges"]),
            list(group["ext"]))


def assert_sides_sorted(w):
    for side in w._sides.values():
        assert list(side.inner) == sorted(side.inner)
        for bucket in side.buckets.values():
            assert list(bucket) == sorted(bucket)


class SortedSidesWorker(gm.GroupWorker):
    """A worker that checks every cached side scan is sorted after each
    merge and before its output."""

    def merge(self, a, b, u):
        super().merge(a, b, u)
        assert_sides_sorted(self)

    def output(self):
        assert_sides_sorted(self)
        return super().output()


@given(seed=st.integers(0, 10**4), n_roots=st.integers(2, 9), order=st.randoms(),
       t=st.integers(1, 3))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_group_ignores_edge_order(seed, n_roots, order, t):
    """Algorithm 2 on one group is a function of its edge sets: shuffling
    the bundle's p/n-edge and external lists and flipping each
    p/n-edge's orientation changes no merge and no edge, and every cached
    side scan lists its inner edges and buckets sorted."""
    b = group_bundle(random_group(seed, n_roots))
    pedges, ext = ([(y, x, s) for x, y, s in b[3]], list(b[4]))
    for xs in (pedges, ext):
        order.shuffle(xs)
    shuffled = (*b[:3], pedges, ext)
    args = (t, 3, seed, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gm, "GroupWorker", SortedSidesWorker)
        (m1, e1), (m2, e2) = (gm.run_group(7, x, *args) for x in (b, shuffled))
    assert m1 == m2
    assert sorted(e1) == sorted(e2)


def assert_counts_match_recount(w):
    """The worker's root-pair counts (through ``pcnt``, both orders, self
    pairs included), ``inc`` per root, ``ndeg`` per node and ``eff_h`` per
    root equal a recount from ``w.edges``, ``w.ext_adj`` and ``treeof``."""
    pairs, inc, deg = Counter(), Counter(), Counter()
    for x, y in w.edges:
        rx, ry = w.treeof(x), w.treeof(y)
        pairs[frozenset((rx, ry))] += 1
        inc[rx] += 1
        deg[x] += 1
        if ry != rx:
            inc[ry] += 1
        if y != x:
            deg[y] += 1
    for x, ext in w.ext_adj.items():
        inc[w.treeof(x)] += len(ext)
        deg[x] += len(ext)
    roots = sorted(w.roots)
    for a, b in itertools.combinations_with_replacement(roots, 2):
        assert w.pcnt(a, b) == w.pcnt(b, a) == pairs[frozenset((a, b))], (a, b)
    assert {v: d for v, d in w.ndeg.items() if d} == +deg
    for r in roots:
        assert w.inc[r] == inc[r], r
        tree = w.forest.tree(r)
        edgeless = sum(1 for v in tree if w.forest.children.get(v) and not deg[v])
        assert w.eff_h(r) == len(tree) - 1 - edgeless, r


@given(seed=st.integers(0, 10**4), n_roots=st.integers(3, 9), n_merges=st.integers(1, 4),
       pick=st.randoms())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_counts_match_recount_through_merges(seed, n_roots, n_merges, pick):
    """The bookkeeping Saving reads (``pcnt``, ``inc``, ``ndeg``, ``eff_h``)
    stays equal to a recount through random merges of a random group."""
    w = make_worker(**random_group(seed, n_roots))
    assert_counts_match_recount(w)
    for seq in range(n_merges):
        if len(w.roots) < 2:
            break
        a, b = pick.sample(sorted(w.roots), 2)
        w.merge(a, b, gm.new_id(1, 0, seq))
        assert_counts_match_recount(w)


def bundle(roots, nodes=None, hedges=(), pedges=(), ext=()):
    """A group bundle; ``nodes`` defaults to one singleton per root."""
    if nodes is None:
        nodes = [(r, 1, r) for r in roots]
    return (list(roots), list(nodes), list(hedges), list(pedges), list(ext))


def k6_bundle():
    pe = [(a, b, 1) for a in range(6) for b in range(a + 1, 6)]
    return bundle(range(6), pedges=pe)


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
                   ext=[(10, 99, 1)])
        merges, pedges = gm.run_group(3, b, 1, 5, 0, 0)
        assert merges == [] and pedges == [(1, 0, 1), (10, 10, -1)]

    @pytest.mark.parametrize("gid,make", [
        (0, k6_bundle),
        (5, lambda: bundle([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)],
                           ext=[(0, 99, 1), (1, 99, 1)])),
        (9, lambda: bundle([4], pedges=[(4, 4, 1)])),
        (2, lambda: bundle([])),
    ], ids=["k6", "ext", "single_root", "empty"])
    def test_pandas_adapter_matches_run_group(self, spark, gid, make):
        # the mapInPandas adapter inside run_groups, one group at a time
        args = (1, 1, 7, 0)
        expected = gm.run_group(gid, make(), *args)
        assert run_groups(gm.run_group, {gid: make()}, args, spark) == [expected]

    def test_run_groups_spark_equals_local(self, spark):
        # k6, ext, single_root and empty groups, keyed out of gid order
        bundles = {
            9: bundle([4], pedges=[(4, 4, 1)]),
            0: k6_bundle(),
            5: bundle([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)],
                      ext=[(0, 99, 1), (1, 99, 1)]),
            2: bundle([]),
        }
        args = (1, 1, 7, 0)
        local = run_groups(gm.run_group, bundles, args)
        assert local == [gm.run_group(g, bundles[g], *args) for g in (0, 2, 5, 9)]
        assert local[0][0]  # k6 merges
        assert run_groups(gm.run_group, bundles, args, spark) == local

    def test_run_groups_no_groups(self, spark):
        assert run_groups(gm.run_group, {}, (1, 1, 7, 0)) == []
        assert run_groups(gm.run_group, {}, (1, 1, 7, 0), spark) == []

    def test_new_ids_unique_across_groups(self):
        ids = {gm.new_id(t, g, s) for t in (1, 2) for g in (0, 1, 7) for s in (0, 1)}
        assert len(ids) == 12
        assert min(ids) >= gm.ID_BASE
