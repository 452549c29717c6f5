"""Cross-group consolidation tests (the distributed Case 2 lift)."""
import itertools
from collections import defaultdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import consolidate as cons
from repro.model.summary import canon


def consolidate(edges, children):
    """The lift with the parent map derived from ``children``."""
    return cons.consolidate(edges, {c: p for p, ks in children.items() for c in ks}, children)


def reference_consolidate(
    edges: list[tuple[int, int, int]],
    parent: dict[int, int],
    children: dict[int, list[int]],
) -> list[tuple[int, int, int]]:
    """The consolidation that rebuilds and sorts every candidate key each
    pass, kept verbatim as the reference for the worklist."""
    eset = {(*canon(x, y), s) for x, y, s in edges}
    changed = True
    while changed:
        changed = False
        cand: dict[tuple[int, int, int], set[int]] = defaultdict(set)
        for x, y, s in eset:
            for e, o in ((x, y), (y, x)):
                p = parent.get(e)
                if p is not None:
                    cand[(p, o, s)].add(e)
        for (p, o, s), present in sorted(cand.items()):
            kids = children[p]
            if not all(k in present for k in kids):
                continue
            old = [(*canon(k, o), s) for k in kids]
            lifted = (*canon(p, o), s)
            # skip if an earlier lift of this pass consumed a child's edge,
            # or if the lifted edge exists already: it would double cover
            # (never occurs under exact coverage, kept safe)
            if lifted in eset or not all(e in eset for e in old):
                continue
            eset.difference_update(old)
            eset.add(lifted)
            changed = True
    return sorted(eset)


class TestLift:
    def test_basic_lift(self):
        children = {10: [0, 1]}
        out = consolidate([(0, 5, 1), (1, 5, 1)], children)
        assert out == [(5, 10, 1)]

    def test_no_lift_single_child(self):
        children = {10: [0, 1]}
        out = consolidate([(0, 5, 1)], children)
        assert out == [(0, 5, 1)]

    def test_no_lift_sign_mismatch(self):
        children = {10: [0, 1]}
        out = consolidate([(0, 5, 1), (1, 5, -1)], children)
        assert set(out) == {(0, 5, 1), (1, 5, -1)}

    def test_cascade_up_two_levels(self):
        children = {10: [0, 1], 11: [2, 3], 12: [10, 11]}
        edges = [(0, 5, 1), (1, 5, 1), (2, 5, 1), (3, 5, 1)]
        out = consolidate(edges, children)
        assert out == [(5, 12, 1)]

    def test_both_sides_lift(self):
        children = {10: [0, 1], 20: [5, 6]}
        edges = [(0, 5, 1), (1, 5, 1), (0, 6, 1), (1, 6, 1)]
        out = consolidate(edges, children)
        assert out == [(10, 20, 1)]

    def test_negative_edges_lift_too(self):
        children = {10: [0, 1]}
        out = consolidate([(0, 5, -1), (1, 5, -1)], children)
        assert out == [(5, 10, -1)]

    def test_existing_parent_edge_blocks_lift(self):
        # lifting would collide with a pre-existing identical edge — must
        # leave coverage intact by keeping the children edges
        children = {10: [0, 1]}
        edges = [(0, 5, 1), (1, 5, 1), (10, 5, 1)]
        out = consolidate(edges, children)
        assert set(out) == {(0, 5, 1), (1, 5, 1), (5, 10, 1)}

    def test_canonicalizes_output(self):
        children = {10: [0, 1]}
        out = consolidate([(7, 0, 1)], children)
        assert out == [(0, 7, 1)]

    def test_coverage_preserved_randomized(self):
        # brute-force coverage equality over subnode pairs
        import itertools
        import random

        rng = random.Random(3)
        children = {10: [0, 1], 11: [2, 3], 12: [10, 11]}
        members = {0: [0], 1: [1], 2: [2], 3: [3], 10: [0, 1], 11: [2, 3],
                   12: [0, 1, 2, 3], 5: [5], 6: [6], 20: [5, 6]}
        children = dict(children)
        children[20] = [5, 6]
        left = [0, 1, 2, 3, 10, 11, 12]
        right = [5, 6, 20]
        for _ in range(25):
            edges = []
            seen = set()
            for __ in range(rng.randint(1, 6)):
                x, y = rng.choice(left), rng.choice(right)
                if (x, y) in seen:
                    continue
                seen.add((x, y))
                edges.append((x, y, rng.choice([1, -1])))

            def cover(es):
                c = {}
                for x, y, s in es:
                    for u, v in itertools.product(members[x], members[y]):
                        key = (u, v) if u < v else (v, u)
                        c[key] = c.get(key, 0) + s
                return {k: v for k, v in c.items() if v}

            out = consolidate(edges, children)
            assert cover(out) == cover(edges)
            assert len(out) <= len(edges)


@st.composite
def forests_and_edges(draw):
    """A random binary forest over leaves 0..n-1 (internal ids from 100)
    with at least two trees, and signed cross-tree edges: full blocks
    between the leaves of two nodes, which lift and cascade on either
    side, plus single edges at any level, which block or complete lifts."""
    n = draw(st.integers(2, 10))
    roots, children = list(range(n)), {}
    for nid in range(100, 100 + draw(st.integers(0, n - 2))):
        a, b = draw(st.permutations(roots))[:2]
        roots.remove(a)
        roots.remove(b)
        roots.append(nid)
        children[nid] = [a, b]
    parent = {c: p for p, ks in children.items() for c in ks}

    def top(v):
        while v in parent:
            v = parent[v]
        return v

    def leaves(v):
        return [x for k in children[v] for x in leaves(k)] if v in children else [v]

    nodes = [*range(n), *children]
    pairs = [(x, y) for x, y in itertools.combinations(nodes, 2) if top(x) != top(y)]
    signs = st.sampled_from((1, -1))
    edges = set()
    for (x, y), s in draw(st.lists(st.tuples(st.sampled_from(pairs), signs), max_size=4)):
        edges.update((u, v, s) for u in leaves(x) for v in leaves(y))
    for (x, y), s in draw(st.lists(st.tuples(st.sampled_from(pairs), signs), max_size=8)):
        edges.add((y, x, s) if draw(st.booleans()) else (x, y, s))
    return sorted(edges), parent, children


@given(case=forests_and_edges())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_worklist_equals_reference(case):
    edges, parent, children = case
    assert cons.consolidate(edges, parent, children) == reference_consolidate(
        edges, parent, children)


def test_blocked_key_lifts_after_its_edge_is_consumed():
    # Pass 1 lifts (11, 100) and (101, 0); key (30, 100) is full but its
    # lifted edge (30, 100) exists, so it is blocked. Pass 2 walks (20, 100),
    # which consumes (30, 100), then (30, 100), which now lifts, then
    # (40, 0), which finds (0, 100) gone. A pass 2 that skipped the blocked
    # key would lift (40, 0) instead.
    children = {30: [0, 1], 11: [2, 3], 20: [30, 11], 101: [5, 6], 40: [100, 101]}
    parent = {c: p for p, ks in children.items() for c in ks}
    edges = [(0, 100, 1), (1, 100, 1), (30, 100, 1), (2, 100, 1), (3, 100, 1),
             (0, 5, 1), (0, 6, 1)]
    want = [(0, 101, 1), (20, 100, 1), (30, 100, 1)]
    assert reference_consolidate(edges, parent, children) == want
    assert cons.consolidate(edges, parent, children) == want
