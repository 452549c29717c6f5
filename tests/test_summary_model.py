"""HierSummary container invariants, and the structure its Forest derives
(parents, children, roots, members)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import generators as gen
from repro.model.summary import Forest, HierSummary, empty_hedges, empty_pedges


def tiny_summary() -> HierSummary:
    """{0,1} under supernode 10, {2} free; one p-edge (10, 2)."""
    nodes = pd.DataFrame({"nid": [0, 1, 2, 10], "size": [1, 1, 1, 2]})
    hedges = pd.DataFrame({"parent": [10, 10], "child": [0, 1]})
    pedges = pd.DataFrame({"x": [2], "y": [10], "sign": [1]})
    return HierSummary(n_sub=3, nodes=nodes, hedges=hedges, pedges=pedges)


class TestIdentity:
    def test_identity_matches_graph(self):
        e = gen.clique(5)
        s = HierSummary.identity(e, 5)
        assert len(s.pedges) == len(e)
        assert len(s.hedges) == 0
        assert (s.pedges["sign"] == 1).all()
        s.validate()

    def test_identity_of_reversed_edges_is_canonical(self):
        e = pd.DataFrame({"src": [1, 2, 0], "dst": [0, 1, 3]})
        s = HierSummary.identity(e, 4)
        assert s.pedges[["x", "y"]].values.tolist() == [[0, 1], [1, 2], [0, 3]]
        s.validate()

    def test_identity_roots_are_singletons(self):
        s = HierSummary.identity(gen.path(4), 4)
        assert sorted(Forest.from_summary(s).roots()) == [0, 1, 2, 3]


class TestDerived:
    def test_parent_children_maps(self):
        f = Forest.from_summary(tiny_summary())
        assert f.parent == {0: 10, 1: 10}
        assert f.children == {10: [0, 1]}

    def test_roots(self):
        assert sorted(Forest.from_summary(tiny_summary()).roots()) == [2, 10]

    def test_leaf_members(self):
        m = Forest.from_summary(tiny_summary()).members()
        assert m == {0: [0], 1: [1], 2: [2], 10: [0, 1]}

    def test_membership_closure(self):
        f = Forest.from_summary(tiny_summary())
        got = {(u, v) for v, mem in f.members().items() for u in mem}
        assert got == {(0, 0), (0, 10), (1, 1), (1, 10), (2, 2)}
        assert f.root_of() == {0: 10, 1: 10, 10: 10, 2: 2}


def naive_closure(s: HierSummary) -> set[tuple[int, int]]:
    """Reference closure (subnode, supernode containing it): walk each
    subnode's parent pointers, read straight from the h-edge table, to its
    root."""
    parent = dict(zip(s.hedges["child"].tolist(), s.hedges["parent"].tolist()))
    out = set()
    for u in range(s.n_sub):
        v = u
        out.add((u, v))
        while v in parent:
            v = parent[v]
            out.add((u, v))
    return out


def naive_members(s: HierSummary) -> dict[int, list[int]]:
    """Reference members: every supernode holding a subnode -> its sorted
    subnodes, from :func:`naive_closure`."""
    out: dict[int, list[int]] = {}
    for u, v in sorted(naive_closure(s)):
        out.setdefault(v, []).append(u)
    return out


def deep_forest() -> HierSummary:
    """A complete binary tree of depth 4 over the subnodes 0..15 in shuffled
    order, a depth-1 tree over {16, 17}, and free subnodes 18 and 19. The
    internal ids are >= 2**40 and far apart, as ``groupmerge.new_id`` makes
    them; the h-edges are listed in shuffled order."""
    rng = np.random.default_rng(0)
    ids = iter((1 << 40) + (np.arange(16) << 20))
    level = rng.permutation(16).tolist()
    parents, children = [], []
    while len(level) > 1:
        nxt = []
        for a, b in zip(level[::2], level[1::2]):
            p = int(next(ids))
            parents += [p, p]
            children += [a, b]
            nxt.append(p)
        level = nxt
    p = int(next(ids))
    parents += [p, p]
    children += [16, 17]
    order = rng.permutation(len(parents))
    hedges = pd.DataFrame({"parent": np.array(parents)[order],
                           "child": np.array(children)[order]}, dtype=np.int64)
    nids = list(range(20)) + sorted(set(parents))
    s = HierSummary(n_sub=20, nodes=pd.DataFrame({"nid": nids, "size": 1}, dtype=np.int64),
                    hedges=hedges, pedges=empty_pedges())
    members = naive_members(s)
    s.nodes["size"] = [len(members[v]) for v in nids]
    return s


class TestMembership:
    """``Forest.members`` and ``Forest.root_of`` against a per-subnode
    parent walk."""

    def test_depth_four_forest_with_large_ids(self):
        s = deep_forest()
        s.validate()
        want = naive_closure(s)
        assert max(sum(1 for w, _ in want if w == u) for u in range(20)) == 5
        f = Forest.from_summary(s)
        assert f.members() == naive_members(s)
        # every supernode containing u lies under u's top ancestor
        parent = dict(zip(s.hedges["child"].tolist(), s.hedges["parent"].tolist()))
        top = {u: v for u, v in want if v not in parent}
        assert {v: top[u] for u, v in want} == f.root_of()

    def test_no_hedges(self):
        s = HierSummary.identity(gen.path(5), 5)
        f = Forest.from_summary(s)
        assert f.members() == naive_members(s) == {u: [u] for u in range(5)}
        assert f.root_of() == {u: u for u in range(5)}

    def test_no_subnodes(self):
        s = HierSummary(n_sub=0, nodes=pd.DataFrame({"nid": [], "size": []}, dtype=np.int64),
                        hedges=empty_hedges(), pedges=empty_pedges())
        f = Forest.from_summary(s)
        assert f.members() == naive_members(s) == {} and f.root_of() == {}

    def test_childless_internal_holds_no_subnode(self):
        f = Forest(3, {0: 1, 1: 1, 2: 1, 10: 2, 11: 0}, [(10, 0), (10, 1)])
        assert f.members() == {0: [0], 1: [1], 2: [2], 10: [0, 1], 11: []}


class TestValidate:
    def test_ok(self):
        tiny_summary().validate()

    def test_detects_size_mismatch(self):
        s = tiny_summary()
        s.nodes.loc[s.nodes["nid"] == 10, "size"] = 5
        with pytest.raises(ValueError, match="size"):
            s.validate()

    def test_detects_two_parents(self):
        s = tiny_summary()
        s.nodes = pd.concat(
            [s.nodes, pd.DataFrame({"nid": [11], "size": [1]})], ignore_index=True
        )
        s.hedges = pd.concat(
            [s.hedges, pd.DataFrame({"parent": [11], "child": [0]})], ignore_index=True
        )
        with pytest.raises(ValueError):
            s.validate()

    def test_detects_childless_internal(self):
        s = tiny_summary()
        s.hedges = empty_hedges()
        with pytest.raises(ValueError, match="children"):
            s.validate()

    def test_detects_bad_sign(self):
        s = tiny_summary()
        s.pedges.loc[0, "sign"] = 2
        with pytest.raises(ValueError, match="sign"):
            s.validate()

    def test_detects_noncanonical_pedge(self):
        s = tiny_summary()
        s.pedges = pd.DataFrame({"x": [10], "y": [2], "sign": [1]})
        with pytest.raises(ValueError, match="canonical"):
            s.validate()

    def test_detects_duplicate_pedge(self):
        s = tiny_summary()
        s.pedges = pd.DataFrame({"x": [2, 2], "y": [10, 10], "sign": [1, 1]})
        with pytest.raises(ValueError, match="duplicate"):
            s.validate()

    def test_detects_edge_to_ancestor(self):
        # {0, 1} under 10: (0, 10) would cover the self-pair (0, 0)
        s = tiny_summary()
        s.pedges = pd.DataFrame({"x": [0, 0], "y": [10, 2], "sign": [1, 1]})
        with pytest.raises(ValueError, match="ancestor"):
            s.validate()

    def test_detects_cycle_no_leaf_reaches(self):
        # a valid tree beside internal supernodes 3 -> 4 -> 3
        s = tiny_summary()
        s.nodes = pd.concat(
            [s.nodes, pd.DataFrame({"nid": [3, 4], "size": [1, 1]})], ignore_index=True
        )
        s.hedges = pd.concat(
            [s.hedges, pd.DataFrame({"parent": [3, 4], "child": [4, 3]})], ignore_index=True
        )
        with pytest.raises(ValueError, match="cycle"):
            s.validate()
