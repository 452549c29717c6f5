"""The supernode forest and signed edge store shared by the SLUGGER driver,
the group worker, pruning and every reader of a summary
(repro.model.summary)."""
import pytest

from repro.model.summary import Forest, SignedEdges
from repro.core.slugger import slugger
from repro.graphs import generators as gen
from tests.test_decode import hier_example
from tests.test_slugger import NESTED, digest
from tests.test_summary_model import naive_members


def edge_triples(s):
    return zip(*(s.pedges[c].tolist() for c in ("x", "y", "sign")))


def unpruned_slugger():
    edges = gen.nested_partition(**NESTED)
    return slugger(edges, NESTED["n"], T=4, seed=0, engine="local", do_prune=False).summary


@pytest.mark.parametrize("make", [lambda: hier_example()[0], unpruned_slugger],
                         ids=["hier_example", "slugger_unpruned"])
def test_summary_round_trip(make):
    s = make()
    assert digest(Forest.from_summary(s).to_summary(edge_triples(s))) == digest(s)


def test_edits_agree_with_summary_views():
    s, _ = hier_example()  # 12 = {10 = {0, 1}, 11 = {2, 3}}; roots 4, 5, 12
    f = Forest.from_summary(s)
    edits = [("merge", 4, 5, 20), ("drop", 10),  # 0 and 1 move up to 12
             ("merge", 12, 20, 21), ("drop", 21),  # a root: 12 and 20 are roots again
             ("merge", 20, 12, 22)]
    for op, *args in edits:
        getattr(f, op)(*args)
        out = f.to_summary([(3, 2, 1)])  # written (2, 3, 1)
        out.validate()
        members = naive_members(out)  # read from the written tables
        roots = set(out.nodes["nid"].tolist()) - set(out.hedges["child"].tolist())
        assert sorted(f.roots()) == sorted(roots), op
        assert f.members() == members
        root_of, lr = f.root_of(), f.leaf_root()
        for r in f.roots():
            assert sorted(f.leaves(r)) == members[r]
            assert sorted(f.tree(r)) == sorted(v for v in members
                                               if set(members[v]) <= set(members[r]))
            assert all(lr[u] == r for u in members[r])
            assert all(root_of[v] == r for v in f.tree(r))
        assert all(f.size[v] == len(members[v]) for v in f.size)


def test_duplicate_edge_fails():
    pe = SignedEdges([(0, 1, 1), (2, 2, -1)])
    with pytest.raises(AssertionError, match="duplicate edge"):
        pe.add(1, 0, -1)
    with pytest.raises(AssertionError, match="duplicate edge"):
        SignedEdges([(3, 3, 1), (3, 3, 1)])


def test_adjacency_follows_adds_and_removes():
    pe = SignedEdges([(5, 1, 1), (1, 1, -1), (1, 7, -1)])
    assert pe == {(1, 5): 1, (1, 1): -1, (1, 7): -1}
    assert pe.incident(1) == {5: 1, 1: -1, 7: -1} and pe.incident(5) == {1: 1}
    pe.remove(1, 1)
    pe.remove(7, 1)
    assert pe.triples() == [(1, 5, 1)]
    assert pe.incident(1) == {5: 1} and pe.incident(7) == {} and pe.incident(9) == {}
