"""Pruning tests: each substep in isolation, losslessness, Table-IV
statistics behaviour, and Step 3 against a pure-Python reference."""
import functools
from collections import defaultdict

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pruning import prune, step1, step2, step3
from repro.core.slugger import slugger
from repro.graphs import generators as gen
from repro.model.cost import cost, metrics
from repro.model.decode import assert_lossless_pd, decode_pd
from repro.model.flat import pair_cost
from repro.model.summary import Forest, HierSummary, SignedEdges, canon
from tests.test_slugger import digest


def state(s):
    """The forest and edge store that the pruning steps edit."""
    return Forest.from_summary(s), SignedEdges(zip(*(s.pedges[c].tolist() for c in ("x", "y", "sign"))))


def summary_of(nodes, hedges, pedges, n_sub):
    return HierSummary(
        n_sub=n_sub,
        nodes=pd.DataFrame(nodes, columns=["nid", "size"]).astype(np.int64),
        hedges=pd.DataFrame(hedges, columns=["parent", "child"]).astype(np.int64),
        pedges=pd.DataFrame(pedges, columns=["x", "y", "sign"]).astype(np.int64),
    )


def reference_step3(f: Forest, pe: SignedEdges, edges: pd.DataFrame) -> int:
    """Step 3 that groups every subedge and p/n-edge by root pair in
    Python, decides each pair by ``pair_cost`` and lists a superedge's
    n-edges from the two trees' leaves; kept verbatim as the reference for
    the table-based step."""
    root_of = f.root_of()
    # subedges and current p/n-edges per root pair
    sub_by_pair: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for u, v in zip(edges["src"].tolist(), edges["dst"].tolist()):
        sub_by_pair[canon(root_of[u], root_of[v])].append((u, v))
    pcnt: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for x, y in pe:
        pcnt[canon(root_of[x], root_of[y])].append((x, y))
    rewrites = 0
    leaves = functools.cache(f.leaves)
    for a, b in sorted(set(pcnt) | set(sub_by_pair)):
        sub_pairs = sub_by_pair.get((a, b), [])
        cur = pcnt.get((a, b), [])
        flat = pair_cost(len(sub_pairs), f.size[a], f.size[b], a == b)
        if flat >= len(cur):
            continue
        # remove current encoding between the two trees
        for x, y in cur:
            pe.remove(x, y)
        if flat == len(sub_pairs):  # one p-edge per subedge (wins a tie)
            for u, v in sub_pairs:
                pe.add(u, v, 1)
        else:  # a superedge, with an n-edge per missing subedge
            pe.add(a, b, 1)
            have = {canon(u, v) for u, v in sub_pairs}
            la = leaves(a)
            for i, u in enumerate(la):
                for v in la[i + 1 :] if a == b else leaves(b):
                    key = canon(u, v)
                    if key not in have:
                        pe.add(*key, -1)
        rewrites += 1
    return rewrites


class TestStep1:
    def test_removes_edgeless_internal(self):
        # chain 12 -> 10 -> {0,1}; 10 has no incident edges -> spliced out
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (10, 2), (12, 3)],
            [(10, 0), (10, 1), (12, 10), (12, 2)],
            [(12, 12, 1)],
            3,
        )
        f, pe = state(s)
        assert step1(f, pe) == 1
        out = f.to_summary(pe.triples())
        assert 10 not in set(out.nodes["nid"])
        assert sorted(Forest.from_summary(out).children[12]) == [0, 1, 2]
        assert_lossless_pd(out, decode_pd(s))

    def test_removes_edgeless_root_promoting_children(self):
        s = summary_of(
            [(0, 1), (1, 1), (10, 2)],
            [(10, 0), (10, 1)],
            [(0, 1, 1)],
            2,
        )
        f, pe = state(s)
        assert step1(f, pe) == 1
        out = f.to_summary(pe.triples())
        assert sorted(Forest.from_summary(out).roots()) == [0, 1]

    def test_keeps_nodes_with_edges(self):
        s = summary_of(
            [(0, 1), (1, 1), (10, 2)],
            [(10, 0), (10, 1)],
            [(10, 10, 1)],
            2,
        )
        f, pe = state(s)
        assert step1(f, pe) == 0

    def test_cascades_whole_chain(self):
        s = summary_of(
            [(0, 1), (1, 1), (10, 2), (11, 2)],
            [(10, 0), (10, 1), (11, 10)],
            [(0, 1, 1)],
            2,
        )
        f, pe = state(s)
        assert step1(f, pe) == 2
        assert sorted(f.roots()) == [0, 1]


class TestStep2:
    def test_single_edge_root_spliced(self):
        # root 10={0,1} with single p-edge to 2 -> children inherit it
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (10, 2)],
            [(10, 0), (10, 1)],
            [(2, 10, 1)],
            3,
        )
        before = decode_pd(s)
        f, pe = state(s)
        assert step2(f, pe) == 1
        out = f.to_summary(pe.triples())
        assert 10 not in set(out.nodes["nid"])
        assert len(out.pedges) == 2  # (0,2),(1,2)
        assert_lossless_pd(out, before)

    def test_opposite_sign_child_edge_cancels(self):
        # p(10,2) with existing n(1,2): removing 10 cancels instead of adding
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (10, 2)],
            [(10, 0), (10, 1)],
            [(2, 10, 1), (1, 2, -1)],
            3,
        )
        before = decode_pd(s)
        f, pe = state(s)
        assert step2(f, pe) == 1
        out = f.to_summary(pe.triples())
        assert len(out.pedges) == 1  # just (0,2,+)
        assert_lossless_pd(out, before)

    def test_skips_roots_with_two_edges(self):
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (3, 1), (10, 2)],
            [(10, 0), (10, 1)],
            [(2, 10, 1), (3, 10, 1)],
            4,
        )
        f, pe = state(s)
        assert step2(f, pe) == 0

    def test_skips_loop_only_root(self):
        s = summary_of(
            [(0, 1), (1, 1), (10, 2)],
            [(10, 0), (10, 1)],
            [(10, 10, 1)],
            2,
        )
        f, pe = state(s)
        assert step2(f, pe) == 0

    def test_cost_strictly_decreases(self):
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (10, 2)],
            [(10, 0), (10, 1)],
            [(2, 10, 1)],
            3,
        )
        before = cost(s)
        f, pe = state(s)
        step2(f, pe)
        assert cost(f.to_summary(pe.triples())) < before


class TestStep3:
    def test_flat_beats_hierarchical_leftovers(self):
        # sparse pair encoded with root-level machinery gets flattened
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (3, 1), (10, 2), (11, 2)],
            [(10, 0), (10, 1), (11, 2), (11, 3)],
            [(10, 11, 1), (1, 2, -1), (1, 3, -1), (0, 3, -1)],
            4,
        )
        edges = decode_pd(s)  # only (0, 2)
        f, pe = state(s)
        assert step3(f, pe, edges) >= 1
        out = f.to_summary(pe.triples())
        assert_lossless_pd(out, edges)
        assert cost(out) < cost(s)

    def test_dense_pair_kept_or_superedge(self):
        # complete bipartite already encoded optimally: nothing to gain
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (3, 1), (10, 2), (11, 2)],
            [(10, 0), (10, 1), (11, 2), (11, 3)],
            [(10, 11, 1)],
            4,
        )
        edges = decode_pd(s)
        f, pe = state(s)
        assert step3(f, pe, edges) == 0

    def test_self_pair_flattened(self):
        # supernode with one internal edge: p-loop + 5 n-edges is worse than
        # a single singleton-level p-edge
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (3, 1), (10, 4)],
            [(10, 0), (10, 1), (10, 2), (10, 3)],
            [(10, 10, 1), (0, 2, -1), (0, 3, -1), (1, 2, -1), (1, 3, -1), (2, 3, -1)],
            4,
        )
        edges = decode_pd(s)  # just (0,1)
        f, pe = state(s)
        assert step3(f, pe, edges) >= 1
        out = f.to_summary(pe.triples())
        assert_lossless_pd(out, edges)
        assert len(out.pedges) == 1

    def test_zero_subedge_pair_cleared(self):
        # stacked +/- edges netting to nothing are dropped outright
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (3, 1), (10, 2), (11, 2)],
            [(10, 0), (10, 1), (11, 2), (11, 3)],
            [(10, 11, 1), (0, 2, -1), (0, 3, -1), (1, 2, -1), (1, 3, -1)],
            4,
        )
        edges = decode_pd(s)
        assert len(edges) == 0
        f, pe = state(s)
        assert step3(f, pe, edges) >= 1
        assert len(f.to_summary(pe.triples()).pedges) == 0

    def test_tie_goes_to_corrections(self):
        # root 10 = {11 = {0, 1}, 2} with subedges (0, 1), (0, 2): a
        # superedge costs 1 + 3 - 2 = 2, as do two p-edges, so the three
        # current edges give way to the corrections, as in the reference
        s = summary_of(
            [(0, 1), (1, 1), (2, 1), (10, 3), (11, 2)],
            [(10, 11), (10, 2), (11, 0), (11, 1)],
            [(2, 11, 1), (1, 2, -1), (0, 1, 1)],
            3,
        )
        edges = decode_pd(s)
        f, pe = state(s)
        rf, rpe = state(s)
        assert step3(f, pe, edges) == reference_step3(rf, rpe, edges) == 1
        assert dict(pe) == dict(rpe) == {(0, 1): 1, (0, 2): 1}


class TestFullPrune:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lossless_end_to_end(self, seed):
        edges = gen.nested_partition(70, levels=2, branching=3, p_top=0.05, ratio=8, seed=seed)
        res = slugger(edges, 70, T=4, seed=seed, engine="local", do_prune=False)
        pruned = prune(res.summary, edges)
        assert_lossless_pd(pruned, edges)
        pruned.validate()

    def test_stages_monotone_cost(self):
        edges = gen.nested_partition(80, levels=2, branching=3, p_top=0.05, ratio=8, seed=1)
        res = slugger(edges, 80, T=5, seed=0, engine="local", do_prune=False)
        stages = prune(res.summary, edges, collect_stages=True)
        costs = [cost(s) for s in stages]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_stages_shrink_heights(self):
        edges = gen.nested_partition(90, levels=3, branching=3, p_top=0.03, ratio=8, seed=2)
        res = slugger(edges, 90, T=6, seed=0, engine="local", do_prune=False)
        stages = prune(res.summary, edges, collect_stages=True)
        ms = [metrics(s, len(edges)) for s in stages]
        assert ms[-1].max_height <= ms[0].max_height
        assert ms[-1].avg_leaf_depth <= ms[0].avg_leaf_depth + 1e-9

    def test_all_stages_lossless(self):
        edges = gen.caveman_cliques(48, clique_size=8, p_rewire=0.1, seed=0)
        res = slugger(edges, 48, T=4, seed=0, engine="local", do_prune=False)
        for s in prune(res.summary, edges, collect_stages=True):
            assert_lossless_pd(s, edges)

    def test_input_summary_unchanged(self):
        edges = gen.nested_partition(70, levels=2, branching=3, p_top=0.05, ratio=8, seed=0)
        s = slugger(edges, 70, T=4, seed=0, engine="local", do_prune=False).summary
        tables = ("nodes", "hedges", "pedges")
        before, want = {t: getattr(s, t).copy() for t in tables}, digest(s)
        assert digest(prune(s, edges)) != want  # pruning changed something
        assert digest(s) == want
        for table in tables:
            assert getattr(s, table).equals(before[table]), table

    def test_idempotent(self):
        edges = gen.nested_partition(60, levels=2, branching=3, p_top=0.05, ratio=8, seed=3)
        res = slugger(edges, 60, T=4, seed=0, engine="local")
        again = prune(res.summary, edges)
        assert cost(again) == cost(res.summary)


@given(seed=st.integers(0, 2**20), n=st.integers(12, 60), levels=st.integers(1, 3),
       T=st.integers(1, 6), hb=st.sampled_from([0, 2]), after_steps_12=st.booleans())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_step3_equals_reference(seed, n, levels, T, hb, after_steps_12):
    # unpruned SLUGGER output on a random nested graph, optionally after
    # Steps 1-2 (which leave pairs where the flat encoding wins)
    edges = gen.nested_partition(n, levels=levels, branching=3, p_top=0.05, ratio=8, seed=seed)
    s = slugger(edges, n, T=T, seed=seed, hb=hb, engine="local", do_prune=False).summary
    if after_steps_12:
        f, pe = state(s)
        step1(f, pe)
        step2(f, pe)
        s = f.to_summary(pe.triples())
    f, pe = state(s)
    rf, rpe = state(s)
    assert step3(f, pe, edges) == reference_step3(rf, rpe, edges)
    assert dict(pe) == dict(rpe)
