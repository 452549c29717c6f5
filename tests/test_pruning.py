"""Pruning tests: each substep in isolation, losslessness, Table-IV
statistics behaviour."""
import numpy as np
import pandas as pd
import pytest

from repro.core.pruning import prune, step1, step2, step3
from repro.core.slugger import slugger
from repro.graphs import generators as gen
from repro.model.cost import cost, metrics
from repro.model.decode import assert_lossless_pd, decode_pd
from repro.model.summary import Forest, HierSummary, SignedEdges
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
