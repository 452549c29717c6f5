"""End-to-end SLUGGER tests: losslessness on every graph family, engine
equivalence, pinned output digests, threshold/iteration behaviour, height
bounds, argument checks."""
import hashlib
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.core import groupmerge, localenc
from repro.core.slugger import slugger
from repro.graphs import datasets
from repro.graphs import generators as gen
from repro.graphs.generators import n_nodes
from repro.model.cost import cost, metrics
from repro.model.decode import assert_lossless_pd

GRAPHS = [
    ("star", lambda: (gen.star(15), 15)),
    ("clique", lambda: (gen.clique(9), 9)),
    ("path", lambda: (gen.path(12), 12)),
    ("multipartite", lambda: (gen.complete_multipartite(4, 4), 16)),
    ("er", lambda: (gen.er(50, 4.0, seed=1), 50)),
    ("chung_lu", lambda: (gen.chung_lu(80, 5.0, seed=2), 80)),
    ("nested", lambda: (gen.nested_partition(70, levels=2, branching=3, p_top=0.05, ratio=8, seed=3), 70)),
    ("caveman", lambda: (gen.caveman_cliques(48, clique_size=8, p_rewire=0.1, seed=4), 48)),
    ("hub", lambda: (gen.hub_spokes(80, n_hubs=5, seed=5), 80)),
]

NESTED = dict(n=60, levels=2, branching=3, p_top=0.05, ratio=8, seed=2)


def digest(summary) -> str:
    """sha256 of the summary tables, each sorted on all its columns (the
    same digest the benchmark prints)."""
    h = hashlib.sha256(str(summary.n_sub).encode())
    for table, cols in (("nodes", ["nid", "size"]), ("hedges", ["parent", "child"]),
                        ("pedges", ["x", "y", "sign"])):
        arr = getattr(summary, table).sort_values(cols)[cols].to_numpy(dtype=np.int64)
        h.update(",".join(cols).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestGolden:
    """Byte-identical output pinned for fixed inputs and seeds: a change that
    only makes SLUGGER faster or simpler must leave these digests alone."""

    def test_collab_cliques_t5(self):
        edges = datasets.load("collab_cliques", scale="test", seed=0)
        res = slugger(edges, n_nodes(edges), T=5, seed=0, engine="local")
        assert digest(res.summary) == (
            "05ce3046e751e4d8d8cff92cfad5f60ad75dfa4bbc6d8a9e2c41143624763e1f")

    def test_nested_partition_t4(self):
        edges = gen.nested_partition(**NESTED)
        res = slugger(edges, NESTED["n"], T=4, seed=0, engine="local")
        assert digest(res.summary) == (
            "dc7f68b02ec7aac2b54e5e3cde3ee6081b184762477c4969ed1edceea2d8d6de")

    def test_ppi_like_t5(self):
        # dense groups: many Case-2 re-encodings per Saving call
        edges = datasets.load("ppi_like", scale="test", seed=0)
        res = slugger(edges, n_nodes(edges), T=5, seed=0, engine="local")
        assert digest(res.summary) == (
            "88c0427bb74475699b88f39a06517a1ea73edca5af89a1029264234192cdf892")

    def test_ppi_like_t5_control_flow(self, monkeypatch):
        # Algorithm 2 scores and merges the same pairs in every round:
        # per-round counts recorded before Saving read cached side scans;
        # round 1 cannot merge and is skipped (DESIGN.md §3.2), so it
        # makes no call
        calls = {"saving": Counter(), "merge": Counter()}
        for name in calls:
            def counted(self, *args, _orig=getattr(groupmerge.GroupWorker, name), _name=name):
                calls[_name][self.t] += 1
                return _orig(self, *args)
            monkeypatch.setattr(groupmerge.GroupWorker, name, counted)
        edges = datasets.load("ppi_like", scale="test", seed=0)
        slugger(edges, n_nodes(edges), T=5, seed=0, engine="local")
        assert calls["saving"] == {2: 1200, 3: 27, 4: 17, 5: 22}
        assert calls["merge"] == {2: 50, 4: 1, 5: 7}

    def test_ppi_like_t5_memo_entries(self):
        # Saving and merge put the same questions to the solver: solver and
        # effect table sizes recorded before Saving summed Case 2 per bucket
        # shape and the search gained its mass bound
        localenc.clear_memo()
        edges = datasets.load("ppi_like", scale="test", seed=0)
        slugger(edges, n_nodes(edges), T=5, seed=0, engine="local")
        assert (len(localenc._memo), len(localenc._effects)) == (123, 124)


def test_ppi_like_t5_scans_each_side_once(monkeypatch):
    # a merge patches the cached scans of the roots it touched, so no
    # worker ever scans the same (root, role) twice
    scans = Counter()
    scan = groupmerge.GroupWorker._scan

    def counted(self, root, role):
        scans[(self.t, self.gid, root, role)] += 1
        return scan(self, root, role)

    monkeypatch.setattr(groupmerge.GroupWorker, "_scan", counted)
    edges = datasets.load("ppi_like", scale="test", seed=0)
    slugger(edges, n_nodes(edges), T=5, seed=0, engine="local")
    assert len(scans) > 100
    assert max(scans.values()) == 1


class TestLossless:
    @pytest.mark.parametrize("name,make", GRAPHS, ids=[n for n, _ in GRAPHS])
    def test_lossless_pruned(self, name, make):
        edges, n = make()
        res = slugger(edges, n, T=4, seed=0, engine="local")
        assert_lossless_pd(res.summary, edges)
        res.summary.validate()

    @pytest.mark.parametrize("name,make", GRAPHS[:5], ids=[n for n, _ in GRAPHS[:5]])
    def test_lossless_unpruned(self, name, make):
        edges, n = make()
        res = slugger(edges, n, T=4, seed=0, engine="local", do_prune=False)
        assert_lossless_pd(res.summary, edges)
        res.summary.validate()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lossless_across_seeds(self, seed):
        edges = gen.nested_partition(60, levels=2, branching=3, p_top=0.06, ratio=7, seed=seed)
        res = slugger(edges, 60, T=5, seed=seed, engine="local")
        assert_lossless_pd(res.summary, edges)

    @pytest.mark.parametrize("name", datasets.DATASET_ORDER)
    def test_lossless_on_registry_test_scale(self, name):
        edges = datasets.load(name, scale="test", seed=0)
        n = n_nodes(edges)
        res = slugger(edges, n, T=3, seed=0, engine="local")
        assert_lossless_pd(res.summary, edges)


class TestEngines:
    def test_spark_equals_local(self, spark):
        edges = gen.nested_partition(**NESTED)
        rl = slugger(edges, NESTED["n"], T=4, seed=0, engine="local")
        rs = slugger(edges, NESTED["n"], T=4, seed=0, engine="spark", spark=spark)
        assert digest(rs.summary) == digest(rl.summary)
        pd.testing.assert_frame_equal(
            rl.summary.pedges.sort_values(["x", "y", "sign"]).reset_index(drop=True),
            rs.summary.pedges.sort_values(["x", "y", "sign"]).reset_index(drop=True),
        )
        pd.testing.assert_frame_equal(
            rl.summary.hedges.sort_values(["parent", "child"]).reset_index(drop=True),
            rs.summary.hedges.sort_values(["parent", "child"]).reset_index(drop=True),
        )

    def test_spark_lossless(self, spark):
        edges = gen.caveman_cliques(40, clique_size=8, p_rewire=0.1, seed=1)
        rs = slugger(edges, 40, T=3, seed=0, engine="spark", spark=spark)
        assert_lossless_pd(rs.summary, edges)


class TestBehaviour:
    def test_deterministic_in_seed(self):
        edges = gen.er(40, 4.0, seed=0)
        r1 = slugger(edges, 40, T=3, seed=7, engine="local")
        r2 = slugger(edges, 40, T=3, seed=7, engine="local")
        pd.testing.assert_frame_equal(r1.summary.pedges, r2.summary.pedges)

    def test_cost_never_exceeds_identity(self):
        # every admitted merge has Saving >= theta(t) >= 0 at worst
        for name, make in GRAPHS:
            edges, n = make()
            res = slugger(edges, n, T=4, seed=0, engine="local")
            assert cost(res.summary) <= len(edges) + 1, name

    def test_more_iterations_not_worse(self):
        edges = gen.nested_partition(80, levels=2, branching=3, p_top=0.05, ratio=8, seed=1)
        r1 = slugger(edges, 80, T=1, seed=0, engine="local")
        r8 = slugger(edges, 80, T=8, seed=0, engine="local")
        c1 = metrics(r1.summary, len(edges)).relative_size
        c8 = metrics(r8.summary, len(edges)).relative_size
        assert c8 <= c1 + 0.02  # small wiggle: randomized greedy

    def test_clique_collapses(self):
        edges = gen.clique(10)
        res = slugger(edges, 10, T=3, seed=0, engine="local")
        m = metrics(res.summary, len(edges))
        assert m.relative_size < 0.5
        assert m.n_p_plus <= 3

    def test_path_stays_identity(self):
        edges = gen.path(12)
        res = slugger(edges, 12, T=3, seed=0, engine="local")
        assert metrics(res.summary, len(edges)).relative_size == 1.0

    def test_multipartite_hierarchy_win(self):
        edges = gen.complete_multipartite(5, 4)
        res = slugger(edges, 20, T=5, seed=0, engine="local")
        m = metrics(res.summary, len(edges))
        assert m.relative_size < 0.35
        assert m.max_height >= 2  # genuinely hierarchical output

    def test_pruning_only_helps(self):
        edges = gen.nested_partition(70, levels=2, branching=3, p_top=0.05, ratio=8, seed=2)
        raw = slugger(edges, 70, T=5, seed=0, engine="local", do_prune=False)
        prn = slugger(edges, 70, T=5, seed=0, engine="local", do_prune=True)
        assert cost(prn.summary) <= cost(raw.summary)


class TestHeightBound:
    @pytest.mark.parametrize("hb", [1, 2, 5])
    def test_height_respected_and_lossless(self, hb):
        edges = gen.nested_partition(60, levels=2, branching=3, p_top=0.06, ratio=8, seed=1)
        res = slugger(edges, 60, T=4, seed=0, hb=hb, engine="local", do_prune=False)
        assert metrics(res.summary, len(edges)).max_height <= hb
        assert_lossless_pd(res.summary, edges)

    def test_tighter_bound_not_more_concise(self):
        edges = gen.nested_partition(80, levels=2, branching=3, p_top=0.05, ratio=9, seed=3)
        r2 = slugger(edges, 80, T=5, seed=0, hb=2, engine="local")
        rinf = slugger(edges, 80, T=5, seed=0, hb=0, engine="local")
        c2 = metrics(r2.summary, len(edges)).relative_size
        cinf = metrics(rinf.summary, len(edges)).relative_size
        assert cinf <= c2 + 0.03


class TestEdgeCases:
    def test_empty_graph(self):
        edges = gen.path(3).iloc[0:0]
        res = slugger(edges, 5, T=2, seed=0, engine="local")
        assert len(res.summary.pedges) == 0
        assert_lossless_pd(res.summary, edges)

    def test_single_edge(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        res = slugger(edges, 2, T=2, seed=0, engine="local")
        assert_lossless_pd(res.summary, edges)
        assert cost(res.summary) == 1

    def test_isolated_nodes_survive(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        res = slugger(edges, 6, T=2, seed=0, engine="local")
        assert res.summary.n_sub == 6
        res.summary.validate()


class TestArguments:
    """The supernode id layout (groupmerge.new_id) and the edge list are
    checked up front."""

    def test_too_many_iterations(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        with pytest.raises(ValueError, match="T must be < 128"):
            slugger(edges, 2, T=128, engine="local")

    def test_too_many_subnodes(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        with pytest.raises(ValueError, match="n_sub must be < 2"):
            slugger(edges, 1 << 24, T=2, engine="local")

    def test_self_loop(self):
        edges = pd.DataFrame({"src": [0, 2], "dst": [1, 2]})
        with pytest.raises(ValueError, match="self-loop on node 2"):
            slugger(edges, 3, T=2, engine="local")

    def test_duplicate_edge(self):
        edges = pd.DataFrame({"src": [0, 1, 0], "dst": [1, 2, 1]})
        with pytest.raises(ValueError, match="duplicate edge"):
            slugger(edges, 3, T=2, engine="local")

    def test_duplicate_edge_reversed(self):
        edges = pd.DataFrame({"src": [0, 1, 1], "dst": [1, 2, 0]})
        with pytest.raises(ValueError, match="duplicate edge"):
            slugger(edges, 3, T=2, engine="local")

    def test_negative_id(self):
        edges = pd.DataFrame({"src": [0, -1], "dst": [1, 2]})
        with pytest.raises(ValueError, match="must lie in"):
            slugger(edges, 3, T=2, engine="local")

    def test_id_not_below_n_sub(self):
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 3]})
        with pytest.raises(ValueError, match="must lie in"):
            slugger(edges, 3, T=2, engine="local")

    def test_unknown_engine(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        with pytest.raises(ValueError, match="engine must be 'local' or 'spark'"):
            slugger(edges, 2, T=2, engine="sprak")

    def test_spark_engine_without_session(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        with pytest.raises(ValueError, match="needs a SparkSession"):
            slugger(edges, 2, T=2, engine="spark", spark=None)

    def test_negative_iterations(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        with pytest.raises(ValueError, match="T must be >= 0"):
            slugger(edges, 2, T=-1, engine="local")

    def test_negative_height_bound(self):
        # a truthy hb < 0 would block every pair and return the identity
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        with pytest.raises(ValueError, match="hb must be >= 0"):
            slugger(edges, 2, T=2, hb=-1, engine="local")

    def test_zero_iterations_is_identity(self):
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        res = slugger(edges, 3, T=0, engine="local")
        assert len(res.summary.hedges) == 0
        assert_lossless_pd(res.summary, edges)

    def test_float_ids(self):
        edges = pd.DataFrame({"src": [0.0, 0.5], "dst": [1.0, 2.0]})
        with pytest.raises(ValueError, match="integer dtype"):
            slugger(edges, 3, T=2, engine="local")

    def test_reversed_orientation_accepted(self):
        edges = pd.DataFrame({"src": [1, 2, 2], "dst": [0, 1, 0]})
        res = slugger(edges, 3, T=2, engine="local")
        assert_lossless_pd(res.summary, pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 2]}))


class TestSolverBudget:
    """A solver that gives up keeps the old edges: conciseness may suffer,
    the summary stays lossless."""

    @pytest.fixture
    def tiny_budget(self, monkeypatch):
        localenc.clear_memo()  # a memo hit would bypass the budget
        monkeypatch.setattr(localenc, "NODE_BUDGET", 3)
        yield
        localenc.clear_memo()  # drop the budget-limited answers

    def test_exhausted_budget_stays_lossless(self, tiny_budget):
        edges = datasets.load("ppi_like", scale="test", seed=0)
        n = n_nodes(edges)
        res = slugger(edges, n, T=3, seed=0, engine="local")
        assert None in localenc._memo.values()  # some search ran out
        assert_lossless_pd(res.summary, edges)
        assert cost(res.summary) <= len(edges)
