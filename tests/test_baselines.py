"""Baseline summarizer tests: losslessness, evaluated behaviour shape,
pinned output, argument checks. Every baseline returns a height-1
``HierSummary``, so the summary model's own validate, metrics, decoders
and digest serve them as they serve SLUGGER."""
import pandas as pd
import pytest

from repro.baselines import sags as sags_module
from repro.baselines.mosso import mosso
from repro.baselines.randomized import randomized
from repro.baselines.sags import sags
from repro.baselines.sweg import sweg
from repro.graphs import datasets
from repro.graphs import generators as gen
from repro.graphs.generators import n_nodes
from repro.graphs.ops import adjacency_dict
from repro.model.cost import metrics
from repro.model.decode import assert_lossless_pd, decode
from repro.model.neighbors import NeighborIndex
from repro.model.summary import Forest
from repro.oracle import assert_equivalent
from tests.test_slugger import digest


def _lossless(summary, edges):
    summary.validate()
    assert_lossless_pd(summary, edges)


def n_supernodes(summary) -> int:
    """Roots of the summary: the partition's supernodes."""
    return len(Forest.from_summary(summary).roots())


GRAPHS = [
    ("clique", lambda: (gen.clique(8), 8)),
    ("caveman", lambda: (gen.caveman_cliques(36, clique_size=6, p_rewire=0.1, seed=1), 36)),
    ("nested", lambda: (gen.nested_partition(50, levels=2, branching=3, p_top=0.06, ratio=7, seed=2), 50)),
    ("er", lambda: (gen.er(40, 4.0, seed=3), 40)),
]


class TestSweg:
    @pytest.mark.parametrize("name,make", GRAPHS, ids=[n for n, _ in GRAPHS])
    def test_lossless(self, name, make):
        edges, n = make()
        res = sweg(edges, n, T=3, seed=0, engine="local")
        _lossless(res.summary, edges)

    def test_deterministic(self):
        edges, n = gen.caveman_cliques(30, clique_size=6, seed=0), 30
        r1 = sweg(edges, n, T=2, seed=5, engine="local")
        r2 = sweg(edges, n, T=2, seed=5, engine="local")
        assert digest(r1.summary) == digest(r2.summary)

    def test_spark_engine_equals_local(self, spark):
        edges, n = gen.caveman_cliques(30, clique_size=6, seed=1), 30
        rl = sweg(edges, n, T=2, seed=0, engine="local")
        rs = sweg(edges, n, T=2, seed=0, engine="spark", spark=spark)
        assert digest(rl.summary) == digest(rs.summary)

    @pytest.mark.parametrize("engine", ["local", "spark"])
    def test_golden_collab_cliques_t5(self, request, engine):
        # byte-identical output pinned for a fixed input and seed
        spark = request.getfixturevalue("spark") if engine == "spark" else None
        edges = datasets.load("collab_cliques", scale="test", seed=0)
        res = sweg(edges, n_nodes(edges), T=5, seed=0, engine=engine, spark=spark)
        assert digest(res.summary) == (
            "1ce9d86ce749faf3bb18eb809d9884d75bce619fb36653f780ea4c125695eed0")

    def test_unknown_engine(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        with pytest.raises(ValueError, match="engine must be 'local' or 'spark'"):
            sweg(edges, 2, T=2, engine="sprak")

    def test_spark_engine_without_session(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        with pytest.raises(ValueError, match="needs a SparkSession"):
            sweg(edges, 2, T=2, engine="spark")

    def test_negative_iterations(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        with pytest.raises(ValueError, match="T must be >= 0"):
            sweg(edges, 2, T=-1, engine="local")

    def test_compresses_cliques(self):
        edges, n = gen.caveman_cliques(36, clique_size=6, p_rewire=0.0, seed=0), 36
        res = sweg(edges, n, T=4, seed=0, engine="local")
        assert metrics(res.summary, len(edges)).relative_size < 0.7

    def test_own_objective_never_exceeds_identity(self):
        # SWeG's objective excludes the membership cost |H*| (Eq. 11 adds
        # it when the SLUGGER paper re-measures baselines), so the invariant
        # it maintains is |P| + |C+| + |C−| <= |E|: superedges and C+ are
        # the summary's p-edges, C− its n-edges.
        edges, n = gen.path(12), 12
        res = sweg(edges, n, T=3, seed=0, engine="local")
        assert len(res.summary.pedges) <= len(edges)
        _lossless(res.summary, edges)


class TestSags:
    @pytest.mark.parametrize("dataset,want", [
        ("collab_cliques", "1d3c9c7fe8dbd7d8b1d7cd99e8299145e630b40df2c920f2475fa6f8fc283f75"),
        ("ppi_like", "b5eb902b7d4804caa8c4a7384d5d8e53210e5611dd8940e6cc29f3b0f0610733"),
    ], ids=["collab_cliques", "ppi_like"])
    def test_golden(self, dataset, want):
        edges = datasets.load(dataset, scale="test", seed=0)
        assert digest(sags(edges, n_nodes(edges), seed=0).summary) == want

    @pytest.mark.parametrize("name,make", GRAPHS[:3], ids=[n for n, _ in GRAPHS[:3]])
    def test_lossless(self, name, make):
        edges, n = make()
        res = sags(edges, n, seed=0)
        _lossless(res.summary, edges)

    def test_deterministic(self):
        edges, n = gen.clique(10), 10
        r1 = sags(edges, n, seed=4)
        r2 = sags(edges, n, seed=4)
        assert digest(r1.summary) == digest(r2.summary)

    def test_merges_identical_neighborhood_nodes(self, monkeypatch):
        # a clique gives every node the same signature; P=1 forces merging
        monkeypatch.setattr(sags_module, "P", 1.0)
        edges, n = gen.clique(10), 10
        res = sags(edges, n, seed=0)
        assert n_supernodes(res.summary) < 10


class TestRandomized:
    @pytest.mark.parametrize("dataset,want", [
        ("collab_cliques", "24e4110b1e1d85e8523f947a71527523c338d68f1641496af0a5143228399060"),
        ("ppi_like", "d0e79ac53f19a403e800cc1171a6fbc655998ac84f4119df0894dea892544c3f"),
    ], ids=["collab_cliques", "ppi_like"])
    def test_golden(self, dataset, want):
        edges = datasets.load(dataset, scale="test", seed=0)
        assert digest(randomized(edges, n_nodes(edges), seed=0).summary) == want

    @pytest.mark.parametrize("name,make", GRAPHS[:3], ids=[n for n, _ in GRAPHS[:3]])
    def test_lossless(self, name, make):
        edges, n = make()
        res = randomized(edges, n, seed=0)
        assert res.summary is not None
        _lossless(res.summary, edges)

    def test_compresses_cliques_well(self):
        edges, n = gen.caveman_cliques(36, clique_size=6, p_rewire=0.0, seed=0), 36
        res = randomized(edges, n, seed=0)
        assert metrics(res.summary, len(edges)).relative_size < 0.7

    def test_oot_returns_none(self):
        edges, n = gen.caveman_cliques(60, clique_size=6, seed=0), 60
        res = randomized(edges, n, seed=0, time_limit_s=0.0)
        assert res.summary is None


class TestMosso:
    @pytest.mark.parametrize("dataset,want", [
        ("collab_cliques", "7f95e66b3fc1e9c35571ee345e003b83db6ce5265d87fff9527374eae3360e5a"),
        ("ppi_like", "fe34d6f55248083010c6379f9699a9bea784080c274b484fe2aa5db2f999f225"),
    ], ids=["collab_cliques", "ppi_like"])
    def test_golden(self, dataset, want):
        edges = datasets.load(dataset, scale="test", seed=0)
        assert digest(mosso(edges, n_nodes(edges), seed=0).summary) == want

    @pytest.mark.parametrize("name,make", GRAPHS[:2], ids=[n for n, _ in GRAPHS[:2]])
    def test_lossless(self, name, make):
        edges, n = make()
        res = mosso(edges, n, seed=0)
        assert res.summary is not None
        _lossless(res.summary, edges)

    def test_oot_returns_none(self):
        edges, n = gen.er(60, 5.0, seed=0), 60
        res = mosso(edges, n, seed=0, time_limit_s=0.0)
        assert res.summary is None

    def test_groups_clique_nodes(self):
        edges, n = gen.clique(10), 10
        res = mosso(edges, n, seed=1)
        assert n_supernodes(res.summary) < 10


class TestOrdering:
    """The paper's headline shape: SLUGGER most concise, SAGS least."""

    def test_slugger_beats_sweg_beats_sags_on_hierarchical(self):
        from repro.core.slugger import slugger

        edges = gen.nested_partition(90, levels=2, branching=3, p_top=0.05, ratio=9, seed=0)
        n = 90
        sl = slugger(edges, n, T=6, seed=0, engine="local")
        rel_sl = metrics(sl.summary, len(edges)).relative_size
        sw = sweg(edges, n, T=6, seed=0, engine="local")
        rel_sw = metrics(sw.summary, len(edges)).relative_size
        sa = sags(edges, n, seed=0)
        rel_sa = metrics(sa.summary, len(edges)).relative_size
        assert rel_sl <= rel_sw + 0.02
        assert rel_sw <= rel_sa + 0.02


@pytest.mark.parametrize("run", [lambda e, n: sweg(e, n, T=5, seed=0),
                                 lambda e, n: sags(e, n, seed=0)], ids=["sweg", "sags"])
def test_spark_decode_and_neighbors_give_back_input(spark, run):
    # the hierarchical readers serve a height-1 summary: the Spark decode
    # matches DuckDB's copy of the input, and Algorithm 4 every adjacency
    edges = datasets.load("collab_cliques", scale="test", seed=0)
    n = n_nodes(edges)
    summary = run(edges, n).summary
    assert len(summary.hedges) and (summary.pedges["sign"] == -1).any()
    assert_equivalent(decode(spark, summary),
                      "SELECT least(src, dst) AS src, greatest(src, dst) AS dst FROM e", e=edges)
    idx, adj = NeighborIndex(summary), adjacency_dict(edges)
    assert [idx.neighbors(v) for v in range(n)] == [sorted(adj.get(v, ())) for v in range(n)]


@pytest.mark.parametrize("run", [sweg, sags, randomized, mosso],
                         ids=["sweg", "sags", "randomized", "mosso"])
@pytest.mark.parametrize("src,dst,match", [
    ([0, 2], [1, 2], "self-loop"),
    ([0, 1, 1], [1, 2, 0], "duplicate edge"),
    ([0, 1], [1, 3], "must lie in"),
    ([0.0, 0.5], [1.0, 2.0], "integer dtype"),
], ids=["self_loop", "duplicate", "out_of_range", "float_ids"])
def test_malformed_edges_rejected(run, src, dst, match):
    with pytest.raises(ValueError, match=match):
        run(pd.DataFrame({"src": src, "dst": dst}), 3)
