"""Baseline summarizer tests: losslessness, evaluated behaviour shape,
pinned SWEG output, argument checks."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.baselines.mosso import mosso
from repro.baselines.randomized import randomized
from repro.baselines.sags import sags
from repro.baselines.sweg import sweg
from repro.graphs import datasets
from repro.graphs import generators as gen
from repro.graphs.generators import n_nodes
from repro.model.flat import decode_flat_pd


def _lossless(fs, edges):
    got = decode_flat_pd(fs).sort_values(["src", "dst"]).reset_index(drop=True)
    want = edges.sort_values(["src", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def flat_digest(fs) -> str:
    """sha256 of the partition and the P, C+, C- tables, each sorted on all
    its columns."""
    h = hashlib.sha256(str(fs.n_sub).encode())
    h.update(np.ascontiguousarray(fs.group, dtype=np.int64).tobytes())
    for table, cols in (("p", ["x", "y"]), ("cp", ["src", "dst"]), ("cn", ["src", "dst"])):
        arr = getattr(fs, table).sort_values(cols)[cols].to_numpy(dtype=np.int64)
        h.update(",".join(cols).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


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
        _lossless(res.flat, edges)

    def test_deterministic(self):
        edges, n = gen.caveman_cliques(30, clique_size=6, seed=0), 30
        r1 = sweg(edges, n, T=2, seed=5, engine="local")
        r2 = sweg(edges, n, T=2, seed=5, engine="local")
        assert (r1.flat.group == r2.flat.group).all()

    def test_spark_engine_equals_local(self, spark):
        edges, n = gen.caveman_cliques(30, clique_size=6, seed=1), 30
        rl = sweg(edges, n, T=2, seed=0, engine="local")
        rs = sweg(edges, n, T=2, seed=0, engine="spark", spark=spark)
        assert (rl.flat.group == rs.flat.group).all()

    @pytest.mark.parametrize("engine", ["local", "spark"])
    def test_golden_collab_cliques_t5(self, request, engine):
        # byte-identical output pinned for a fixed input and seed
        spark = request.getfixturevalue("spark") if engine == "spark" else None
        edges = datasets.load("collab_cliques", scale="test", seed=0)
        res = sweg(edges, n_nodes(edges), T=5, seed=0, engine=engine, spark=spark)
        assert flat_digest(res.flat) == (
            "10042fab424c4bb89240a08c0b9a13cd3925ce2a36845c03ca8631590374cba9")

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
        assert res.flat.metrics(len(edges)).relative_size < 0.7

    def test_own_objective_never_exceeds_identity(self):
        # SWeG's objective excludes the membership cost |H*| (Eq. 11 adds
        # it when the SLUGGER paper re-measures baselines), so the invariant
        # it maintains is |P| + |C+| + |C−| <= |E|.
        edges, n = gen.path(12), 12
        res = sweg(edges, n, T=3, seed=0, engine="local")
        fs = res.flat
        assert len(fs.p) + len(fs.cp) + len(fs.cn) <= len(edges)
        _lossless(fs, edges)


class TestSags:
    @pytest.mark.parametrize("dataset,digest", [
        ("collab_cliques", "ae4ea9c0e0a04b73b03e2eb9976e287822954c4f797841e16f6bcf6b6a732b5b"),
        ("ppi_like", "8c203b213abe104fcdf93810a9fa7a73cbbca0e5769bd72192496ccba5e51411"),
    ], ids=["collab_cliques", "ppi_like"])
    def test_golden(self, dataset, digest):
        edges = datasets.load(dataset, scale="test", seed=0)
        assert flat_digest(sags(edges, n_nodes(edges), seed=0).flat) == digest

    @pytest.mark.parametrize("name,make", GRAPHS[:3], ids=[n for n, _ in GRAPHS[:3]])
    def test_lossless(self, name, make):
        edges, n = make()
        res = sags(edges, n, seed=0)
        _lossless(res.flat, edges)

    def test_deterministic(self):
        edges, n = gen.clique(10), 10
        r1 = sags(edges, n, seed=4)
        r2 = sags(edges, n, seed=4)
        assert (r1.flat.group == r2.flat.group).all()

    def test_merges_identical_neighborhood_nodes(self):
        # a clique gives every node the same signature; p=1 forces merging
        edges, n = gen.clique(10), 10
        res = sags(edges, n, p=1.0, seed=0)
        assert len(set(res.flat.group)) < 10


class TestRandomized:
    @pytest.mark.parametrize("dataset,digest", [
        ("collab_cliques", "f73a6dc1eb511dfb7766366a73b18b0ed6d7c08a9921132dfaee181d5531ecda"),
        ("ppi_like", "19371acb09556d1ebeb8c0acedf4929ed059e4cbc880da2a38500c4aeb308c42"),
    ], ids=["collab_cliques", "ppi_like"])
    def test_golden(self, dataset, digest):
        edges = datasets.load(dataset, scale="test", seed=0)
        assert flat_digest(randomized(edges, n_nodes(edges), seed=0).flat) == digest

    @pytest.mark.parametrize("name,make", GRAPHS[:3], ids=[n for n, _ in GRAPHS[:3]])
    def test_lossless(self, name, make):
        edges, n = make()
        res = randomized(edges, n, seed=0)
        assert res.flat is not None
        _lossless(res.flat, edges)

    def test_compresses_cliques_well(self):
        edges, n = gen.caveman_cliques(36, clique_size=6, p_rewire=0.0, seed=0), 36
        res = randomized(edges, n, seed=0)
        assert res.flat.metrics(len(edges)).relative_size < 0.7

    def test_oot_returns_none(self):
        edges, n = gen.caveman_cliques(60, clique_size=6, seed=0), 60
        res = randomized(edges, n, seed=0, time_limit_s=0.0)
        assert res.flat is None


class TestMosso:
    @pytest.mark.parametrize("dataset,digest", [
        ("collab_cliques", "8498f2d82efdfdc1bdb4dfddb922cb03aa98b4101ebfab537850772fa8c60b06"),
        ("ppi_like", "720016aa200062b48592a5c5ee3a2f08707ce0fdfbf3a2223a62e9312f563de3"),
    ], ids=["collab_cliques", "ppi_like"])
    def test_golden(self, dataset, digest):
        edges = datasets.load(dataset, scale="test", seed=0)
        assert flat_digest(mosso(edges, n_nodes(edges), seed=0).flat) == digest

    @pytest.mark.parametrize("name,make", GRAPHS[:2], ids=[n for n, _ in GRAPHS[:2]])
    def test_lossless(self, name, make):
        edges, n = make()
        res = mosso(edges, n, seed=0)
        assert res.flat is not None
        _lossless(res.flat, edges)

    def test_oot_returns_none(self):
        edges, n = gen.er(60, 5.0, seed=0), 60
        res = mosso(edges, n, seed=0, time_limit_s=0.0)
        assert res.flat is None

    def test_groups_clique_nodes(self):
        edges, n = gen.clique(10), 10
        res = mosso(edges, n, seed=1)
        assert len(set(res.flat.group)) < 10


class TestOrdering:
    """The paper's headline shape: SLUGGER most concise, SAGS least."""

    def test_slugger_beats_sweg_beats_sags_on_hierarchical(self):
        from repro.core.slugger import slugger
        from repro.model.cost import metrics

        edges = gen.nested_partition(90, levels=2, branching=3, p_top=0.05, ratio=9, seed=0)
        n = 90
        sl = slugger(edges, n, T=6, seed=0, engine="local")
        rel_sl = metrics(sl.summary, len(edges)).relative_size
        sw = sweg(edges, n, T=6, seed=0, engine="local")
        rel_sw = sw.flat.metrics(len(edges)).relative_size
        sa = sags(edges, n, seed=0)
        rel_sa = sa.flat.metrics(len(edges)).relative_size
        assert rel_sl <= rel_sw + 0.02
        assert rel_sw <= rel_sa + 0.02


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
