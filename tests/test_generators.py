"""Generator substrate tests: canonical form, determinism, regime shape."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import datasets
from repro.graphs import generators as gen


def _assert_canonical(df: pd.DataFrame):
    assert list(df.columns) == ["src", "dst"]
    if len(df):
        assert (df["src"] < df["dst"]).all()
        assert not df.duplicated().any()
        assert df["src"].dtype == np.int64 and df["dst"].dtype == np.int64


ALL_GENS = [
    ("er", lambda s: gen.er(80, 5.0, seed=s)),
    ("chung_lu", lambda s: gen.chung_lu(120, 6.0, seed=s)),
    ("nested", lambda s: gen.nested_partition(80, levels=2, branching=3, p_top=0.04, ratio=6, seed=s)),
    ("caveman", lambda s: gen.caveman_cliques(60, clique_size=8, p_rewire=0.1, seed=s)),
    ("hub", lambda s: gen.hub_spokes(100, n_hubs=6, seed=s)),
]


class TestCanonicalForm:
    @pytest.mark.parametrize("name,f", ALL_GENS, ids=[n for n, _ in ALL_GENS])
    def test_canonical(self, name, f):
        _assert_canonical(f(0))

    @pytest.mark.parametrize("name,f", ALL_GENS, ids=[n for n, _ in ALL_GENS])
    def test_deterministic_in_seed(self, name, f):
        pd.testing.assert_frame_equal(f(3), f(3))

    @pytest.mark.parametrize("name,f", ALL_GENS, ids=[n for n, _ in ALL_GENS])
    def test_seed_changes_output(self, name, f):
        a, b = f(0), f(1)
        assert len(a) == 0 or not a.equals(b)

    def test_deterministic_structs(self):
        for f in (lambda: gen.star(9), lambda: gen.clique(6), lambda: gen.path(7),
                  lambda: gen.complete_multipartite(3, 3)):
            pd.testing.assert_frame_equal(f(), f())
            _assert_canonical(f())


class TestStructuredGraphs:
    def test_star_shape(self):
        df = gen.star(10)
        assert len(df) == 9
        assert (df["src"] == 0).all()

    def test_clique_count(self):
        assert len(gen.clique(7)) == 21

    def test_path_count(self):
        assert len(gen.path(11)) == 10

    def test_multipartite_counts(self):
        df = gen.complete_multipartite(4, 3)
        # complete on 12 nodes minus 4 disjoint triangles
        assert len(df) == 12 * 11 // 2 - 4 * 3
        part = df["src"].to_numpy() // 3, df["dst"].to_numpy() // 3
        assert (part[0] != part[1]).all()

    def test_n_nodes(self):
        assert gen.n_nodes(gen.clique(5)) == 5
        assert gen.n_nodes(gen.star(8)) == 8


class TestRegimeShape:
    def test_nested_partition_is_hierarchically_dense(self):
        # deeper blocks must be denser than the top level
        n = 120
        df = gen.nested_partition(n, levels=2, branching=3, p_top=0.02, ratio=8, seed=5)
        g = np.random.default_rng(5)
        labels = [np.zeros(n, dtype=np.int64)]
        for d in range(1, 3):
            labels.append(g.integers(0, 3, n) + labels[-1] * 3)
        lab = labels[2]
        src, dst = df["src"].to_numpy(), df["dst"].to_numpy()
        same_leaf = (lab[src] == lab[dst]).mean()
        assert same_leaf > 0.25  # strongly concentrated in deepest blocks

    def test_chung_lu_skew(self):
        df = gen.chung_lu(300, 8.0, seed=1)
        deg = np.zeros(300)
        np.add.at(deg, df["src"], 1)
        np.add.at(deg, df["dst"], 1)
        assert deg.max() > 6 * max(1.0, np.median(deg))

    def test_hub_spokes_hubs_dominate(self):
        df = gen.hub_spokes(200, n_hubs=5, extra_deg=0.2, seed=2)
        deg = np.zeros(200)
        np.add.at(deg, df["src"], 1)
        np.add.at(deg, df["dst"], 1)
        assert set(np.argsort(deg)[-3:]) <= set(range(5))

    def test_caveman_mostly_intra_clique(self):
        df = gen.caveman_cliques(64, clique_size=8, p_rewire=0.05, seed=3)
        assert len(df) > 150  # ~8 cliques x 28 edges


class TestDatasetRegistry:
    @pytest.mark.parametrize("name", datasets.DATASET_ORDER)
    def test_test_scale_loads(self, name):
        df = datasets.load(name, scale="test", seed=0)
        _assert_canonical(df)
        assert 50 <= len(df) <= 5000

    def test_bench_bigger_than_test(self):
        for name in datasets.DATASET_ORDER:
            small = datasets.load(name, scale="test", seed=0)
            big = datasets.load(name, scale="bench", seed=0)
            assert len(big) > 2 * len(small)

    def test_registry_records_paper_analogue(self):
        for name, spec in datasets.TEST.items():
            assert spec.paper_analogue

