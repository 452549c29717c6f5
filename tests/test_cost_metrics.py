"""Cost/metric tests (Eq. 1, Eq. 10, hierarchy statistics) with DuckDB
cross-checks of the aggregation arithmetic."""
import pandas as pd

from repro.graphs import generators as gen
from repro.model.cost import cost, depths, metrics
from repro.model.summary import HierSummary
from repro.oracle import assert_equivalent
from tests.test_decode import hier_example


class TestCost:
    def test_identity_cost_is_m(self):
        e = gen.er(50, 4.0, seed=0)
        s = HierSummary.identity(e, 50)
        assert cost(s) == len(e)

    def test_eq1_counts_all_three_sets(self):
        s, _ = hier_example()
        assert cost(s) == 3 + 6  # 3 p/n-edges + 6 h-edges

    def test_relative_size_eq10(self):
        s, want = hier_example()
        m = metrics(s, len(want))
        assert abs(m.relative_size - 9 / 8) < 1e-12

    def test_counts_split_by_sign(self):
        s, want = hier_example()
        m = metrics(s, len(want))
        assert (m.n_p_plus, m.n_p_minus, m.n_h) == (2, 1, 6)

    def test_composition_fractions_sum_to_one(self):
        s, want = hier_example()
        m = metrics(s, len(want))
        assert abs(m.frac_p + m.frac_n + m.frac_h - 1.0) < 1e-12

    def test_cost_matches_duckdb_count(self):
        s, _ = hier_example()
        assert_equivalent(
            pd.DataFrame({"c": [len(s.pedges) + len(s.hedges)]}),
            "SELECT (SELECT count(*) FROM pe) + (SELECT count(*) FROM he) AS c",
            pe=s.pedges,
            he=s.hedges,
        )


class TestHierarchyStats:
    def test_depths(self):
        s, _ = hier_example()
        d = depths(s)
        assert d[12] == 0 and d[10] == 1 and d[0] == 2 and d[5] == 0

    def test_max_height(self):
        s, want = hier_example()
        assert metrics(s, len(want)).max_height == 2

    def test_avg_leaf_depth_counts_free_singletons(self):
        s, want = hier_example()
        # leaves 0..3 at depth 2, leaves 4,5 at depth 0
        assert abs(metrics(s, len(want)).avg_leaf_depth - 8 / 6) < 1e-12

    def test_identity_has_flat_stats(self):
        e = gen.path(6)
        m = metrics(HierSummary.identity(e, 6), len(e))
        assert m.max_height == 0 and m.avg_leaf_depth == 0.0
