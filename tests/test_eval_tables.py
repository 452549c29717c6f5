"""Table-harness tests at tiny scale: schema, coverage, and the paper's
qualitative shapes (Table III monotonicity, Table IV/V trends)."""
import pandas as pd
import pytest

from repro.eval import tables
from repro.eval.harness import format_table, run_method
from repro.graphs import generators as gen


FAST = dict(scale="test", T=3, engine="local")


class TestRunMethod:
    def test_slugger_record_shape(self):
        edges = gen.caveman_cliques(36, clique_size=6, seed=0)
        rec = run_method(None, "slugger", edges, 36, T=2)
        assert {"method", "relative_size", "elapsed_s", "frac_p"} <= set(rec)
        assert 0 < rec["relative_size"] <= 1.5

    def test_oot_record(self):
        edges = gen.caveman_cliques(36, clique_size=6, seed=0)
        rec = run_method(None, "randomized", edges, 36, time_limit_s=0.0)
        assert rec["relative_size"] is None

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            run_method(None, "nope", gen.clique(4), 4)


class TestTables:
    def test_fig5_covers_grid(self):
        df = tables.fig5_compactness(
            None, names=["ppi_like"], methods=["slugger", "sags"], **FAST
        )
        assert set(df["method"]) == {"slugger", "sags"}
        assert len(df) == 2
        assert df["relative_size"].notna().all()

    def test_table3_monotone_trend(self):
        df = tables.table3_iterations(
            None, names=["ppi_like"], Ts=(1, 4), scale="test", engine="local"
        )
        by_t = df.set_index("T")["relative_size"]
        assert by_t[4] <= by_t[1] + 0.03

    def test_table4_stage_columns(self):
        df = tables.table4_pruning(None, names=["ppi_like"], **FAST)
        assert sorted(df["stage"]) == [0, 1, 2, 3]
        rel = df.set_index("stage")["relative_size"]
        assert rel[3] <= rel[0] + 1e-9

    def test_table5_height_grid(self):
        df = tables.table5_height(
            None, names=["ppi_like"], hbs=(2, 0), **FAST
        )
        assert set(df["hb"]) == {2, "inf"}
        piv = df.set_index("hb")
        assert piv.loc["inf", "relative_size"] <= piv.loc[2, "relative_size"] + 0.03

    def test_fig6_fractions(self):
        df = tables.fig6_composition(None, names=["collab_cliques"], **FAST)
        row = df.iloc[0]
        assert abs(row["frac_p"] + row["frac_n"] + row["frac_h"] - 1.0) < 1e-9

    def test_scalability_linear_fit(self):
        df = tables.scalability(
            None, base_n=300, fracs=(0.5, 1.0), T=2, engine="local"
        )
        assert (df["m"].diff().dropna() > 0).all()
        assert "slope_s_per_edge" in df.attrs


class TestFormatting:
    def test_format_table_handles_none(self):
        df = pd.DataFrame({"a": [1.0, None], "b": ["x", None]})
        out = format_table(df)
        assert "—" in out
