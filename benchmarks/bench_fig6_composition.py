"""Fig. 6 benchmark: composition of SLUGGER outputs (p/n/h proportions)."""
import pytest

from repro.eval.tables import fig6_composition

from benchmarks._util import persist, run_once


@pytest.mark.benchmark(group="fig6")
def test_fig6_composition(benchmark):
    df = run_once(
        benchmark,
        lambda: fig6_composition(scale="bench", T=20, seed=0, engine="local"),
    )
    persist(df, "fig6_composition")
    assert ((df[["frac_p", "frac_n", "frac_h"]].sum(axis=1) - 1).abs() < 1e-9).all()
    # the paper: n-edges are a small minority on almost all datasets
    assert (df["frac_n"] < 0.25).all()
