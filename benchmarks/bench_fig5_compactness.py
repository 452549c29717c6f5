"""Fig. 5 benchmark: all 5 methods x 6 dataset analogues at bench scale.

Reproduces the headline claim: SLUGGER most concise everywhere, SWEG
second, SAGS fastest but least concise, RANDOMIZED/MOSSO slow (a run over
its method's fixed work budget is OOT and surfaces as a missing value, as
in the paper's missing bars; the budget counts work, not seconds, so the
OOT set does not depend on the host).
"""
import pytest

from repro.eval.tables import fig5_compactness

from benchmarks._util import persist, run_once


@pytest.mark.benchmark(group="fig5")
def test_fig5_compactness(benchmark):
    df = run_once(
        benchmark,
        lambda: fig5_compactness(scale="bench", T=20, seed=0, engine="local"),
    )
    persist(df, "fig5_compactness")
    # the paper's ordering on every dataset where both finished
    piv = df.pivot(index="dataset", columns="method", values="relative_size")
    assert (piv["slugger"] <= piv["sweg"] + 0.02).all()
