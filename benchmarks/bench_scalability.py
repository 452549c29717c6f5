"""Fig. 1(b) benchmark: near-linear runtime in |E| (node-sampled subgraphs)."""
import pytest

from repro.eval.tables import scalability

from benchmarks._util import persist, run_once


@pytest.mark.benchmark(group="scalability")
def test_scalability_linear(benchmark):
    df = run_once(
        benchmark,
        lambda: scalability(
            base_n=4000, fracs=(0.125, 0.25, 0.5, 1.0), T=5,
            seed=0, engine="local",
        ),
    )
    persist(df, "scalability")
    # runtime grows sublinearly-with-slack: 8x edges < 16x time
    t = df.sort_values("m")["elapsed_s"].to_numpy()
    m = df.sort_values("m")["m"].to_numpy()
    assert t[-1] / t[0] < 2.5 * (m[-1] / m[0])
