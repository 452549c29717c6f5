"""Table III benchmark: SLUGGER's relative size vs iteration count T."""
import pytest

from repro.eval.tables import table3_iterations

from benchmarks._util import persist, run_once

NAMES = ["ppi_like", "collab_cliques", "social_cl"]


@pytest.mark.benchmark(group="table3")
def test_table3_iterations(benchmark):
    df = run_once(
        benchmark,
        lambda: table3_iterations(
            scale="bench", names=NAMES, Ts=(1, 5, 10, 20, 40),
            seed=0, engine="local",
        ),
    )
    persist(df, "table3_iterations")
    for name in NAMES:
        sub = df[df["dataset"] == name].set_index("T")["relative_size"]
        assert sub[40] <= sub[1] + 0.02, name  # converging downward
