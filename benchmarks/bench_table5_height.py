"""Table V benchmark: the height-bound variant H_b."""
import pytest

from repro.eval.tables import table5_height

from benchmarks._util import persist, run_once

NAMES = ["ppi_like", "collab_cliques", "social_cl"]


@pytest.mark.benchmark(group="table5")
def test_table5_height(benchmark):
    df = run_once(
        benchmark,
        lambda: table5_height(
            scale="bench", names=NAMES, hbs=(2, 5, 7, 10, 0),
            T=20, seed=0, engine="local",
        ),
    )
    persist(df, "table5_height")
    for name in NAMES:
        sub = df[df["dataset"] == name].set_index("hb")
        # unbounded no less concise than the tightest bound (paper's trend)
        assert sub.loc["inf", "relative_size"] <= sub.loc[2, "relative_size"] + 0.02
