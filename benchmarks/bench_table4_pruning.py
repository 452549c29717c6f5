"""Table IV benchmark: effectiveness of the three pruning substeps."""
import pytest

from repro.eval.tables import table4_pruning

from benchmarks._util import persist, run_once

NAMES = ["ppi_like", "web_hier", "collab_cliques", "social_cl"]


@pytest.mark.benchmark(group="table4")
def test_table4_pruning(benchmark):
    df = run_once(
        benchmark,
        lambda: table4_pruning(
            scale="bench", names=NAMES, T=20, seed=0, engine="local"
        ),
    )
    persist(df, "table4_pruning")
    for name in NAMES:
        sub = df[df["dataset"] == name].set_index("stage")
        assert sub.loc[3, "relative_size"] <= sub.loc[0, "relative_size"] + 1e-9
        assert sub.loc[3, "max_height"] <= sub.loc[0, "max_height"]
