"""Spark-dataflow benchmark: the Spark group-merge engine (one
``mapInPandas`` job per round over pickled per-group bundles, no shuffle)
on one bench dataset — the distributed path whose results are pinned
equal to the local engine by tests/test_slugger.py. The summary must
decode back to the input under the Spark ``decode``."""
import pytest

from repro.eval.harness import load_dataset
from repro.core.slugger import slugger
from repro.model.cost import metrics
from repro.model.decode import decode

from benchmarks._util import persist, run_once
import pandas as pd


@pytest.mark.benchmark(group="spark-engine")
def test_spark_engine_bench(benchmark, spark):
    edges, n = load_dataset("collab_cliques", "bench", 0)

    out = {}

    def run():
        res = out["res"] = slugger(edges, n, T=5, seed=0, engine="spark", spark=spark)
        m = metrics(res.summary, len(edges))
        return pd.DataFrame(
            [{"dataset": "collab_cliques", "engine": "spark", "T": 5,
              "relative_size": m.relative_size, "elapsed_s": res.elapsed_s}]
        )

    df = run_once(benchmark, run)
    persist(df, "spark_engine")
    assert df["relative_size"].iloc[0] < 1.0
    got = decode(spark, out["res"].summary).toPandas()
    assert set(zip(got["src"], got["dst"])) == set(zip(edges["src"], edges["dst"]))
