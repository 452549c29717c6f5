"""Table/figure builders — one function per paper artifact (DESIGN.md §5).

Each returns a tidy pandas DataFrame with one row per table cell group;
jobs print them, benchmarks persist them, and EXPERIMENTS.md quotes them
next to the paper's numbers. Every builder takes the keyword pair
``engine="local"``/``spark=None`` of :func:`repro.eval.harness.run_method`;
only ``engine="spark"`` needs a session.
"""
from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

from ..core.pruning import prune
from ..core.slugger import slugger
from ..graphs import datasets
from ..graphs import generators as gen
from ..graphs.generators import n_nodes
from ..model.cost import metrics
from .harness import METHODS, load_dataset, run_method

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

DEFAULT_DATASETS = datasets.DATASET_ORDER


def fig5_compactness(
    *,
    scale: str = "bench",
    names: list[str] | None = None,
    methods: list[str] | None = None,
    T: int = 20,
    seed: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
) -> pd.DataFrame:
    """Fig. 5(a)+(b): relative size (Eq. 10/11) and runtime per method. An
    OOT cell (RANDOMIZED or MOSSO over its work budget) has relative_size
    None, and its runtime is the time spent using up the budget."""
    names = names or DEFAULT_DATASETS
    methods = methods or METHODS
    rows = []
    for name in names:
        edges, n = load_dataset(name, scale, seed)
        for method in methods:
            rec = run_method(method, edges, n, seed=seed, T=T, engine=engine, spark=spark)
            rows.append(
                {"dataset": name, "n": n, "m": len(edges), "method": method,
                 "relative_size": rec["relative_size"], "elapsed_s": rec["elapsed_s"]}
            )
    return pd.DataFrame(rows)


def table3_iterations(
    *,
    scale: str = "bench",
    names: list[str] | None = None,
    Ts: tuple[int, ...] = (1, 5, 10, 20, 40),
    seed: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
) -> pd.DataFrame:
    """Table III: SLUGGER's relative size as T grows (one run per T, as in
    the paper: θ(T)=0 on the final round, so the state of a longer run
    after round T is not the T-round summary)."""
    names = names or DEFAULT_DATASETS
    rows = []
    for name in names:
        edges, n = load_dataset(name, scale, seed)
        for T in Ts:
            res = slugger(edges, n, T=T, seed=seed, engine=engine, spark=spark)
            met = metrics(res.summary, len(edges))
            rows.append(
                {"dataset": name, "T": T, "relative_size": met.relative_size,
                 "elapsed_s": res.elapsed_s}
            )
    return pd.DataFrame(rows)


def table4_pruning(
    *,
    scale: str = "bench",
    names: list[str] | None = None,
    T: int = 20,
    seed: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
) -> pd.DataFrame:
    """Table IV: relative size / max height / avg leaf depth after each
    pruning substep (stage 0 = unpruned)."""
    names = names or DEFAULT_DATASETS
    rows = []
    for name in names:
        edges, n = load_dataset(name, scale, seed)
        res = slugger(edges, n, T=T, seed=seed, engine=engine, spark=spark, do_prune=False)
        stages = prune(res.summary, edges, collect_stages=True)
        for i, s in enumerate(stages):
            met = metrics(s, len(edges))
            rows.append(
                {"dataset": name, "stage": i, "relative_size": met.relative_size,
                 "max_height": met.max_height, "avg_leaf_depth": met.avg_leaf_depth}
            )
    return pd.DataFrame(rows)


def table5_height(
    *,
    scale: str = "bench",
    names: list[str] | None = None,
    hbs: tuple[int, ...] = (2, 5, 7, 10, 0),  # 0 = unbounded (∞ column)
    T: int = 20,
    seed: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
) -> pd.DataFrame:
    """Table V: height-bounded variant — avg leaf depth & relative size."""
    names = names or DEFAULT_DATASETS
    rows = []
    for name in names:
        edges, n = load_dataset(name, scale, seed)
        for hb in hbs:
            res = slugger(edges, n, T=T, seed=seed, hb=hb, engine=engine, spark=spark)
            met = metrics(res.summary, len(edges))
            rows.append(
                {"dataset": name, "hb": "inf" if hb == 0 else hb,
                 "avg_leaf_depth": met.avg_leaf_depth,
                 "relative_size": met.relative_size}
            )
    return pd.DataFrame(rows)


def fig6_composition(
    *,
    scale: str = "bench",
    names: list[str] | None = None,
    T: int = 20,
    seed: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
) -> pd.DataFrame:
    """Fig. 6: proportions of p-, n-, and h-edges in SLUGGER's outputs."""
    names = names or DEFAULT_DATASETS
    rows = []
    for name in names:
        edges, n = load_dataset(name, scale, seed)
        res = slugger(edges, n, T=T, seed=seed, engine=engine, spark=spark)
        met = metrics(res.summary, len(edges))
        rows.append(
            {"dataset": name, "frac_p": met.frac_p, "frac_n": met.frac_n,
             "frac_h": met.frac_h, "relative_size": met.relative_size}
        )
    return pd.DataFrame(rows)


def scalability(
    *,
    base_n: int = 4000,
    fracs: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0),
    T: int = 5,
    seed: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
) -> pd.DataFrame:
    """Fig. 1(b): runtime vs |E| on node-sampled subgraphs of one large
    hierarchical graph (the paper samples nodes from UK-05)."""
    from ..graphs.ops import sample_nodes_subgraph

    full = gen.nested_partition(
        base_n, levels=4, branching=5, p_top=0.0008, ratio=11.0, seed=seed
    )
    rows = []
    for frac in fracs:
        edges = sample_nodes_subgraph(full, frac, seed=seed) if frac < 1.0 else full
        n = n_nodes(edges)
        t0 = time.perf_counter()
        res = slugger(edges, n, T=T, seed=seed, engine=engine, spark=spark)
        rows.append(
            {"frac": frac, "n": n, "m": len(edges),
             "elapsed_s": time.perf_counter() - t0,
             "relative_size": metrics(res.summary, len(edges)).relative_size}
        )
    df = pd.DataFrame(rows)
    # least-squares slope of runtime vs |E| through the origin + R^2
    x = df["m"].to_numpy(float)
    y = df["elapsed_s"].to_numpy(float)
    slope = float((x * y).sum() / (x * x).sum())
    ss_res = float(((y - slope * x) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    df.attrs["slope_s_per_edge"] = slope
    df.attrs["r2_linear"] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return df
