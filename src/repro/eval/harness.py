"""Unified experiment runner: one call = one (method, dataset) cell.

Every method returns a :class:`repro.model.summary.HierSummary` (the
baselines' has height-1 trees, whose Eq. 10 size is their Eq. 11), so
every record comes from the same :func:`repro.model.cost.metrics` and the
table builders in :mod:`repro.eval.tables` can mix them. ``None``-valued
metrics mark OOT runs: RANDOMIZED or MOSSO runs over their fixed work
budgets (the paper reports those as missing bars).
The keywords ``engine="local"`` and ``spark=None`` mean what they mean in
``slugger`` and ``sweg``: only ``engine="spark"`` reads the session, and
the other methods ignore both.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import pandas as pd

from ..baselines.mosso import mosso
from ..baselines.randomized import randomized
from ..baselines.sags import sags
from ..baselines.sweg import sweg
from ..core.slugger import slugger
from ..graphs import datasets
from ..graphs.generators import n_nodes
from ..model.cost import metrics

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

METHODS = ["slugger", "sweg", "sags", "randomized", "mosso"]


def load_dataset(name: str, scale: str, seed: int) -> tuple[pd.DataFrame, int]:
    edges = datasets.load(name, scale=scale, seed=seed)
    return edges, n_nodes(edges)


def run_method(
    method: str,
    edges: pd.DataFrame,
    n_sub: int,
    *,
    seed: int = 0,
    T: int = 20,
    engine: str = "local",
    spark: SparkSession | None = None,
) -> dict:
    """Run one summarizer; returns {method, relative_size, elapsed_s, ...}.
    An OOT run's record holds only the first three, with relative_size None."""
    if method == "slugger":
        res = slugger(edges, n_sub, T=T, seed=seed, engine=engine, spark=spark)
    elif method == "sweg":
        res = sweg(edges, n_sub, T=T, seed=seed, engine=engine, spark=spark)
    elif method == "sags":
        res = sags(edges, n_sub, seed=seed)
    elif method == "randomized":
        res = randomized(edges, n_sub, seed=seed)
    elif method == "mosso":
        res = mosso(edges, n_sub, seed=seed)
    else:
        raise ValueError(f"unknown method {method}")
    if res.summary is None:
        return {"method": method, "relative_size": None, "elapsed_s": res.elapsed_s}
    met = metrics(res.summary, len(edges))
    return {
        "method": method,
        "relative_size": met.relative_size,
        "elapsed_s": res.elapsed_s,
        "n_p_plus": met.n_p_plus,
        "n_p_minus": met.n_p_minus,
        "n_h": met.n_h,
        "max_height": met.max_height,
        "avg_leaf_depth": met.avg_leaf_depth,
        "frac_p": met.frac_p,
        "frac_n": met.frac_n,
        "frac_h": met.frac_h,
    }


def format_table(df: pd.DataFrame, floatfmt: str = "{:.3f}") -> str:
    """Markdown-ish fixed-width rendering used by jobs and EXPERIMENTS.md."""
    d = df.copy()
    for c in d.columns:
        if d[c].dtype.kind == "f":
            d[c] = d[c].map(lambda v: "—" if pd.isna(v) else floatfmt.format(v))
        else:
            d[c] = d[c].map(lambda v: "—" if v is None or (isinstance(v, float) and pd.isna(v)) else v)
    return d.to_string(index=False)
