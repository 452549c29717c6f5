"""Dividing root nodes into candidate sets (Sect. III-B2).

Roots are grouped by shingle value; oversized groups are recursively
re-divided with further independent shingles (the paper uses up to 10
levels; shingle collisions make >3 levels moot at our scale; a level is
computed only once some group needs it) and finally
split randomly so no candidate set exceeds ``MAX_SIZE`` (paper: 500).
Per-iteration seeds vary the candidate sets across iterations.

Every candidate set lies inside one level-0 shingle class: level 0 always
splits, and deeper levels and random chunks only subdivide. For node ids
below 2^31 − 1 the hash is injective, so the roots of a candidate set are
pairwise within distance 2 in G, before and after any merge among them
(:mod:`repro.core.hashing`). That is all Lemma 1 asks of a pair, so the
group workers of SLUGGER and SWEG score every pair in a set with no
distance filter and no adjacency (DESIGN.md §3.2).

:func:`run_groups` then runs one function on every group, in-process or
as one Spark ``mapInPandas`` job over pickled per-group bundles
(:func:`map_bundles`: no shuffle; an Arrow batch carries many groups).
SLUGGER and SWEG share it and the threshold :func:`theta` that their group
workers merge at; the Spark decoder uses ``map_bundles`` too.
"""
from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Callable

import numpy as np
import pandas as pd

from .hashing import shingles_np

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

MAX_LEVELS = 4
MAX_SIZE = 500


def assign_groups(
    edges: pd.DataFrame,
    leaf_root: np.ndarray,
    seed: int,
    t: int,
) -> pd.DataFrame:
    """(root, gid): candidate-set id per current root, no set above
    ``MAX_SIZE`` roots (read at call time)."""
    # level-0 shingles define the base grouping; further levels refine
    # oversized groups only, so each is computed on first use. Every level
    # lists the same roots in the same (sorted) order.
    sh0 = shingles_np(edges, leaf_root, seed, t)
    roots = sh0["root"].to_numpy()
    cols = {0: sh0["shingle"].to_numpy()}

    def level(lvl: int) -> np.ndarray:
        if lvl not in cols:
            cols[lvl] = shingles_np(edges, leaf_root, seed + 7919 * lvl, t)["shingle"].to_numpy()
        return cols[lvl]

    rng = np.random.default_rng((seed * 31 + t) & 0x7FFFFFFF)

    gid = np.full(len(roots), -1, dtype=np.int64)
    next_gid = 0
    # level-0 shingles are the *primary* grouping (roots sharing a shingle
    # are within distance 2); deeper levels and random chunks only
    # subdivide oversized groups, so every group has one level-0 shingle
    stack: list[tuple[np.ndarray, int]] = [(np.arange(len(roots)), 0)]
    while stack:
        idx, lvl = stack.pop()
        must_split = lvl == 0 or len(idx) > MAX_SIZE
        if must_split and lvl < MAX_LEVELS:
            vals = level(lvl)[idx]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            cuts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
            ends = np.r_[cuts[1:], len(sv)]
            # one cut (all shingles equal) pushes idx itself: a stable
            # argsort of equal keys is the identity
            for s, e in zip(cuts, ends):
                stack.append((idx[order[s:e]], lvl + 1))
            continue
        if len(idx) > MAX_SIZE:  # levels exhausted: random chunking
            perm = rng.permutation(idx)
            for s in range(0, len(perm), MAX_SIZE):
                gid[perm[s : s + MAX_SIZE]] = next_gid
                next_gid += 1
            continue
        gid[idx] = next_gid
        next_gid += 1
    assert (gid >= 0).all()
    return pd.DataFrame({"root": roots.astype(np.int64), "gid": gid})


def check_engine(engine: str, spark: SparkSession | None) -> None:
    """Raise ValueError unless ``engine`` is "local", or "spark" with a session."""
    if engine not in ("local", "spark"):
        raise ValueError(f"engine must be 'local' or 'spark', got {engine!r}")
    if engine == "spark" and spark is None:
        raise ValueError("engine='spark' needs a SparkSession")


def map_bundles(
    spark: SparkSession, bundles: list[Any], fn: Callable[[list[Any]], pd.DataFrame], schema: str
) -> DataFrame:
    """Lazy Spark frame of ``schema``: one row per bundle (pickled), and one
    ``mapInPandas`` stage that yields ``fn(bundles of one Arrow batch)``.
    No join and no shuffle; partition order is the order of ``bundles``."""

    def apply(batches):
        for pdf in batches:
            yield fn([pickle.loads(b) for b in pdf["b"]])

    rows = pd.DataFrame({"b": [pickle.dumps(x) for x in bundles]}, dtype=object)
    return spark.createDataFrame(rows, schema="b binary").mapInPandas(apply, schema=schema)


def theta(t: int, big_t: int) -> float:
    """The merge threshold θ(t) = 1/(1+t) of iteration t (Eq. 9), and 0 on
    the last one (t = T), so every positive saving merges then."""
    return 1.0 / (1 + t) if t < big_t else 0.0


def run_groups(
    fn: Callable[..., Any],
    bundles: dict[int, Any],
    args: tuple,
    spark: SparkSession | None = None,
) -> list[Any]:
    """``[fn(gid, bundle, *args) for gid in sorted(bundles)]``, in-process
    when ``spark`` is None, else as one ``map_bundles`` job. Results are in
    ascending gid order on both: the rows go in sorted and ``mapInPandas``
    keeps partition order."""
    gids = sorted(bundles)
    if spark is None:
        return [fn(g, bundles[g], *args) for g in gids]
    if not gids:
        return []

    def apply(items):
        return pd.DataFrame({"b": [pickle.dumps(fn(g, b, *args)) for g, b in items]})

    out = map_bundles(spark, [(g, bundles[g]) for g in gids], apply, "b binary").toPandas()
    return [pickle.loads(b) for b in out["b"]]
