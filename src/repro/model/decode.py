"""Exact decoding of a hierarchical summary back to the input edge set.

A subedge (u, v) exists iff the number of p-edges covering (u, v)
exceeds the number of n-edges covering it (Sect. II-B). SLUGGER's
transformations preserve coverage *exactly*, so the net count is always
in {0, 1}; both decoders check this, which turns any encoding bug into
a loud failure rather than a silently wrong graph.

``decode`` is the Spark implementation: the driver builds the (sub, sup)
membership closure (``HierSummary.membership``) and ships it as one
DataFrame, and the result is a lazy plan of joins and one aggregation,
so the decode runs a fixed number of Spark jobs whatever the tree depth.
Its {0, 1} check is part of that aggregation and fires when the caller
runs an action. ``decode_pd`` is the pandas twin used by fast unit tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .summary import HierSummary


def membership_df(spark: SparkSession, summary: HierSummary) -> DataFrame:
    """(sub, sup) closure as a Spark DataFrame: built on the driver by
    ``HierSummary.membership`` and shipped as one DataFrame."""
    return spark.createDataFrame(summary.membership(), schema="sub long, sup long")


def decode(spark: SparkSession, summary: HierSummary, *, check: bool = True) -> DataFrame:
    """Decode to the canonical edge DataFrame (src < dst) with Spark joins.

    The result is lazy; nothing runs until the caller's action. With
    ``check``, a subnode pair whose net coverage lies outside {0, 1} makes
    that action raise a ``pyspark.errors.PySparkException`` whose message
    contains ``net coverage outside {0,1}``."""
    if len(summary.pedges) == 0:
        return spark.createDataFrame(
            pd.DataFrame({"src": pd.Series(dtype=np.int64), "dst": pd.Series(dtype=np.int64)}),
            schema="src long, dst long",
        )
    mem = membership_df(spark, summary)
    pe = spark.createDataFrame(summary.pedges, schema="x long, y long, sign long")
    mx = mem.select(F.col("sub").alias("u"), F.col("sup").alias("x"))
    my = mem.select(F.col("sub").alias("v"), F.col("sup").alias("y"))
    cross = pe.filter("x != y")
    loops = pe.filter("x = y")
    # x != y: supernodes in an edge are disjoint (no ancestor/descendant
    # p-edges are ever created), so u != v and each edge covers a pair once.
    cov1 = (
        cross.join(mx, "x").join(my, "y")
        .select(
            F.least("u", "v").alias("src"), F.greatest("u", "v").alias("dst"), "sign"
        )
    )
    # self-loop (x, x): all unordered pairs within x.
    cov2 = (
        loops.join(mx, "x")
        .join(
            mem.select(F.col("sub").alias("v"), F.col("sup").alias("x")), "x"
        )
        .filter(F.col("u") < F.col("v"))
        .select(F.col("u").alias("src"), F.col("v").alias("dst"), "sign")
    )
    net = (
        cov1.unionByName(cov2)
        .groupBy("src", "dst")
        .agg(F.sum("sign").alias("net"))
    )
    if check:
        net = net.withColumn(
            "net",
            F.when((F.col("net") < 0) | (F.col("net") > 1),
                   F.raise_error(F.lit("net coverage outside {0,1}")))
            .otherwise(F.col("net")),
        )
    return net.filter("net = 1").select("src", "dst")


def decode_pd(summary: HierSummary, *, check: bool = True) -> pd.DataFrame:
    """Pandas twin of ``decode`` for small graphs (unit tests, Alg-4 oracle)."""
    members = summary.leaf_members()
    from collections import Counter

    net: Counter[tuple[int, int]] = Counter()
    for x, y, s in zip(
        summary.pedges["x"].astype(int),
        summary.pedges["y"].astype(int),
        summary.pedges["sign"].astype(int),
    ):
        if x == y:
            mem = members[x]
            for i in range(len(mem)):
                for j in range(i + 1, len(mem)):
                    net[(mem[i], mem[j])] += s
        else:
            for u in members[x]:
                for v in members[y]:
                    a, b = (u, v) if u < v else (v, u)
                    assert a != b, "ancestor/descendant p-edge produced a self-pair"
                    net[(a, b)] += s
    if check:
        bad = [k for k, c in net.items() if c not in (0, 1)]
        assert not bad, f"net coverage outside {{0,1}} at pairs {bad[:5]}"
    pairs = sorted(k for k, c in net.items() if c == 1)
    return pd.DataFrame(
        {
            "src": np.array([p[0] for p in pairs], dtype=np.int64),
            "dst": np.array([p[1] for p in pairs], dtype=np.int64),
        }
    )


def assert_lossless_pd(summary: HierSummary, edges: pd.DataFrame) -> None:
    """Assert the summary decodes exactly to ``edges`` (pandas path)."""
    got = decode_pd(summary)
    want = edges.sort_values(["src", "dst"]).reset_index(drop=True)
    got = got.sort_values(["src", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want[["src", "dst"]].astype(np.int64))
