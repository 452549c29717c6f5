"""Optimal flat encoding of a fixed partition (Navlakha's O(|E|) encoder).

Given the input graph and a partition of the subnodes into supernodes,
the best flat encoding picks, independently per supernode pair (A, B)
with E_AB > 0:
- a superedge (A, B) plus negative corrections for the missing pairs
  (cost 1 + |T_AB| − |E_AB|), or
- positive corrections for the present pairs (cost |E_AB|),
whichever is cheaper. This is the final encoding step of SWEG / SAGS /
RANDOMIZED / MOSSO and the "previous model" side of SLUGGER's pruning
Step 3. Implemented as a Spark dataflow over the edge set.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..model.flat import FlatSummary


def _pair_counts(spark: SparkSession, edges: pd.DataFrame, group: np.ndarray):
    """Spark DataFrames: per-pair subedge counts and per-group sizes."""
    gmap = spark.createDataFrame(
        pd.DataFrame({"sub": np.arange(len(group), dtype=np.int64), "g": group.astype(np.int64)}),
        schema="sub long, g long",
    )
    # one orientation (src < dst), the one the C- pairs below are built in
    src, dst = (edges[c].to_numpy(dtype=np.int64) for c in ("src", "dst"))
    e = spark.createDataFrame(
        pd.DataFrame({"src": np.minimum(src, dst), "dst": np.maximum(src, dst)}),
        schema="src long, dst long",
    )
    tagged = (
        e.join(gmap.withColumnRenamed("sub", "src").withColumnRenamed("g", "gs"), "src")
        .join(gmap.withColumnRenamed("sub", "dst").withColumnRenamed("g", "gd"), "dst")
        .select(
            "src",
            "dst",
            F.least("gs", "gd").alias("gx"),
            F.greatest("gs", "gd").alias("gy"),
        )
    )
    counts = tagged.groupBy("gx", "gy").agg(F.count("*").alias("e_ab"))
    sizes = gmap.groupBy("g").agg(F.count("*").alias("sz"))
    return gmap, e, tagged, counts, sizes


def encode_flat(
    spark: SparkSession, edges: pd.DataFrame, group: np.ndarray
) -> FlatSummary:
    """Compute the optimal flat encoding of ``group`` over ``edges``."""
    n_sub = len(group)
    gmap, e, tagged, counts, sizes = _pair_counts(spark, edges, group)
    decided = (
        counts.join(sizes.withColumnRenamed("g", "gx").withColumnRenamed("sz", "sx"), "gx")
        .join(sizes.withColumnRenamed("g", "gy").withColumnRenamed("sz", "sy"), "gy")
        .withColumn(
            "t_ab",
            F.when(F.col("gx") == F.col("gy"), F.col("sx") * (F.col("sx") - 1) / 2)
            .otherwise(F.col("sx") * F.col("sy"))
            .cast("long"),
        )
        .withColumn(
            "use_super", F.lit(1) + F.col("t_ab") - F.col("e_ab") < F.col("e_ab")
        )
    )
    decided_pd = decided.select("gx", "gy", "use_super").toPandas()
    super_pairs = decided_pd[decided_pd["use_super"]][["gx", "gy"]]
    corr_pairs = decided_pd[~decided_pd["use_super"]][["gx", "gy"]]

    sp_df = spark.createDataFrame(
        super_pairs if len(super_pairs) else pd.DataFrame({"gx": pd.Series(dtype=np.int64), "gy": pd.Series(dtype=np.int64)}),
        schema="gx long, gy long",
    )
    # C+ : actual subedges whose pair was not given a superedge
    cp = (
        tagged.join(sp_df, ["gx", "gy"], "left_anti")
        .select("src", "dst")
        .toPandas()
    )
    # C− : missing pairs inside superedge pairs = cross-join of members minus E
    mem_x = gmap.select(F.col("g").alias("gx"), F.col("sub").alias("u"))
    mem_y = gmap.select(F.col("g").alias("gy"), F.col("sub").alias("v"))
    all_pairs = (
        sp_df.join(mem_x, "gx")
        .join(mem_y, "gy")
        .filter(F.col("u") != F.col("v"))
        .select(F.least("u", "v").alias("src"), F.greatest("u", "v").alias("dst"))
        .distinct()
    )
    cn = all_pairs.join(e, ["src", "dst"], "left_anti").toPandas()
    return FlatSummary(
        n_sub=n_sub,
        group=group.astype(np.int64),
        p=super_pairs.rename(columns={"gx": "x", "gy": "y"}).reset_index(drop=True),
        cp=cp.reset_index(drop=True),
        cn=cn.reset_index(drop=True),
    )
