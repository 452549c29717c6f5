"""Shared plumbing for the experiment jobs: the argument parser, a Spark
session for ``--engine spark`` only, and table printing."""
from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def session(app: str, engine: str) -> SparkSession | None:
    """A Spark session for ``engine="spark"``; None for the local engine,
    which then starts no JVM and imports no pyspark."""
    if engine != "spark":
        return None
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def base_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", default="bench", choices=["test", "bench"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--T", type=int, default=20)
    p.add_argument(
        "--engine",
        default="local",
        choices=["local", "spark"],
        help="group-merge execution engine (spark = one mapInPandas job per round "
             "over pickled per-group bundles, no shuffle)",
    )
    p.add_argument("--datasets", nargs="*", default=None)
    return p


def emit(df, attrs_note: str = "") -> None:
    from repro.eval.harness import format_table

    print(format_table(df))
    if attrs_note:
        print(attrs_note)
    sys.stdout.flush()
