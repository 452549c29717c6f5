"""Shared spark-submit plumbing for the experiment jobs."""
import argparse
import os
import sys

from pyspark.sql import SparkSession


def session(app: str) -> SparkSession:
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
