"""Shared plumbing for the experiment jobs: the argument parser, a Spark
session for ``--engine spark`` only, and table printing."""
from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def session(app: str, engine: str) -> SparkSession | None:
    """A Spark session for ``engine="spark"``; None for the local engine,
    which then starts no JVM and imports no pyspark. Only Arrow is
    configured: the Spark engine runs one map-only ``mapInPandas`` job per
    round, with no shuffle or join to tune, and jobs never decode on
    Spark."""
    if engine != "spark":
        return None
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )


# the shared flags a job offers only when its table builder reads them
_FLAGS = {
    "--scale": dict(default="bench", choices=["test", "bench"]),
    "--T": dict(type=int, default=20),
    "--datasets": dict(nargs="*", default=None),
}


def base_parser(desc: str, *flags: str) -> argparse.ArgumentParser:
    """``--seed`` and ``--engine``, plus the shared ``flags`` the job reads
    (names from ``_FLAGS``), so argparse rejects a flag the job would
    ignore. No flag may be abbreviated: ``--T`` would otherwise pass for
    ``--Ts``."""
    p = argparse.ArgumentParser(description=desc, allow_abbrev=False)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--engine",
        default="local",
        choices=["local", "spark"],
        help="group-merge execution engine (spark = one mapInPandas job per round "
             "over pickled per-group bundles, no shuffle)",
    )
    return p


def emit(df, attrs_note: str = "") -> None:
    from repro.eval.harness import format_table

    print(format_table(df))
    if attrs_note:
        print(attrs_note)
    sys.stdout.flush()
