"""The layers of a SLUGGER run, where the tracer hooks them, and the
per-layer metrics derived from the spans.

``LAYER_MOVES`` is the prediction written down before measuring: which
end-to-end metric each layer metric should move, on which workloads.
"""
from __future__ import annotations

from typing import Any

from tracing import Tracer

# phase run ids inside one worker process
SETUP, SUMMARIZE, DECODE, QUERY = 0, 1, 2, 3

ALL = ("collab_t20", "ppi_t20", "spark_collab_t5")

# layer metric prefix -> (end-to-end metric it should move, workloads)
LAYER_MOVES: dict[str, tuple[str, tuple[str, ...]]] = {
    "candidates.": ("summarize_s", ("collab_t20", "spark_collab_t5")),
    "tall_rows.": ("summarize_s", ("collab_t20", "spark_collab_t5")),
    "run_group.": ("summarize_s", ("collab_t20",)),
    "worker_init.": ("summarize_s", ("collab_t20",)),
    "worker_output.": ("summarize_s", ("collab_t20",)),
    "marshal.": ("summarize_s", ("collab_t20",)),
    "driver.": ("summarize_s", ("collab_t20", "spark_collab_t5")),
    "alg2.": ("summarize_s", ("ppi_t20",)),
    "saving.": ("summarize_s", ("ppi_t20",)),
    "merge.": ("summarize_s", ("ppi_t20",)),
    "dist2.": ("summarize_s", ("ppi_t20",)),
    "localenc.": ("summarize_s", ("ppi_t20",)),
    "consolidate.": ("summarize_s", ALL),
    "prune.": ("summarize_s", ALL),
    "spark.": ("summarize_s", ("spark_collab_t5",)),
    "decode.": ("decode_s", ALL),
    "neighbors.": ("query_us_p50", ALL),
    "graphs.": ("setup_s", ALL),
    "trace.": ("(none: tracing cost, traced minus untraced summarize_s)", ALL),
}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


# per-layer metric -> (unit, which direction is better)
PER_LAYER: dict[str, tuple[str, str]] = {
    name: (_unit(name), "higher" if name in ("alg2.merge_ratio", "localenc.memo_hits") else "lower")
    for name in (
        "candidates.s", "candidates.groups", "candidates.single_root_groups",
        "tall_rows.s", "tall_rows.rows", "run_group.calls", "worker_init.s",
        "worker_output.s", "marshal.s", "driver.other_s",
        "alg2.s", "saving.calls", "saving.s", "merge.calls", "merge.s", "dist2.s",
        "alg2.merge_ratio", "localenc.solve_calls", "localenc.s", "localenc.search_s",
        "localenc.memo_hits", "localenc.memo_misses", "localenc.unsolved",
        "consolidate.s", "consolidate.edges_in", "prune.s", "prune.step1.s",
        "prune.step2.s", "prune.step3.s", "prune.step1.removed",
        "prune.step2.removed", "prune.step3.rewrites",
        "spark.job_s", "spark.tasks", "spark.tasks_failed", "decode.s",
        "neighbors.index_s", "neighbors.query_s", "graphs.load_s", "trace.overhead_s",
    )
}


def _count_groups(tr: Tracer, groups, *args, **kwargs) -> None:
    sizes = groups["gid"].value_counts()
    tr.count("candidates.groups", len(sizes))
    tr.count("candidates.single_root_groups", int((sizes == 1).sum()))


def _count_rows(tr: Tracer, result, *args, **kwargs) -> None:
    tr.count("tall_rows.rows", len(result[0]))


def _count_edges_in(tr: Tracer, result, edges, *args, **kwargs) -> None:
    tr.count("consolidate.edges_in", len(edges))


def _count_unsolved(tr: Tracer, result, *args, **kwargs) -> None:
    if result is None:
        tr.count("localenc.unsolved")


def _counter(name: str):
    def on_call(tr: Tracer, result, *args, **kwargs) -> None:
        tr.count(name, result)
    return on_call


def install(tr: Tracer, *, spark_df_cls: Any = None, worker_side: bool = True) -> None:
    """Wrap every layer boundary. ``worker_side=False`` leaves the group
    worker alone (on Spark it runs in other processes)."""
    from repro.core import candidates, groupmerge, localenc, pruning, slugger
    from repro.graphs import datasets
    from repro.model import decode, neighbors

    tr.wrap(datasets, "load", "graphs.load")
    tr.wrap(slugger, "_run_round", "round")
    tr.wrap(candidates, "assign_groups", "candidates", _count_groups)
    tr.wrap(slugger, "_tall_rows", "tall_rows", _count_rows)
    tr.wrap(slugger, "consolidate", "consolidate", _count_edges_in)
    tr.wrap(slugger, "prune", "prune")
    tr.wrap(pruning, "step1", "prune.step1", _counter("prune.step1.removed"))
    tr.wrap(pruning, "step2", "prune.step2", _counter("prune.step2.removed"))
    tr.wrap(pruning, "step3", "prune.step3", _counter("prune.step3.rewrites"))
    if worker_side:
        gw = groupmerge.GroupWorker
        tr.wrap(groupmerge, "run_group", "run_group")
        tr.wrap(gw, "__init__", "worker_init")
        tr.wrap(gw, "run", "alg2")
        tr.wrap(gw, "saving", "saving")
        tr.wrap(gw, "merge", "merge")
        tr.wrap(gw, "candidates", "dist2")
        tr.wrap(gw, "output", "worker_output")
        tr.wrap(localenc, "solve_case1", "localenc", summed=True)
        tr.wrap(localenc, "solve_case2", "localenc", summed=True)
        tr.wrap(localenc, "_search", "localenc.search", _count_unsolved)
    if spark_df_cls is not None:
        tr.wrap(spark_df_cls, "toPandas", "spark.job")
    tr.wrap(decode, "decode", "decode")
    tr.wrap(decode, "decode_pd", "decode")
    tr.wrap(neighbors.NeighborIndex, "__init__", "neighbors.index")
    tr.wrap(neighbors.NeighborIndex, "neighbors", "neighbors.query")


def metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced worker process."""
    tot = tr.totals()

    def calls(run: int, name: str) -> int:
        return tot.get((run, name), (0, 0.0, 0.0))[0]

    def incl(run: int, name: str) -> float:
        return tot.get((run, name), (0, 0.0, 0.0))[1]

    def own(run: int, name: str) -> float:
        return tot.get((run, name), (0, 0.0, 0.0))[2]

    def cnt(run: int, name: str) -> float:
        return tr.counters.get((run, name), 0)

    S = SUMMARIZE
    misses = calls(S, "localenc.search")
    saving_calls = calls(S, "saving")
    return {
        "candidates.s": incl(S, "candidates"),
        "candidates.groups": cnt(S, "candidates.groups"),
        "candidates.single_root_groups": cnt(S, "candidates.single_root_groups"),
        "tall_rows.s": incl(S, "tall_rows"),
        "tall_rows.rows": cnt(S, "tall_rows.rows"),
        "run_group.calls": calls(S, "run_group"),
        "worker_init.s": incl(S, "worker_init"),
        "worker_output.s": incl(S, "worker_output"),
        "marshal.s": incl(S, "run_group") - incl(S, "alg2"),
        "driver.other_s": own(S, "round"),
        "alg2.s": incl(S, "alg2"),
        "saving.calls": saving_calls,
        "saving.s": incl(S, "saving"),
        "merge.calls": calls(S, "merge"),
        "merge.s": incl(S, "merge"),
        "dist2.s": incl(S, "dist2"),
        "alg2.merge_ratio": calls(S, "merge") / saving_calls if saving_calls else 0.0,
        "localenc.solve_calls": cnt(S, "localenc.calls"),
        "localenc.s": cnt(S, "localenc.s"),
        "localenc.search_s": incl(S, "localenc.search"),
        # solver calls answered without a search (memo hit or empty target)
        "localenc.memo_hits": cnt(S, "localenc.calls") - misses,
        "localenc.memo_misses": misses,
        "localenc.unsolved": cnt(S, "localenc.unsolved"),
        "consolidate.s": incl(S, "consolidate"),
        "consolidate.edges_in": cnt(S, "consolidate.edges_in"),
        "prune.s": incl(S, "prune"),
        "prune.step1.s": incl(S, "prune.step1"),
        "prune.step2.s": incl(S, "prune.step2"),
        "prune.step3.s": incl(S, "prune.step3"),
        "prune.step1.removed": cnt(S, "prune.step1.removed"),
        "prune.step2.removed": cnt(S, "prune.step2.removed"),
        "prune.step3.rewrites": cnt(S, "prune.step3.rewrites"),
        "spark.job_s": incl(S, "spark.job"),
        # the read path repeats for a fixed time: report means per call
        "decode.s": incl(DECODE, "decode") / max(1, calls(DECODE, "decode")),
        "neighbors.index_s": incl(QUERY, "neighbors.index"),
        "neighbors.query_s": incl(QUERY, "neighbors.query") / max(1, calls(QUERY, "neighbors.query")),
        "graphs.load_s": incl(SETUP, "graphs.load"),
    }
