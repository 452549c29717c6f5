"""SLUGGER driver (Algorithm 1): T rounds of candidate generation +
group-parallel merging + global consolidation, then pruning.

The per-iteration dataflow (DESIGN.md §3.2):

1. shingle-based candidate sets over current roots (numpy, in the driver);
2. :func:`_tall_rows` builds one bundle of plain tuple lists per group:
   member roots and trees, intra-group p/n-edges and read-only external
   edges (no adjacency: the roots of a candidate set are pairwise within
   distance 2 already, see :mod:`repro.core.candidates`);
3. each group runs Algorithm 2 via :func:`repro.core.groupmerge.run_group`
   through :func:`repro.core.candidates.run_groups` (``engine="local"``
   loops over the groups in gid order in-process; ``engine="spark"`` runs
   one ``mapInPandas`` job over the pickled bundles, with no shuffle); a
   group with a single root cannot merge and passes its edges through;
4. the merges go into the driver's :class:`repro.model.summary.Forest`,
   cross-group edges are lifted by
   :func:`repro.core.consolidate.consolidate`, and the groups' edges plus
   the lifted ones become the next round's plain edge list.

After the last round the forest and edge list become one
:class:`repro.model.summary.HierSummary`, which is then pruned. ``hb`` > 0
enables the Table-V height-bound variant.
"""
from __future__ import annotations

import time
from typing import TYPE_CHECKING

import pandas as pd

from ..graphs.ops import check_edges
from ..model.summary import Forest, SummaryResult
from . import candidates, groupmerge
from .consolidate import consolidate
from .pruning import prune

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def _tall_rows(forest: Forest, pedges: list[tuple[int, int, int]], gid_of: dict[int, int]):
    """Build the per-group worker bundles and the read-only cross edge list.

    ``bundles[gid]`` is ``(roots, nodes(x, size, root), hedges(p, c),
    pedges(x, y, s), ext(x, y, s))``, see
    :func:`repro.core.groupmerge.run_group`.
    """
    bundles: dict[int, groupmerge.Bundle] = {}
    # roots + their trees
    node_gid: dict[int, int] = {}
    for r, g in gid_of.items():
        b = bundles.get(g)
        if b is None:
            b = bundles[g] = ([], [], [], [], [])
        roots, nodes, hedges = b[0], b[1], b[2]
        roots.append(r)
        for v in forest.tree(r):
            node_gid[v] = g
            nodes.append((v, forest.size[v], r))
            hedges.extend((v, c) for c in forest.children.get(v, ()))
    # p/n-edges: intra-group vs cross-group
    cross: list[tuple[int, int, int]] = []
    for e in pedges:
        x, y, s = e
        gx, gy = node_gid[x], node_gid[y]
        if gx == gy:
            bundles[gx][3].append(e)
        else:
            cross.append(e)
            bundles[gx][4].append(e)
            bundles[gy][4].append((y, x, s))
    return bundles, cross


def _run_round(
    forest: Forest,
    pedges: list[tuple[int, int, int]],
    edges: pd.DataFrame,
    t: int,
    big_t: int,
    seed: int,
    hb: int,
    engine: str,
    spark: SparkSession | None,
) -> list[tuple[int, int, int]]:
    """One round of Algorithm 1: merges into ``forest`` and returns the
    round's p/n-edges."""
    groups = candidates.assign_groups(edges, forest.leaf_root(), seed, t)
    gid_of = dict(zip(groups["root"].tolist(), groups["gid"].tolist()))
    bundles, cross = _tall_rows(forest, pedges, gid_of)
    results = candidates.run_groups(groupmerge.run_group, bundles, (t, big_t, seed, hb),
                                    spark if engine == "spark" else None)
    for m, _ in results:
        for a, b, u in m:
            forest.merge(a, b, u)
    intra = [e for _, p in results for e in p]
    lifted = consolidate(cross, forest.parent, forest.children) if cross else []
    return intra + lifted


def slugger(
    edges: pd.DataFrame,
    n_sub: int,
    *,
    T: int = 20,
    seed: int = 0,
    hb: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
    do_prune: bool = True,
) -> SummaryResult:
    """Run SLUGGER on a simple undirected pandas edge list (``src``,
    ``dst``); a non-integer column, a self-loop, a duplicate edge or an id
    outside ``[0, n_sub)`` raises ValueError.

    ``T``: number of rounds, in ``[0, 128)``; ``T=0`` is legal and gives
    the identity summary, which is then pruned. When ``T >= 2`` the loop
    starts at round 2 on the input edges: round 1 provably merges nothing,
    as two subnodes with cn common neighbours save at most (cn−2)/(2·cn)
    < θ(1) = 1/2 (DESIGN.md §3.2).
    ``hb``: height bound (0 = unlimited, Table V); ``hb < 0`` raises
    ValueError. ``engine``: "spark" (groups in one mapInPandas job; needs
    ``spark``) or "local" (same worker, in-process); anything else raises
    ValueError.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if hb < 0:
        raise ValueError(f"hb must be >= 0, got {hb}")
    # bit widths of groupmerge.new_id; a group never has more roots than n_sub
    if T >= 128:
        raise ValueError(f"T must be < 128, got {T}")
    if n_sub >= 1 << 24:
        raise ValueError(f"n_sub must be < 2**24, got {n_sub}")
    candidates.check_engine(engine, spark)
    check_edges(edges, n_sub)
    t0 = time.perf_counter()
    forest = Forest(n_sub, {u: 1 for u in range(n_sub)})
    pedges = [(int(s), int(d), 1) for s, d in zip(edges["src"], edges["dst"])]
    for t in range(2 if T >= 2 else 1, T + 1):
        pedges = _run_round(forest, pedges, edges, t, T, seed, hb, engine, spark)
    summary = forest.to_summary(pedges)
    if do_prune:
        summary = prune(summary, edges)
    return SummaryResult(summary=summary, elapsed_s=time.perf_counter() - t0)
