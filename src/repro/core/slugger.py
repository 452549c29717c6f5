"""SLUGGER driver (Algorithm 1): T rounds of candidate generation +
group-parallel merging + global consolidation, then pruning.

The per-iteration dataflow (DESIGN.md §3.2):

1. shingle-based candidate sets over current roots (numpy, in the driver);
2. :func:`_tall_rows` builds one bundle of plain tuple lists per group:
   member roots and trees, intra-group p/n-edges, read-only external
   edges and root-level G-adjacency;
3. each group runs Algorithm 2 via :func:`repro.core.groupmerge.run_group`
   through :func:`repro.core.candidates.run_groups` (``engine="local"``
   loops over the groups in gid order in-process; ``engine="spark"`` runs
   one ``mapInPandas`` job over the pickled bundles, with no shuffle); a
   group with a single root cannot merge and passes its edges through;
4. cross-group edges are lifted by :func:`repro.core.consolidate.consolidate`;
5. driver state (supernode forest + edge tables) is re-materialized —
   the checkpoint between iterations.

``hb`` > 0 enables the Table-V height-bound variant. ``snapshot_ts``
yields pruned summaries at intermediate iteration counts so one T=40 run
produces the whole Table-III row.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..graphs.ops import check_edges
from ..model.summary import HierSummary, empty_hedges
from . import candidates, groupmerge
from .consolidate import consolidate
from .pruning import prune


@dataclass
class SluggerResult:
    """Final summary plus optional per-snapshot pruned summaries."""

    summary: HierSummary
    elapsed_s: float
    snapshots: dict[int, HierSummary] = field(default_factory=dict)


class _DriverState:
    """Driver-side forest + edge tables between iterations."""

    def __init__(self, edges: pd.DataFrame, n_sub: int):
        self.n_sub = n_sub
        self.size: dict[int, int] = {u: 1 for u in range(n_sub)}
        self.children: dict[int, list[int]] = {}
        self.parent: dict[int, int] = {}
        # tree_tag[nid] = root label at nid's creation; root_up chains to now
        self.tree_tag: dict[int, int] = {}
        self.root_up: dict[int, int] = {}
        self.pedges: list[tuple[int, int, int]] = [
            (int(s), int(d), 1) for s, d in zip(edges["src"], edges["dst"])
        ]
        self.leaf_root = np.arange(n_sub, dtype=np.int64)

    def current_root(self, nid: int) -> int:
        r = self.tree_tag.get(nid, nid)
        while r in self.root_up:
            up = self.root_up[r]
            if up in self.root_up:
                self.root_up[r] = self.root_up[up]
            r = self.root_up[r]
        return r

    def apply_merges(self, merges: list[tuple[int, int, int]]) -> None:
        for a, b, u in merges:
            self.children[u] = [a, b]
            self.parent[a] = u
            self.parent[b] = u
            self.size[u] = self.size[a] + self.size[b]
            self.tree_tag[u] = u
            self.root_up[a] = u
            self.root_up[b] = u
        # refresh the leaf -> root array once per round
        remap: dict[int, int] = {}
        for i in range(self.n_sub):
            r = int(self.leaf_root[i])
            if r not in remap:
                remap[r] = self.current_root(r)
            self.leaf_root[i] = remap[r]

    def to_summary(self) -> HierSummary:
        nids = sorted(self.size)
        nodes = pd.DataFrame(
            {"nid": np.array(nids, dtype=np.int64),
             "size": np.array([self.size[v] for v in nids], dtype=np.int64)}
        )
        if self.parent:
            childs = sorted(self.parent)
            hedges = pd.DataFrame(
                {"parent": np.array([self.parent[c] for c in childs], dtype=np.int64),
                 "child": np.array(childs, dtype=np.int64)}
            )
        else:
            hedges = empty_hedges()
        pe = sorted((min(x, y), max(x, y), s) for x, y, s in self.pedges)
        pedges = pd.DataFrame(
            {"x": np.array([e[0] for e in pe], dtype=np.int64),
             "y": np.array([e[1] for e in pe], dtype=np.int64),
             "sign": np.array([e[2] for e in pe], dtype=np.int64)}
        )
        return HierSummary(n_sub=self.n_sub, nodes=nodes, hedges=hedges, pedges=pedges)


def _tall_rows(state: _DriverState, edges: pd.DataFrame, gid_of: dict[int, int]):
    """Build the per-group worker bundles and the read-only cross edge list.

    ``bundles[gid]`` is ``(roots, nodes(x, size, root), hedges(p, c),
    pedges(x, y, s), ext(x, y, s), radj(a, b))``, see
    :func:`repro.core.groupmerge.run_group`.
    """
    bundles: dict[int, groupmerge.Bundle] = {}
    # roots + their trees
    node_gid: dict[int, int] = {}
    for r, g in gid_of.items():
        b = bundles.get(g)
        if b is None:
            b = bundles[g] = ([], [], [], [], [], [])
        roots, nodes, hedges = b[0], b[1], b[2]
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            node_gid[v] = g
            nodes.append((v, state.size[v], r))
            for c in state.children.get(v, ()):
                hedges.append((v, c))
                stack.append(c)
    # p/n-edges: intra-group vs cross-group
    cross: list[tuple[int, int, int]] = []
    for e in state.pedges:
        x, y, s = e
        gx, gy = node_gid[x], node_gid[y]
        if gx == gy:
            bundles[gx][3].append(e)
        else:
            cross.append(e)
            bundles[gx][4].append(e)
            bundles[gy][4].append((y, x, s))
    # root-level G-adjacency (distance filter); both directions
    lr = state.leaf_root
    ra = lr[edges["src"].to_numpy()]
    rb = lr[edges["dst"].to_numpy()]
    mask = ra != rb
    pairs = set(zip(ra[mask].tolist(), rb[mask].tolist()))
    for x, y in pairs:
        bundles[gid_of[x]][5].append((x, y))
        bundles[gid_of[y]][5].append((y, x))
    return bundles, cross


def _run_round(
    state: _DriverState,
    edges: pd.DataFrame,
    t: int,
    big_t: int,
    seed: int,
    hb: int,
    engine: str,
    spark: SparkSession | None,
) -> None:
    groups = candidates.assign_groups(edges, state.leaf_root, seed, t)
    gid_of = dict(zip(groups["root"].tolist(), groups["gid"].tolist()))
    bundles, cross = _tall_rows(state, edges, gid_of)
    results = candidates.run_groups(groupmerge.run_group, bundles, (t, big_t, seed, hb),
                                    spark if engine == "spark" else None)
    merges = [e for m, _ in results for e in m]
    intra = [e for _, p in results for e in p]
    state.apply_merges(merges)
    lifted = consolidate(cross, state.children) if cross else []
    state.pedges = intra + lifted


def slugger(
    edges: pd.DataFrame,
    n_sub: int,
    *,
    T: int = 20,
    seed: int = 0,
    hb: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
    prune_cycles: int = 2,
    do_prune: bool = True,
    snapshot_ts: tuple[int, ...] = (),
) -> SluggerResult:
    """Run SLUGGER on a simple undirected pandas edge list (``src``,
    ``dst``); a non-integer column, a self-loop, a duplicate edge or an id
    outside ``[0, n_sub)`` raises ValueError.

    ``T``: number of rounds, in ``[0, 128)``; ``T=0`` is legal and gives
    the identity summary, which is then pruned.
    ``hb``: height bound (0 = unlimited, Table V); ``hb < 0`` raises
    ValueError. ``engine``: "spark" (groups in one mapInPandas job; needs
    ``spark``) or "local" (same worker, in-process); anything else raises
    ValueError.
    ``snapshot_ts``: iteration counts at which to snapshot a *pruned copy*
    of the state (Table III); the run continues unaffected.
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
    state = _DriverState(edges, n_sub)
    snapshots: dict[int, HierSummary] = {}
    for t in range(1, T + 1):
        _run_round(state, edges, t, T, seed, hb, engine, spark)
        if t in snapshot_ts and t != T:
            snap = prune(state.to_summary(), edges, cycles=prune_cycles)
            snapshots[t] = snap
    summary = state.to_summary()
    if do_prune:
        summary = prune(summary, edges, cycles=prune_cycles)
    if T in snapshot_ts:
        snapshots[T] = summary
    return SluggerResult(
        summary=summary, elapsed_s=time.perf_counter() - t0, snapshots=snapshots
    )
