"""Pruning step (Sect. III-B4 / Algorithm 3): removes supernodes that do
not contribute to concise encoding, with zero information loss.

- **Step 1**: drop every non-leaf supernode with no incident p/n-edge,
  splicing its children to its parent (or promoting them to roots).
- **Step 2**: drop every root with exactly one incident non-loop
  p/n-edge (A, B, s): each child either cancels an opposite-sign edge to
  B or inherits a same-sign edge to B. (Skipped if a child already has a
  same-sign edge to B — the rewrite could not stay exact.)
- **Step 3**: per root pair (including self pairs), if the optimal *flat*
  encoding of the subedges between the two trees (superedge+negative
  corrections vs. positive corrections, Navlakha) is cheaper than the
  current p/n-edges between the trees, swap it in.

Step 3 can strand internal supernodes without edges, so the three steps
are cycled (paper: "repeated a few times"; here ``CYCLES`` = 2). They
edit a :class:`repro.model.summary.Forest` and a
:class:`repro.model.summary.SignedEdges` read from the summary. Step 3 is
the flat encoder of :mod:`repro.model.flat` with the trees as the
partition: a :class:`repro.model.flat.PairTable` on ``Forest.leaf_root()``
gives every root pair's flat cost, which is compared with its count of
p/n-edges (root pairs from ``Forest.root_of``), and only the winning
pairs are expanded. Every rewrite preserves the exact coverage of the
affected subnode pairs, so losslessness is maintained throughout; each
substep's output can be snapshotted for Table IV via
``prune(..., collect_stages=True)``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..graphs.ops import check_edges
from ..model.flat import PairTable
from ..model.summary import Forest, HierSummary, SignedEdges

CYCLES = 2  # passes over Steps 1-3; a pass that changes nothing ends early


def step1(f: Forest, pe: SignedEdges) -> int:
    """Remove edge-less non-leaf supernodes. Returns #removed."""
    removed = 0
    for a in [v for v in f.size if v >= f.n_sub]:
        if not pe.incident(a):
            f.drop(a)
            removed += 1
    return removed


def step2(f: Forest, pe: SignedEdges) -> int:
    """Remove roots with exactly one incident non-loop edge. Returns #removed."""
    removed = 0
    queue = f.roots()
    while queue:
        a = queue.pop()
        if a not in f.size or a in f.parent:
            continue  # already removed, or no longer a root
        kids = f.children.get(a, [])
        if not kids:
            continue  # singleton root: dropping it would lose the subnode
        inc = pe.incident(a)
        if len(inc) != 1:
            continue
        ((b, s),) = inc.items()
        if b == a:
            continue  # self-loop: Step 2 handles non-loop edges only
        # exactness check: no child may already carry a same-sign edge to b
        if any(pe.incident(c).get(b) == s for c in kids):
            continue
        pe.remove(a, b)
        for c in kids:
            if pe.incident(c).get(b) == -s:
                pe.remove(c, b)
            else:
                pe.add(c, b, s)
        f.drop(a)
        removed += 1
        queue.append(b)
        queue.extend(kids)
    return removed


def step3(f: Forest, pe: SignedEdges, edges: pd.DataFrame) -> int:
    """Swap in the optimal flat encoding per root pair where cheaper.
    Returns the number of root pairs rewritten."""
    tab = PairTable(edges, f.leaf_root())  # group ids = root ids
    root_of = f.root_of()
    cur = list(pe)
    # every p/n-edge's root pair, keyed like the table's pairs (dense ranks)
    k = len(tab.ids)
    ends = np.searchsorted(tab.ids, np.array([root_of[v] for e in cur for v in e], dtype=np.int64))
    ra, rb = ends[0::2], ends[1::2]
    ckey = np.minimum(ra, rb) * k + np.maximum(ra, rb)
    keys, pair_of, n_cur = np.unique(ckey, return_inverse=True, return_counts=True)
    # the flat cost of each pair: the table's, or 0 if it has no subedge
    pkey = tab.px * k + tab.py
    hit = np.isin(keys, pkey)
    at = np.searchsorted(pkey, keys[hit])
    flat = np.zeros(len(keys), dtype=np.int64)
    flat[hit] = tab.cost[at]
    win = flat < n_cur
    for i in np.flatnonzero(win[pair_of]).tolist():
        pe.remove(*cur[i])
    for x, y, s in tab.expand(at[win[hit]], tab.ids):
        pe.add(x, y, s)
    return int(win.sum())


def prune(
    summary: HierSummary,
    edges: pd.DataFrame,
    *,
    collect_stages: bool = False,
) -> HierSummary | list[HierSummary]:
    """Run the full pruning pass (Steps 1-3, up to ``CYCLES`` times) on a
    working copy; ``summary`` itself is left as it is. ``edges`` is the
    graph ``summary`` encodes; a malformed edge list raises ValueError (see
    :func:`repro.graphs.ops.check_edges`).

    With ``collect_stages`` returns [stage0, stage1, stage2, stage3]
    summaries — the states Table IV reports (stage i = after substep i of
    the first cycle; later cycles still run for the final stage3).
    """
    check_edges(edges, summary.n_sub)
    f = Forest.from_summary(summary)
    pe = SignedEdges(zip(*(summary.pedges[c].tolist() for c in ("x", "y", "sign"))))
    stages = [f.to_summary(pe.triples())] if collect_stages else None
    for cycle in range(CYCLES):
        c1 = step1(f, pe)
        if collect_stages and cycle == 0:
            stages.append(f.to_summary(pe.triples()))
        c2 = step2(f, pe)
        if collect_stages and cycle == 0:
            stages.append(f.to_summary(pe.triples()))
        c3 = step3(f, pe, edges)
        if c1 == 0 and c2 == 0 and c3 == 0:
            break
    final = f.to_summary(pe.triples())
    if collect_stages:
        stages.append(final)
        return stages
    return final
