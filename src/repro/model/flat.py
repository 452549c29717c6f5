"""The previous (Navlakha-style) graph summarization model
G̃ = (S, P, C+, C−): its costs and its optimal encoder.

Supernodes are a *partition* of the subnodes; ``P`` holds superedges
(including self-loops), C+/C− subnode-level corrections. Given the
partition, the best flat encoding picks, independently per supernode pair
(A, B) with E_AB > 0:
- a superedge (A, B) plus negative corrections for the missing pairs
  (cost 1 + |T_AB| − |E_AB|), or
- positive corrections for the present pairs (cost |E_AB|),
whichever is cheaper; a tie goes to the corrections (:func:`pair_cost`).

:class:`PairTable` makes that choice for every pair of a partition in
numpy; it is the one flat encoder. :func:`encode_flat` writes all of it
as the final step of SWEG / SAGS / RANDOMIZED / MOSSO, pruning Step 3
(:func:`repro.core.pruning.step3`) swaps it in per root pair where it is
cheaper, and SWEG's rounds read their per-pair counts from the table.
The flat model is the hierarchical one with trees of height 1
(Sect. II-B), so there is no flat summary type: the encoding is a
:class:`repro.model.summary.HierSummary`.

The dict helpers below are the one copy of each greedy-merge primitive,
over symmetric per-supernode pair counts ``cnt[a][x]`` (key ``a`` for the
pairs inside A): :func:`pair_cost` and :func:`supernode_cost` price a
supernode's pairs (Eq. 11) for SWEG, RANDOMIZED and MOSSO,
:func:`merged_counts` gives A∪B's counts, :func:`merge_into` folds two
supernodes into one (SWEG and RANDOMIZED keep the first id; SLUGGER's
group worker folds its root-pair counts into the new root) and
:func:`find` follows absorbed ids to their survivor (SWEG, RANDOMIZED,
SAGS).
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np
import pandas as pd

from .summary import Forest, HierSummary


class PairTable:
    """Subedge counts and flat costs per group pair of a partition.

    ``group`` maps every subnode to a group id, any int64 (SLUGGER's root
    ids reach 2^41), so pairs are keyed on dense ranks, never on raw ids:
    - ``ids``: the distinct group ids, ascending; ``g``: each subnode's
      rank in ``ids``; ``size``: the members per rank;
    - ``px <= py``: the rank pairs with a subedge, ascending; ``e``: their
      subedge counts; ``cost``: their flat cost (:func:`pair_cost`);
    - ``lo``, ``hi``, ``pair_of``: each edge as (min, max) and its pair.
    """

    def __init__(self, edges: pd.DataFrame, group: np.ndarray):
        self.n_sub = len(group)
        self.ids, self.g = np.unique(np.asarray(group, dtype=np.int64), return_inverse=True)
        k = len(self.ids)
        self.size = np.bincount(self.g, minlength=k)
        src, dst = (edges[c].to_numpy(dtype=np.int64) for c in ("src", "dst"))
        self.lo, self.hi = np.minimum(src, dst), np.maximum(src, dst)
        ga, gb = self.g[self.lo], self.g[self.hi]
        keys, self.pair_of, self.e = np.unique(
            np.minimum(ga, gb) * k + np.maximum(ga, gb), return_inverse=True, return_counts=True)
        self.px, self.py = keys // k, keys % k
        sx, sy = self.size[self.px], self.size[self.py]
        t = np.where(self.px == self.py, sx * (sx - 1) // 2, sx * sy)
        self.cost = np.minimum(self.e, t - self.e + 1)

    def expand(self, sel: np.ndarray, node: np.ndarray) -> list[tuple[int, int, int]]:
        """The optimal flat encoding of the pairs ``sel`` (indices) as
        p/n-edges ``(x, y, sign)``: where ``cost < e``, a superedge
        ``(node[px], node[py])`` and an n-edge per missing member pair (C−),
        else a p-edge per subedge (C+). C− is built for these pairs only;
        as a superedge needs T_AB < 2·E_AB − 1, fewer than 2|E| are built."""
        n = self.n_sub
        chosen = np.zeros(len(self.e), dtype=bool)
        chosen[sel] = True
        sup = chosen & (self.cost < self.e)
        cp = (chosen & ~sup)[self.pair_of]
        order, end = np.argsort(self.g, kind="stable"), np.cumsum(self.size)
        start = end - self.size
        codes = [np.empty(0, dtype=np.int64)]
        for x, y in zip(self.px[sup].tolist(), self.py[sup].tolist()):
            mx, my = order[start[x]:end[x]], order[start[y]:end[y]]
            if x == y:
                i, j = np.triu_indices(len(mx), 1)
                u, v = mx[i], mx[j]
            else:
                u, v = np.repeat(mx, len(my)), np.tile(my, len(mx))
            codes.append(np.minimum(u, v) * n + np.maximum(u, v))
        pairs = np.concatenate(codes)
        # lo * n + hi is unique per pair; it fits int64 while n_sub < 2**31
        in_sup = sup[self.pair_of]
        cn = pairs[~np.isin(pairs, self.lo[in_sup] * n + self.hi[in_sup])]
        x = np.concatenate([node[self.px[sup]], self.lo[cp], cn // n])
        y = np.concatenate([node[self.py[sup]], self.hi[cp], cn % n])
        s = np.repeat([1, 1, -1], [sup.sum(), cp.sum(), len(cn)])
        return list(zip(x.tolist(), y.tolist(), s.tolist()))


def encode_flat(edges: pd.DataFrame, group: np.ndarray) -> HierSummary:
    """The optimal flat encoding of ``group`` (sub -> supernode id) over
    ``edges`` as a height-1 summary: a group of two or more subnodes is the
    internal supernode ``n_sub + rank`` (ranked in ascending group id) over
    its members, a singleton group is its own subnode, superedges and C+
    are p-edges and C− are n-edges. Its Eq. (10) size is Eq. (11) of the
    partition."""
    tab = PairTable(edges, group)
    n_sub, g, size = tab.n_sub, tab.g, tab.size
    multi = size >= 2
    sup = n_sub + np.cumsum(multi) - 1
    single = ~multi[g]
    sup[g[single]] = np.flatnonzero(single)
    sizes = dict.fromkeys(range(n_sub), 1)
    sizes.update(zip(sup[multi].tolist(), size[multi].tolist()))
    forest = Forest(n_sub, sizes, zip(sup[g[~single]].tolist(), np.flatnonzero(~single).tolist()))
    return forest.to_summary(tab.expand(np.arange(len(tab.e)), sup))


def pair_cost(e: int, sa: int, sb: int, same: bool) -> int:
    """Flat-model cost of the ``e`` subedges between two supernodes of
    ``sa`` and ``sb`` subnodes (``same``: within one supernode of ``sa``):
    ``min(e, t − e + 1)`` over the ``t`` subnode pairs, i.e. ``e`` positive
    corrections or one superedge with ``t − e`` negative ones. The cost
    equals ``e`` exactly when the corrections win, ties included; it is
    :attr:`PairTable.cost`, so an encoding's number of p/n-edges
    (|P| + |C+| + |C−|) is the sum of this cost over the pairs."""
    if e <= 0:
        return 0
    t = sa * (sa - 1) // 2 if same else sa * sb
    return min(e, t - e + 1)


def supernode_cost(cnt: dict[int, int], sizes: dict[int, int], a: int, sa: int) -> int:
    """Σ_X pair_cost over the neighbours X of supernode ``a`` (``sa``
    subnodes), from its subedge counts ``cnt`` (X -> E_AX, key ``a`` for
    the pairs inside A)."""
    return sum(pair_cost(e, sa, sizes[x], x == a) for x, e in cnt.items())


def merged_counts(cnt: dict[int, dict[int, int]], a: int, b: int) -> dict[int, int]:
    """Subedge counts of A∪B, keyed like ``cnt[a]`` (the pairs inside go
    under ``a``). The symmetric store holds the (a, b) cross count in both
    dicts, so the self-count is assembled explicitly
    (E_UU = E_AA + E_BB + E_AB)."""
    merged: dict[int, int] = defaultdict(int)
    for c in (cnt[a], cnt[b]):
        for x, e in c.items():
            if x not in (a, b):
                merged[x] += e
    self_cnt = cnt[a].get(a, 0) + cnt[b].get(b, 0) + cnt[a].get(b, 0)
    if self_cnt:
        merged[a] = self_cnt
    return merged


def merge_into(cnt: dict[int, dict[int, int]], a: int, b: int, u: int) -> None:
    """Fold supernodes ``a`` and ``b`` into ``u`` (``a`` itself, or a new
    id): ``cnt[u]`` becomes :func:`merged_counts` with the pairs inside
    under ``u``, ``cnt[a]`` and ``cnt[b]`` go (when ``u == a``, ``cnt[a]``
    keeps its place in ``cnt``), and every neighbour held in ``cnt``
    re-keys its count to ``u`` at the end of its dict (a neighbour held
    elsewhere keeps its stale count). Sizes are the caller's to update."""
    merged = merged_counts(cnt, a, b)
    del cnt[b]
    if u != a:
        del cnt[a]
        if a in merged:
            merged[u] = merged.pop(a)
    cnt[u] = merged
    for x in merged:
        if x != u and x in cnt:
            m = cnt[x]
            m[u] = m.pop(a, 0) + m.pop(b, 0)


def find(parent: dict[int, int], v: int) -> int:
    """The survivor ``v`` was folded into: ``parent`` links each absorbed
    id to the id it was merged into, followed to the end."""
    while v in parent:
        v = parent[v]
    return v
