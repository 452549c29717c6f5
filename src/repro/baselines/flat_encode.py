"""Optimal flat encoding of a fixed partition (Navlakha's O(|E|) encoder).

Given the input graph and a partition of the subnodes into supernodes,
the best flat encoding picks, independently per supernode pair (A, B)
with E_AB > 0:
- a superedge (A, B) plus negative corrections for the missing pairs
  (cost 1 + |T_AB| − |E_AB|), or
- positive corrections for the present pairs (cost |E_AB|),
whichever is cheaper; a tie goes to the corrections, as in
:func:`repro.model.flat.pair_cost`. This is the final encoding step of
SWEG / SAGS / RANDOMIZED / MOSSO. It runs on the driver in numpy: one
``np.unique`` over the edges' group-pair keys gives every E_AB.

The flat model is the hierarchical one with trees of height 1 (Sect.
II-B), so the encoding is a :class:`repro.model.summary.HierSummary`: a
group of two or more subnodes is the internal supernode ``n_sub + rank``
(ranked in ascending group id) over its members, a singleton group is its
own subnode, superedges and positive corrections are p-edges and negative
corrections are n-edges. Its Eq. (10) size is Eq. (11) of the partition.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..model.summary import Forest, HierSummary


def encode_flat(edges: pd.DataFrame, group: np.ndarray) -> HierSummary:
    """Compute the optimal flat encoding of ``group`` (sub -> supernode id)
    over ``edges`` as a height-1 summary."""
    n_sub = len(group)
    ids, g = np.unique(np.asarray(group, dtype=np.int64), return_inverse=True)
    k = len(ids)
    size = np.bincount(g, minlength=k)
    order, end = np.argsort(g, kind="stable"), np.cumsum(size)
    members = np.split(order, end[:-1])
    # each dense group's supernode: n_sub + rank if it has >= 2 members,
    # else its one subnode
    multi = size >= 2
    sup = np.where(multi, n_sub + np.cumsum(multi) - 1, order[end - size])
    src, dst = (edges[c].to_numpy(dtype=np.int64) for c in ("src", "dst"))
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    gx, gy = np.minimum(g[lo], g[hi]), np.maximum(g[lo], g[hi])
    keys, pair_of, e_ab = np.unique(gx * k + gy, return_inverse=True, return_counts=True)
    px, py = keys // k, keys % k
    t_ab = np.where(px == py, size[px] * (size[px] - 1) // 2, size[px] * size[py])
    use_super = 1 + t_ab - e_ab < e_ab
    # C−: the member pairs of each superedge pair that are not edges. A
    # superedge needs T_AB < 2·E_AB − 1, so fewer than 2|E| pairs are built.
    codes = [np.empty(0, dtype=np.int64)]
    for x, y in zip(px[use_super].tolist(), py[use_super].tolist()):
        mx, my = members[x], members[y]
        if x == y:
            i, j = np.triu_indices(len(mx), 1)
            u, v = mx[i], mx[j]
        else:
            u, v = np.repeat(mx, len(my)), np.tile(my, len(mx))
        codes.append(np.minimum(u, v) * n_sub + np.maximum(u, v))
    pairs = np.concatenate(codes)
    # lo * n_sub + hi is unique per pair; it fits int64 while n_sub < 2**31
    cn = pairs[~np.isin(pairs, lo * n_sub + hi)]
    cp = ~use_super[pair_of]
    sizes = dict.fromkeys(range(n_sub), 1)
    sizes.update(zip(sup[multi].tolist(), size[multi].tolist()))
    in_multi = multi[g]
    forest = Forest(n_sub, sizes, zip(sup[g[in_multi]].tolist(), np.flatnonzero(in_multi).tolist()))
    # superedges and C+ are p-edges, C− are n-edges
    x = np.concatenate([sup[px[use_super]], lo[cp], cn // n_sub])
    y = np.concatenate([sup[py[use_super]], hi[cp], cn % n_sub])
    s = np.repeat([1, 1, -1], [use_super.sum(), cp.sum(), len(cn)])
    return forest.to_summary(zip(x.tolist(), y.tolist(), s.tolist()))
