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
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..model.flat import FlatSummary


def encode_flat(edges: pd.DataFrame, group: np.ndarray) -> FlatSummary:
    """Compute the optimal flat encoding of ``group`` (sub -> supernode id)
    over ``edges``; ``P`` carries the ids of ``group``."""
    n_sub = len(group)
    group = np.array(group, dtype=np.int64)
    ids, g = np.unique(group, return_inverse=True)  # dense group per subnode
    k = len(ids)
    size = np.bincount(g, minlength=k)
    src, dst = (edges[c].to_numpy(dtype=np.int64) for c in ("src", "dst"))
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    gx, gy = np.minimum(g[lo], g[hi]), np.maximum(g[lo], g[hi])
    keys, pair_of, e_ab = np.unique(gx * k + gy, return_inverse=True, return_counts=True)
    px, py = keys // k, keys % k
    t_ab = np.where(px == py, size[px] * (size[px] - 1) // 2, size[px] * size[py])
    use_super = 1 + t_ab - e_ab < e_ab
    # C−: the member pairs of each superedge pair that are not edges. A
    # superedge needs T_AB < 2·E_AB − 1, so fewer than 2|E| pairs are built.
    members = np.split(np.argsort(g, kind="stable"), np.cumsum(size)[:-1])
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
    return FlatSummary(
        n_sub=n_sub,
        group=group,
        p=pd.DataFrame({"x": ids[px[use_super]], "y": ids[py[use_super]]}),
        cp=pd.DataFrame({"src": lo[cp], "dst": hi[cp]}),
        cn=pd.DataFrame({"src": cn // n_sub, "dst": cn % n_sub}),
    )
