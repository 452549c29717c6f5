"""The previous (Navlakha-style) graph summarization model
G̃ = (S, P, C+, C−) — substrate for all four baselines and for SLUGGER's
pruning Step 3 comparison, which share its cost helpers
(:func:`pair_cost`, :func:`supernode_cost`, :func:`merged_counts`).

Supernodes are a *partition* of the subnodes (``group``: sub -> group id).
``P`` holds superedges (including self-loops), ``cp``/``cn`` hold
subnode-level corrections.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pandas as pd

from .cost import HierMetrics


def pair_cost(e: int, sa: int, sb: int, same: bool) -> int:
    """Flat-model cost of the ``e`` subedges between two supernodes of
    ``sa`` and ``sb`` subnodes (``same``: within one supernode of ``sa``):
    ``min(e, t − e + 1)`` over the ``t`` subnode pairs, i.e. ``e`` positive
    corrections or one superedge with ``t − e`` negative ones. The cost
    equals ``e`` exactly when the corrections win, ties included.
    :func:`repro.baselines.flat_encode.encode_flat` decides each pair by
    this rule, so its ``|P| + |C+| + |C−|`` is the sum of this cost over
    the pairs."""
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
    for x, e in cnt[a].items():
        if x not in (a, b):
            merged[x] += e
    for x, e in cnt[b].items():
        if x not in (a, b):
            merged[x] += e
    self_cnt = cnt[a].get(a, 0) + cnt[b].get(b, 0) + cnt[a].get(b, 0)
    if self_cnt:
        merged[a] = self_cnt
    return merged


@dataclass
class FlatSummary:
    """A flat summary of a graph with ``n_sub`` subnodes."""

    n_sub: int
    group: np.ndarray  # int64[n_sub]: supernode id per subnode
    p: pd.DataFrame  # (x, y) superedges, x <= y
    cp: pd.DataFrame  # (src, dst) positive corrections, src < dst
    cn: pd.DataFrame  # (src, dst) negative corrections, src < dst

    def group_sizes(self) -> pd.Series:
        return pd.Series(self.group).value_counts()

    def h_star(self) -> int:
        """|H*| of Eq. (11): height-1 hierarchy edges — one per subnode in a
        non-singleton supernode."""
        sizes = self.group_sizes()
        return int(sizes[sizes >= 2].sum())

    def metrics(self, n_edges_in: int) -> HierMetrics:
        """Express the flat summary in the unified metric bundle: P -> P+,
        C+ folds into P+, C− into P−, H* into H (Sect. II-B equivalence);
        ``relative_size`` is then Eq. (11)."""
        p_plus = len(self.p) + len(self.cp)
        p_minus = len(self.cn)
        n_h = self.h_star()
        total = p_plus + p_minus + n_h
        sizes = self.group_sizes()
        n_groups_ns = int((sizes >= 2).sum())
        # height-1 trees: leaves under non-singleton supernodes have depth 1
        depth_sum = int(sizes[sizes >= 2].sum())
        return HierMetrics(
            n_p_plus=p_plus,
            n_p_minus=p_minus,
            n_h=n_h,
            n_edges_in=n_edges_in,
            relative_size=total / max(1, n_edges_in),
            max_height=1 if n_groups_ns else 0,
            avg_leaf_depth=depth_sum / max(1, self.n_sub),
            frac_p=p_plus / max(1, total),
            frac_n=p_minus / max(1, total),
            frac_h=n_h / max(1, total),
        )


def decode_flat_pd(fs: FlatSummary) -> pd.DataFrame:
    """Decode a flat summary back to the exact edge set (pandas)."""
    members: dict[int, list[int]] = {}
    for u, gid in enumerate(fs.group):
        members.setdefault(int(gid), []).append(u)
    pairs: set[tuple[int, int]] = set()
    for x, y in zip(fs.p["x"].astype(int), fs.p["y"].astype(int)):
        if x == y:
            mem = members[x]
            for i in range(len(mem)):
                for j in range(i + 1, len(mem)):
                    pairs.add((mem[i], mem[j]))
        else:
            for u in members[x]:
                for v in members[y]:
                    pairs.add((u, v) if u < v else (v, u))
    for s, d in zip(fs.cp["src"].astype(int), fs.cp["dst"].astype(int)):
        pairs.add((s, d) if s < d else (d, s))
    for s, d in zip(fs.cn["src"].astype(int), fs.cn["dst"].astype(int)):
        pairs.discard((s, d) if s < d else (d, s))
    out = sorted(pairs)
    return pd.DataFrame(
        {
            "src": np.array([p[0] for p in out], dtype=np.int64),
            "dst": np.array([p[1] for p in out], dtype=np.int64),
        }
    )
