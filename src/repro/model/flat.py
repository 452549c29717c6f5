"""Cost helpers of the previous (Navlakha-style) graph summarization model
G̃ = (S, P, C+, C−), shared by the four baselines' merge searches and by
SLUGGER's pruning Step 3 comparison.

Supernodes are a *partition* of the subnodes; ``P`` holds superedges
(including self-loops), C+/C− subnode-level corrections. The model itself
is the hierarchical one with trees of height 1 (Sect. II-B), so there is
no separate flat summary type:
:func:`repro.baselines.flat_encode.encode_flat` writes a partition's
optimal encoding as a :class:`repro.model.summary.HierSummary`.
"""
from __future__ import annotations

from collections import defaultdict


def pair_cost(e: int, sa: int, sb: int, same: bool) -> int:
    """Flat-model cost of the ``e`` subedges between two supernodes of
    ``sa`` and ``sb`` subnodes (``same``: within one supernode of ``sa``):
    ``min(e, t − e + 1)`` over the ``t`` subnode pairs, i.e. ``e`` positive
    corrections or one superedge with ``t − e`` negative ones. The cost
    equals ``e`` exactly when the corrections win, ties included.
    :func:`repro.baselines.flat_encode.encode_flat` decides each pair by
    this rule, so its number of p/n-edges (|P| + |C+| + |C−|) is the sum
    of this cost over the pairs."""
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
