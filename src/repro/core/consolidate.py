"""Global cross-group consolidation of p/n-edges (the distributed Case 2).

After each merging round, edges that cross candidate-set boundaries were
read-only inside the group workers. This phase lifts
``(A, Y, s) + (B, Y, s) → (A∪B, Y, s)`` whenever *all* children of an
internal supernode carry the same-sign edge to the same other supernode
— an exactly coverage-preserving rewrite (the children partition the
parent), applied to a fixpoint so lifts can cascade up both sides of an
edge. Workers estimate the one-level version of this when scoring
Saving(A, B), so merge decisions anticipate this phase (DESIGN.md §3.2).
"""
from __future__ import annotations

from collections import defaultdict

from .forest import canon


def consolidate(
    edges: list[tuple[int, int, int]],
    parent: dict[int, int],
    children: dict[int, list[int]],
) -> list[tuple[int, int, int]]:
    """Lift cross-group edges up the hierarchy to a fixpoint.

    ``edges``: (x, y, sign) p/n-edges (x != y, trees of x and y differ).
    ``parent``/``children``: the supernode forest (child -> parent, and
    the full child list of every internal supernode), read only.
    Returns the consolidated edge list (canonical x <= y).
    """
    eset = {(*canon(x, y), s) for x, y, s in edges}
    changed = True
    while changed:
        changed = False
        cand: dict[tuple[int, int, int], set[int]] = defaultdict(set)
        for x, y, s in eset:
            for e, o in ((x, y), (y, x)):
                p = parent.get(e)
                if p is not None:
                    cand[(p, o, s)].add(e)
        for (p, o, s), present in sorted(cand.items()):
            kids = children[p]
            if not all(k in present for k in kids):
                continue
            old = [(*canon(k, o), s) for k in kids]
            lifted = (*canon(p, o), s)
            # skip if an earlier lift of this pass consumed a child's edge,
            # or if the lifted edge exists already: it would double cover
            # (never occurs under exact coverage, kept safe)
            if lifted in eset or not all(e in eset for e in old):
                continue
            eset.difference_update(old)
            eset.add(lifted)
            changed = True
    return sorted(eset)
