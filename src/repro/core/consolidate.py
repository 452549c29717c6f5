"""Global cross-group consolidation of p/n-edges (the distributed Case 2).

After each merging round, edges that cross candidate-set boundaries were
read-only inside the group workers. This phase lifts
``(A, Y, s) + (B, Y, s) → (A∪B, Y, s)`` whenever *all* children of an
internal supernode carry the same-sign edge to the same other supernode
— an exactly coverage-preserving rewrite (the children partition the
parent), applied to a fixpoint so lifts can cascade up both sides of an
edge. Workers estimate the one-level version of this when scoring
Saving(A, B), so merge decisions anticipate this phase (DESIGN.md §3.2).

Lifts are not confluent (an edge may lift on either side), so the phase
runs in passes, each walking its candidate keys ``(parent, other, sign)``
in sorted order. It is a worklist: a count per key of the children that
hold the edge says when the key is *full* (can lift), and a pass walks
only the full keys that the last pass touched or found blocked by an
existing lifted edge. Any other full key was full and unblocked in the
last pass with all its edges present, so it would have lifted then; the
passes therefore lift exactly what rescanning every edge each pass would.
"""
from __future__ import annotations

from collections import Counter

from ..model.summary import canon


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
    # count[(p, o, s)]: the children k of p with the edge (k, o, s); the
    # key can lift when the count is len(children[p]) (it is *full*)
    count = Counter((parent[e], o, s) for x, y, s in eset
                    for e, o in ((x, y), (y, x)) if e in parent)

    def bump(edge: tuple[int, int, int], d: int, touched: set) -> None:
        x, y, s = edge
        for e, o in ((x, y), (y, x)):
            p = parent.get(e)
            if p is not None:
                count[(p, o, s)] += d
                touched.add((p, o, s))

    todo = set(count)
    while todo:
        full = sorted(k for k in todo if count[k] == len(children[k[0]]))
        todo, blocked = set(), []
        for p, o, s in full:
            old = [(*canon(k, o), s) for k in children[p]]
            lifted = (*canon(p, o), s)
            # the lifted edge exists already: it would double cover (never
            # occurs under exact coverage, kept safe); a later pass retries
            # once an earlier key has consumed it
            if lifted in eset:
                blocked.append((p, o, s))
                continue
            # an earlier lift of this pass consumed a child's edge
            if not all(e in eset for e in old):
                continue
            eset.difference_update(old)
            eset.add(lifted)
            for e in old:
                bump(e, -1, todo)
            bump(lifted, 1, todo)
        if todo:
            todo.update(blocked)
    return sorted(eset)
