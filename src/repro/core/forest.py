"""The mutable form of the model Ḡ = (S, P+, P−, H) (Sect. II) that the
SLUGGER driver, the group worker (Algorithm 2) and pruning (Algorithm 3)
edit: a supernode :class:`Forest` (S and H) and a :class:`SignedEdges`
store (P+ and P−). :class:`repro.model.summary.HierSummary` is the frozen
table form that goes in and out.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Iterable

import numpy as np
import pandas as pd

from ..model.summary import HierSummary


def canon(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x <= y else (y, x)


class Forest:
    """Supernode sizes and the containment forest H as parent/children maps.

    ``n_sub`` is the number of subnodes (ids ``0..n_sub-1``); only
    :meth:`leaf_root` and :meth:`to_summary` read it, so a forest that
    holds some trees only (a group worker's) passes 0. Children lists keep
    their insertion order, which fixes the order of :meth:`tree`."""

    __slots__ = ("n_sub", "size", "parent", "children")

    def __init__(self, n_sub: int, size: dict[int, int],
                 hedges: Iterable[tuple[int, int]] = ()):
        self.n_sub, self.size = n_sub, size
        self.parent: dict[int, int] = {}
        self.children: dict[int, list[int]] = {}
        for p, c in hedges:
            self.children.setdefault(p, []).append(c)
            self.parent[c] = p

    @classmethod
    def from_summary(cls, summary: HierSummary) -> "Forest":
        nodes, hedges = summary.nodes, summary.hedges
        return cls(summary.n_sub, dict(zip(nodes["nid"].tolist(), nodes["size"].tolist())),
                   zip(hedges["parent"].tolist(), hedges["child"].tolist()))

    def merge(self, a: int, b: int, u: int) -> None:
        """Make the new supernode ``u`` the parent of roots ``a`` and ``b``."""
        self.children[u] = [a, b]
        self.parent[a] = u
        self.parent[b] = u
        self.size[u] = self.size[a] + self.size[b]

    def drop(self, a: int) -> None:
        """Remove supernode ``a``; its children move up to its parent, or
        become roots."""
        kids = self.children.pop(a, [])
        p = self.parent.pop(a, None)
        for c in kids:
            if p is None:
                del self.parent[c]
            else:
                self.parent[c] = p
                self.children[p].append(c)
        if p is not None:
            self.children[p].remove(a)
        del self.size[a]

    def roots(self) -> list[int]:
        return [v for v in self.size if v not in self.parent]

    def tree(self, r: int) -> list[int]:
        """Every supernode of the tree under ``r``, in depth-first order."""
        stack, out = [r], []
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children.get(v, ()))
        return out

    def leaves(self, r: int) -> list[int]:
        """The subnodes under ``r``, in :meth:`tree` order."""
        return [v for v in self.tree(r) if v not in self.children]

    def leaf_root(self) -> np.ndarray:
        """int64 array: the root of every subnode's tree."""
        out = np.arange(self.n_sub, dtype=np.int64)
        for r in self.roots():
            if r in self.children:
                for v in self.leaves(r):
                    out[v] = r
        return out

    def to_summary(self, edges: Iterable[tuple[int, int, int]]) -> HierSummary:
        """The summary of this forest with the p/n-edges ``(x, y, sign)``
        (either orientation), every table sorted."""
        nids = sorted(self.size)
        childs = sorted(self.parent)
        pe = sorted((*canon(x, y), s) for x, y, s in edges)

        def frame(**cols) -> pd.DataFrame:
            return pd.DataFrame({k: np.array(v, dtype=np.int64) for k, v in cols.items()})

        return HierSummary(
            n_sub=self.n_sub,
            nodes=frame(nid=nids, size=[self.size[v] for v in nids]),
            hedges=frame(parent=[self.parent[c] for c in childs], child=childs),
            pedges=frame(x=[e[0] for e in pe], y=[e[1] for e in pe], sign=[e[2] for e in pe]),
        )


class SignedEdges(dict):
    """The p/n-edges as a dict ``(min, max) -> sign`` plus an adjacency map
    ``v -> {neighbour: sign}`` (a self-loop is one entry). Adding an edge
    that is already there fails an assertion."""

    __slots__ = ("adj",)

    def __init__(self, edges: Iterable[tuple[int, int, int]] = ()):
        super().__init__()
        self.adj: dict[int, dict[int, int]] = defaultdict(dict)
        for x, y, s in edges:
            self.add(x, y, s)

    def add(self, x: int, y: int, s: int) -> None:
        key = canon(x, y)
        assert key not in self, f"duplicate edge {key}"
        self[key] = s
        self.adj[x][y] = s
        self.adj[y][x] = s

    def remove(self, x: int, y: int) -> None:
        del self[canon(x, y)]
        del self.adj[x][y]
        if x != y:
            del self.adj[y][x]

    def incident(self, v: int) -> dict[int, int]:
        return self.adj.get(v, {})

    def triples(self) -> list[tuple[int, int, int]]:
        return [(x, y, s) for (x, y), s in self.items()]
