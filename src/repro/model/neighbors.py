"""Partial decompression (Algorithm 4): neighbors of one subnode without
decoding the whole model.

``NeighborIndex`` precomputes the per-supernode structures Algorithm 4
walks once: parents and leaf lists from the summary's
:class:`repro.model.summary.Forest` (``parent`` and ``members()``) and
the incident p/n-edges, rejecting an edge to a supernode with no subnode
as the decoders do (``checked_pedges``). ``neighbors(v)`` then climbs
v's ancestor chain, accumulates signed counts over the leaf sets of
adjacent supernodes and returns the subnodes with net count 1.
This is the access path that lets BFS/PageRank/Dijkstra run directly on
a summary (Sect. VIII-C).
"""
from __future__ import annotations

from collections import defaultdict

from .summary import Forest, HierSummary, checked_pedges


class NeighborIndex:
    """Indexed summary supporting O(output)-ish neighbor queries. Raises
    ValueError if a p/n-edge names an unknown id or a supernode that
    contains no subnode."""

    def __init__(self, summary: HierSummary):
        self.summary = summary
        f = Forest.from_summary(summary)
        self.parent = f.parent
        self.members = f.members()
        self.inc: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for x, y, s in checked_pedges(summary, self.members):
            self.inc[x].append((y, s))
            if x != y:
                self.inc[y].append((x, s))

    def neighbors(self, v: int) -> list[int]:
        """One-hop neighbors of subnode v in the decoded graph (Alg. 4).
        Raises ValueError unless ``0 <= v < n_sub``: a supernode id or an
        id outside the graph names no subnode."""
        if not 0 <= v < self.summary.n_sub:
            raise ValueError(f"{v} is not a subnode id in [0, n_sub={self.summary.n_sub})")
        count: dict[int, int] = defaultdict(int)
        node = v
        chain = []
        while True:
            chain.append(node)
            if node not in self.parent:
                break
            node = self.parent[node]
        for x in chain:
            # a self-loop (y == x) covers every member pair, v's included
            for y, s in self.inc.get(x, []):
                for u in self.members[y]:
                    count[u] += s
        out = [u for u, c in count.items() if c == 1 and u != v]
        bad = [u for u, c in count.items() if u != v and c not in (0, 1)]
        assert not bad, f"net coverage outside {{0,1}} at {bad[:5]}"
        return sorted(out)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))
