"""Partial decompression (Algorithm 4): neighbors of one subnode without
decoding the whole model.

``NeighborIndex`` precomputes the per-supernode structures Algorithm 4
walks once: parents and leaf lists from the summary's
:class:`repro.model.summary.Forest` (``parent`` and ``members()``) and
the incident p/n-edges, rejecting an edge to a supernode with no subnode
or with a sign other than ±1 (``checked_pedges``) and an edge between a
supernode and its ancestor (``Forest.ancestors``), as the decoders do.
``neighbors(v)`` then climbs v's ancestor chain, gathers the leaf lists
of the supernodes adjacent to it by sign, counts them with
``collections.Counter`` (in C), subtracts the n-edge counts and returns
the subnodes with net count 1.
This is the access path that lets BFS/PageRank/Dijkstra run directly on
a summary (Sect. VIII-C).
"""
from __future__ import annotations

from collections import Counter, defaultdict

from .summary import Forest, HierSummary, checked_pedges


class NeighborIndex:
    """Indexed summary supporting neighbor queries whose cost is the
    number of members adjacent to the query's ancestor chain, counted in
    C. Raises ValueError if a p/n-edge names an unknown id or a supernode
    that contains no subnode, has a sign other than ±1, or joins a
    supernode to its ancestor (a self-pair), as the decoders do."""

    def __init__(self, summary: HierSummary):
        self.summary = summary
        f = Forest.from_summary(summary)
        self.parent = f.parent
        self.members = f.members()
        self.inc: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for x, y, s in checked_pedges(summary, self.members):
            if x != y and (x in f.ancestors(y) or y in f.ancestors(x)):
                raise ValueError("self-pair: a p/n-edge joins a supernode to its ancestor")
            self.inc[x].append((y, s))
            if x != y:
                self.inc[y].append((x, s))

    def neighbors(self, v: int) -> list[int]:
        """One-hop neighbors of subnode v in the decoded graph (Alg. 4),
        sorted. Raises ValueError unless ``0 <= v < n_sub``: a supernode
        id or an id outside the graph names no subnode, and if a subnode
        other than v has net coverage outside {0, 1}, as the decoders do."""
        if not 0 <= v < self.summary.n_sub:
            raise ValueError(f"{v} is not a subnode id in [0, n_sub={self.summary.n_sub})")
        # each sign's member lists along v's chain, counted in C by Counter;
        # a self-loop (y == x) covers every member pair, v's included
        pos, neg = [], []
        node = v
        while node is not None:
            for y, s in self.inc.get(node, ()):
                (pos if s > 0 else neg).extend(self.members[y])
            node = self.parent.get(node)
        count = Counter(pos)
        count.subtract(neg)
        count.pop(v, None)
        out, bad = [], []
        for u, c in count.items():
            if c == 1:
                out.append(u)
            elif c:
                bad.append(u)
        if bad:
            raise ValueError(f"net coverage outside {{0,1}} at {bad[:5]}")
        return sorted(out)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))
