"""The hierarchical graph summarization model Ḡ = (S, P+, P−, H) (Sect. II).

Supernodes are identified by int64 ids; the singleton supernode {u} has
id == u (subnode ids are 0..n_sub-1), internal supernodes get larger ids.
The model has two forms:

- :class:`HierSummary`, the frozen table form: the output of SLUGGER and
  of the four baselines (height-1 trees, see
  :func:`repro.model.flat.encode_flat`), and the input of the decoders, the
  metrics, partial decompression and pruning.
  Its tables (pandas) are
  - ``nodes``:  (nid, size) — every supernode, including singletons;
  - ``hedges``: (parent, child) — the containment forest H;
  - ``pedges``: (x, y, sign) — P+ rows with sign=+1, P− rows with
    sign=−1; canonical x <= y (x == y is a supernode self-loop).
- :class:`Forest` (S and H) with :class:`SignedEdges` (P+ and P−), the
  mutable form. The SLUGGER driver, the group worker (Algorithm 2) and
  pruning (Algorithm 3) edit it, and every reader of a ``HierSummary``
  walks the one ``Forest.from_summary`` builds (DESIGN.md §3.2).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import pandas as pd


def canon(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x <= y else (y, x)


def empty_hedges() -> pd.DataFrame:
    return pd.DataFrame(
        {"parent": pd.Series(dtype=np.int64), "child": pd.Series(dtype=np.int64)}
    )


def empty_pedges() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "x": pd.Series(dtype=np.int64),
            "y": pd.Series(dtype=np.int64),
            "sign": pd.Series(dtype=np.int64),
        }
    )


@dataclass
class HierSummary:
    """A hierarchical graph summary of a graph with ``n_sub`` subnodes."""

    n_sub: int
    nodes: pd.DataFrame  # (nid, size)
    hedges: pd.DataFrame  # (parent, child)
    pedges: pd.DataFrame  # (x, y, sign)

    @staticmethod
    def identity(edges: pd.DataFrame, n_sub: int) -> "HierSummary":
        """The trivial summary: every subnode its own root, every subedge a
        p-edge between singletons (Algorithm 1 lines 1–3), written x < y
        whatever the edge's orientation in ``edges``."""
        nodes = pd.DataFrame(
            {"nid": np.arange(n_sub, dtype=np.int64), "size": np.ones(n_sub, dtype=np.int64)}
        )
        src, dst = (edges[c].to_numpy(dtype=np.int64) for c in ("src", "dst"))
        pe = pd.DataFrame(
            {
                "x": np.minimum(src, dst),
                "y": np.maximum(src, dst),
                "sign": np.ones(len(edges), dtype=np.int64),
            }
        )
        return HierSummary(n_sub=n_sub, nodes=nodes, hedges=empty_hedges(), pedges=pe)

    def validate(self) -> None:
        """Structural invariants: forest well-formedness, singleton leaves,
        consistent sizes, canonical signed p/n-edges, none between a
        supernode and its ancestor. Raises ValueError, which ``python -O``
        keeps."""
        nids = set(self.nodes["nid"].astype(int))
        if len(nids) != len(self.nodes):
            raise ValueError("duplicate supernode ids")
        if not set(range(self.n_sub)) <= nids:
            raise ValueError("missing singleton supernodes")
        # each child has exactly one parent; parents/children are known nodes
        if not self.hedges["child"].is_unique:
            raise ValueError("a supernode has two parents")
        for col in ("parent", "child"):
            if not set(self.hedges[col].astype(int)) <= nids:
                raise ValueError(f"unknown {col} in hedges")
        # leaves of the forest are exactly the singleton supernodes
        f = Forest.from_summary(self)
        for v in nids:
            if v >= self.n_sub and not f.children.get(v):
                raise ValueError(f"internal supernode {v} has no children")
            if v < self.n_sub and v in f.children:
                raise ValueError(f"singleton {v} has children")
        # acyclic: with one parent each, a node on a cycle lies under no root
        if len(f.root_of()) != len(nids):
            raise ValueError("cycle in hierarchy")
        # sizes consistent with the tree
        members = f.members()
        for v in nids:
            if f.size[v] != len(members[v]):
                raise ValueError(f"size mismatch at supernode {v}")
        # p/n-edges canonical and signed
        if len(self.pedges):
            if not (self.pedges["x"] <= self.pedges["y"]).all():
                raise ValueError("pedges not canonical")
            if not set(self.pedges["sign"].astype(int)) <= {1, -1}:
                raise ValueError("bad sign")
            for col in ("x", "y"):
                if not set(self.pedges[col].astype(int)) <= nids:
                    raise ValueError(f"unknown {col} in pedges")
            if self.pedges.duplicated(subset=["x", "y", "sign"]).any():
                raise ValueError("duplicate p/n-edge")

        # an edge covers pairs of its endpoints' members, so an edge between
        # a supernode and its ancestor would cover self-pairs (u, u)
        for x, y in zip(self.pedges["x"].astype(int), self.pedges["y"].astype(int)):
            if x != y and (x in f.ancestors(y) or y in f.ancestors(x)):
                raise ValueError(f"p/n-edge ({x}, {y}) joins a supernode to its ancestor")


@dataclass
class SummaryResult:
    """A summarizer's output and the run's wall time. ``summary`` is None
    when RANDOMIZED or MOSSO went over its fixed work budget (OOT)."""

    summary: HierSummary | None
    elapsed_s: float


class Forest:
    """Supernode sizes and the containment forest H as parent/children maps.

    ``n_sub`` is the number of subnodes (ids ``0..n_sub-1``); a forest that
    holds some trees only (a group worker's) passes 0 and reads neither
    :meth:`members`, :meth:`leaf_root` nor :meth:`to_summary`. Children
    lists keep their insertion order, which fixes the order of
    :meth:`tree`. Every walk is iterative, so a tree of any depth is fine."""

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
        """Every supernode of the tree under ``r``, in depth-first order
        (each parent before its children)."""
        stack, out = [r], []
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children.get(v, ()))
        return out

    def ancestors(self, v: int) -> Iterator[int]:
        """The proper ancestors of ``v``, nearest first."""
        while v in self.parent:
            v = self.parent[v]
            yield v

    def leaves(self, r: int) -> list[int]:
        """The subnodes under ``r``, in :meth:`tree` order."""
        return [v for v in self.tree(r) if v not in self.children]

    def root_of(self) -> dict[int, int]:
        """Every supernode under a root -> that root. A node on a cycle of
        h-edges lies under no root and is left out."""
        return {v: r for r in self.roots() for v in self.tree(r)}

    def members(self) -> dict[int, list[int]]:
        """Every supernode under a root -> its subnodes, sorted. A childless
        id >= ``n_sub`` holds no subnode."""
        out: dict[int, list[int]] = {}
        for r in self.roots():
            for v in reversed(self.tree(r)):  # children before their parent
                kids = self.children.get(v)
                if kids:
                    m = [u for c in kids for u in out[c]]
                    m.sort()
                    out[v] = m
                else:
                    out[v] = [v] if v < self.n_sub else []
        return out

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


def checked_pedges(summary: HierSummary,
                   members: dict[int, list[int]]) -> list[tuple[int, int, int]]:
    """The summary's p/n-edges as ``(x, y, sign)`` tuples in table order,
    given its :meth:`Forest.members`. Raises ValueError if an edge names an
    unknown id or a supernode that contains no subnode, which would
    otherwise decode to nothing, or whose sign is not +1 or -1, which a
    coverage count would drop (0) or count more than once (2, -2)."""
    edges = list(zip(*(summary.pedges[c].tolist() for c in ("x", "y", "sign"))))
    for x, y, s in edges:
        if not (members.get(x) and members.get(y)):
            raise ValueError(f"a p/n-edge ({x}, {y}) names a supernode that contains no subnode")
        if s not in (1, -1):
            raise ValueError(f"a p/n-edge ({x}, {y}) has sign {s}, not +1 or -1")
    return edges


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
