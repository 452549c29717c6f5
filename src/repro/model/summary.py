"""The hierarchical graph summarization model Ḡ = (S, P+, P−, H).

``HierSummary`` is the output type of SLUGGER and the input to the
decoder, the metrics, and the partial-decompression routines. Supernodes
are identified by int64 ids; the singleton supernode {u} has id == u
(subnode ids are 0..n_sub-1), internal supernodes get larger ids.

Tables (pandas). SLUGGER edits a :class:`repro.core.forest.Forest` and
edge list during its rounds and writes these tables once, after the last
round; pruning reads them and writes them again (DESIGN.md §3.2):
- ``nodes``:  (nid, size) — every supernode, including singletons.
- ``hedges``: (parent, child) — the containment forest H.
- ``pedges``: (x, y, sign) — P+ rows with sign=+1, P− rows with sign=−1;
  canonical x <= y (x == y is a supernode self-loop).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

NODE_COLS = ["nid", "size"]
HEDGE_COLS = ["parent", "child"]
PEDGE_COLS = ["x", "y", "sign"]


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

    # ---- derived structure -------------------------------------------------

    def parent_map(self) -> dict[int, int]:
        return dict(
            zip(self.hedges["child"].astype(int), self.hedges["parent"].astype(int))
        )

    def children_map(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {}
        for p, c in zip(self.hedges["parent"].astype(int), self.hedges["child"].astype(int)):
            ch.setdefault(p, []).append(c)
        return ch

    def roots(self) -> np.ndarray:
        """Supernodes without a parent."""
        has_parent = set(self.hedges["child"].astype(int))
        nids = self.nodes["nid"].to_numpy(dtype=np.int64)
        return np.array([v for v in nids if int(v) not in has_parent], dtype=np.int64)

    def leaf_members(self) -> dict[int, list[int]]:
        """supernode id -> sorted list of contained subnodes (leaf ids)."""
        ch = self.children_map()
        memo: dict[int, list[int]] = {}

        def collect(v: int) -> list[int]:
            if v in memo:
                return memo[v]
            if v not in ch:
                memo[v] = [v]
            else:
                out: list[int] = []
                for c in ch[v]:
                    out.extend(collect(c))
                out.sort()
                memo[v] = out
            return memo[v]

        for v in self.nodes["nid"].astype(int):
            collect(v)
        return memo

    def membership(self) -> pd.DataFrame:
        """(sub, sup) int64 rows for every subnode u and every supernode
        containing u (including the singleton {u} itself), sorted by sub
        and then from {u} up to its root.

        The Spark ``decode`` reads each supernode's members and root from
        it (``decode.tree_pair_rows``). Built on the driver with one
        vectorized step per tree level: the h-edges are sorted by child
        once, and each step looks up the parents of the current frontier
        with ``np.searchsorted``. Supernode ids reach about 2**40
        (``groupmerge.new_id``), so nothing is indexed by id.
        ``decode_pd`` uses ``leaf_members`` instead, which keeps the two
        decoders independent."""
        child = self.hedges["child"].to_numpy(dtype=np.int64)
        order = np.argsort(child, kind="stable")
        child = child[order]
        parent = self.hedges["parent"].to_numpy(dtype=np.int64)[order]
        sub = np.arange(self.n_sub, dtype=np.int64)
        sup = sub
        subs, sups = [sub], [sup]
        while len(sup):
            i = np.searchsorted(child, sup)
            up = i < len(child)
            up[up] = child[i[up]] == sup[up]
            sub, sup = sub[up], parent[i[up]]
            subs.append(sub)
            sups.append(sup)
        sub, sup = np.concatenate(subs), np.concatenate(sups)
        order = np.argsort(sub, kind="stable")
        return pd.DataFrame({"sub": sub[order], "sup": sup[order]})

    # ---- invariants --------------------------------------------------------

    def validate(self) -> None:
        """Structural invariants: forest well-formedness, singleton leaves,
        consistent sizes, canonical signed p/n-edges, none between a
        supernode and its ancestor. Raises AssertionError."""
        nids = set(self.nodes["nid"].astype(int))
        assert len(nids) == len(self.nodes), "duplicate supernode ids"
        assert set(range(self.n_sub)) <= nids, "missing singleton supernodes"
        # each child has exactly one parent; parents/children are known nodes
        assert self.hedges["child"].is_unique, "a supernode has two parents"
        for col in ("parent", "child"):
            assert set(self.hedges[col].astype(int)) <= nids, f"unknown {col} in hedges"
        # leaves of the forest are exactly the singleton supernodes
        ch = self.children_map()
        for v in nids:
            if v >= self.n_sub:
                assert v in ch and len(ch[v]) >= 1, f"internal supernode {v} has no children"
            else:
                assert v not in ch, f"singleton {v} has children"
        # acyclic: walking up from every leaf terminates
        parent = self.parent_map()
        for u in range(self.n_sub):
            seen = set()
            v = u
            while v in parent:
                assert v not in seen, "cycle in hierarchy"
                seen.add(v)
                v = parent[v]
        # sizes consistent with the tree
        members = self.leaf_members()
        size = dict(zip(self.nodes["nid"].astype(int), self.nodes["size"].astype(int)))
        for v in nids:
            assert size[v] == len(members[v]), f"size mismatch at supernode {v}"
        # p/n-edges canonical and signed
        if len(self.pedges):
            assert (self.pedges["x"] <= self.pedges["y"]).all(), "pedges not canonical"
            assert set(self.pedges["sign"].astype(int)) <= {1, -1}, "bad sign"
            assert set(self.pedges["x"].astype(int)) <= nids
            assert set(self.pedges["y"].astype(int)) <= nids
            dup = self.pedges.duplicated(subset=["x", "y", "sign"]).any()
            assert not dup, "duplicate p/n-edge"

        # an edge covers pairs of its endpoints' members, so an edge between
        # a supernode and its ancestor would cover self-pairs (u, u)
        def ancestors(v: int):
            while v in parent:
                v = parent[v]
                yield v

        for x, y in zip(self.pedges["x"].astype(int), self.pedges["y"].astype(int)):
            assert x == y or (x not in ancestors(y) and y not in ancestors(x)), (
                f"p/n-edge ({x}, {y}) joins a supernode to its ancestor"
            )

    def copy(self) -> "HierSummary":
        return HierSummary(
            n_sub=self.n_sub,
            nodes=self.nodes.copy(),
            hedges=self.hedges.copy(),
            pedges=self.pedges.copy(),
        )
