"""Pruning step (Sect. III-B4 / Algorithm 3): removes supernodes that do
not contribute to concise encoding, with zero information loss.

- **Step 1**: drop every non-leaf supernode with no incident p/n-edge,
  splicing its children to its parent (or promoting them to roots).
- **Step 2**: drop every root with exactly one incident non-loop
  p/n-edge (A, B, s): each child either cancels an opposite-sign edge to
  B or inherits a same-sign edge to B. (Skipped if a child already has a
  same-sign edge to B — the rewrite could not stay exact.)
- **Step 3**: per root pair (including self pairs), if the optimal *flat*
  encoding of the subedges between the two trees (superedge+negative
  corrections vs. positive corrections, Navlakha) is cheaper than the
  current p/n-edges between the trees, swap it in.

Step 3 can strand internal supernodes without edges, so the three steps
are cycled (paper: "repeated a few times"). Every rewrite preserves the
exact coverage of the affected subnode pairs, so losslessness is
maintained throughout; each substep's output can be snapshotted for
Table IV via ``prune(..., collect_stages=True)``.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np
import pandas as pd

from ..graphs.ops import check_edges
from ..model.summary import HierSummary, empty_hedges


class _PruneState:
    """Dict-based mutable view of a summary during pruning."""

    def __init__(self, summary: HierSummary):
        self.n_sub = summary.n_sub
        self.size = dict(
            zip(summary.nodes["nid"].astype(int), summary.nodes["size"].astype(int))
        )
        self.children: dict[int, list[int]] = defaultdict(list)
        self.parent: dict[int, int] = {}
        for p, c in zip(
            summary.hedges["parent"].astype(int), summary.hedges["child"].astype(int)
        ):
            self.children[p].append(c)
            self.parent[c] = p
        self.edges: dict[tuple[int, int], int] = {}
        self.adj: dict[int, dict[int, int]] = defaultdict(dict)
        for x, y, s in zip(
            summary.pedges["x"].astype(int),
            summary.pedges["y"].astype(int),
            summary.pedges["sign"].astype(int),
        ):
            self._add(int(x), int(y), int(s))

    # --- edge primitives ---
    def _add(self, x: int, y: int, s: int) -> None:
        a, b = (x, y) if x <= y else (y, x)
        assert (a, b) not in self.edges
        self.edges[(a, b)] = s
        self.adj[a][b] = s
        if a != b:
            self.adj[b][a] = s

    def _remove(self, x: int, y: int) -> None:
        a, b = (x, y) if x <= y else (y, x)
        del self.edges[(a, b)]
        del self.adj[a][b]
        if a != b:
            del self.adj[b][a]

    def incident(self, v: int) -> dict[int, int]:
        return self.adj.get(v, {})

    # --- structure ---
    def drop_node(self, a: int) -> None:
        """Remove supernode a from the forest, splicing children upward."""
        kids = self.children.pop(a, [])
        p = self.parent.pop(a, None)
        for c in kids:
            if p is None:
                self.parent.pop(c, None)
            else:
                self.parent[c] = p
                self.children[p].append(c)
        if p is not None:
            self.children[p].remove(a)
        del self.size[a]

    def roots(self) -> list[int]:
        return [v for v in self.size if v not in self.parent]

    def leaf_root(self) -> np.ndarray:
        out = np.arange(self.n_sub, dtype=np.int64)
        for u in range(self.n_sub):
            v = u
            while v in self.parent:
                v = self.parent[v]
            out[u] = v
        return out

    def tree_nodes(self, r: int) -> list[int]:
        stack, out = [r], []
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children.get(v, []))
        return out

    def leaves(self, r: int) -> list[int]:
        return [v for v in self.tree_nodes(r) if v < self.n_sub]

    def to_summary(self) -> HierSummary:
        nids = sorted(self.size)
        nodes = pd.DataFrame(
            {"nid": np.array(nids, dtype=np.int64),
             "size": np.array([self.size[v] for v in nids], dtype=np.int64)}
        )
        if self.parent:
            hedges = pd.DataFrame(
                {"parent": np.array([p for _, p in sorted(self.parent.items())], dtype=np.int64),
                 "child": np.array(sorted(self.parent), dtype=np.int64)}
            )
        else:
            hedges = empty_hedges()
        items = sorted(self.edges.items())
        pedges = pd.DataFrame(
            {"x": np.array([k[0] for k, _ in items], dtype=np.int64),
             "y": np.array([k[1] for k, _ in items], dtype=np.int64),
             "sign": np.array([s for _, s in items], dtype=np.int64)}
        )
        return HierSummary(n_sub=self.n_sub, nodes=nodes, hedges=hedges, pedges=pedges)


def step1(st: _PruneState) -> int:
    """Remove edge-less non-leaf supernodes. Returns #removed."""
    removed = 0
    for a in [v for v in list(st.size) if v >= st.n_sub]:
        if not st.incident(a):
            st.drop_node(a)
            removed += 1
    return removed


def step2(st: _PruneState) -> int:
    """Remove roots with exactly one incident non-loop edge. Returns #removed."""
    removed = 0
    queue = st.roots()
    while queue:
        a = queue.pop()
        if a not in st.size or a in st.parent:
            continue  # already removed, or no longer a root
        kids = st.children.get(a, [])
        if not kids:
            continue  # singleton root: dropping it would lose the subnode
        inc = st.incident(a)
        if len(inc) != 1:
            continue
        ((b, s),) = inc.items()
        if b == a:
            continue  # self-loop: Step 2 handles non-loop edges only
        # exactness check: no child may already carry a same-sign edge to b
        if any(st.adj.get(c, {}).get(b) == s for c in kids):
            continue
        st._remove(a, b)
        for c in kids:
            if st.adj.get(c, {}).get(b) == -s:
                st._remove(c, b)
            else:
                st._add(c, b, s)
        st.drop_node(a)
        removed += 1
        queue.append(b)
        queue.extend(kids)
    return removed


def step3(st: _PruneState, edges: pd.DataFrame) -> int:
    """Swap in the optimal flat encoding per root pair where cheaper.
    Returns the number of root pairs rewritten."""
    lr = st.leaf_root()
    # subedges per root pair
    src = edges["src"].to_numpy()
    dst = edges["dst"].to_numpy()
    ra = lr[src]
    rb = lr[dst]
    lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
    sub_by_pair: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for u, v, a_, b_ in zip(src, dst, lo, hi):
        sub_by_pair[(int(a_), int(b_))].append((int(u), int(v)))
    # current p/n-edge counts per root pair
    root_of: dict[int, int] = {}
    for r in st.roots():
        for v in st.tree_nodes(r):
            root_of[v] = r
    pcnt: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for (x, y), s in st.edges.items():
        ra_, rb_ = root_of[x], root_of[y]
        key = (ra_, rb_) if ra_ <= rb_ else (rb_, ra_)
        pcnt[key].append((x, y))
    rewrites = 0
    leaves_cache: dict[int, list[int]] = {}

    def leaves(r: int) -> list[int]:
        if r not in leaves_cache:
            leaves_cache[r] = st.leaves(r)
        return leaves_cache[r]

    pairs = set(pcnt) | set(sub_by_pair)
    for a, b in sorted(pairs):
        sub_pairs = sub_by_pair.get((a, b), [])
        e_ab = len(sub_pairs)
        cur = pcnt.get((a, b), [])
        if a == b:
            sz = st.size[a]
            t_ab = sz * (sz - 1) // 2
        else:
            t_ab = st.size[a] * st.size[b]
        flat = min(e_ab, 1 + t_ab - e_ab) if e_ab > 0 else 0
        if flat >= len(cur):
            continue
        # remove current encoding between the two trees
        for x, y in cur:
            st._remove(x, y)
        if e_ab > 0:
            if e_ab <= 1 + t_ab - e_ab:
                for u, v in sub_pairs:
                    st._add(u, v, 1)
            else:
                st._add(a, b, 1)
                la = leaves(a)
                lb = leaves(b) if b != a else la
                have = {(u, v) if u < v else (v, u) for u, v in sub_pairs}
                for i, u in enumerate(la):
                    vs = lb if a != b else la[i + 1 :]
                    for v in vs:
                        key = (u, v) if u < v else (v, u)
                        if key not in have:
                            st._add(key[0], key[1], -1)
        rewrites += 1
    return rewrites


def prune(
    summary: HierSummary,
    edges: pd.DataFrame,
    *,
    cycles: int = 2,
    collect_stages: bool = False,
) -> HierSummary | list[HierSummary]:
    """Run the full pruning pass (Steps 1-3, cycled). ``edges`` is the
    graph ``summary`` encodes; a malformed edge list raises ValueError (see
    :func:`repro.graphs.ops.check_edges`).

    With ``collect_stages`` returns [stage0, stage1, stage2, stage3]
    summaries — the states Table IV reports (stage i = after substep i of
    the first cycle; later cycles still run for the final stage3).
    """
    check_edges(edges, summary.n_sub)
    st = _PruneState(summary.copy())
    stages = [st.to_summary()] if collect_stages else None
    for cycle in range(cycles):
        c1 = step1(st)
        if collect_stages and cycle == 0:
            stages.append(st.to_summary())
        c2 = step2(st)
        if collect_stages and cycle == 0:
            stages.append(st.to_summary())
        c3 = step3(st, edges)
        if c1 == 0 and c2 == 0 and c3 == 0:
            break
    final = st.to_summary()
    if collect_stages:
        stages.append(final)
        return stages
    return final
