"""The merging step (Algorithm 2) executed per candidate set.

Each candidate set (group) of root nodes is processed by ``GroupWorker``:
a sequential randomized greedy loop that pops a random root A, finds the
member B maximizing ``Saving(A, B)`` (Eq. 8), and merges them when the
saving clears the iteration threshold θ(t) (Eq. 9). Mergers re-encode
p/n-edges locally via the memoized Case-1/Case-2 solvers
(:mod:`repro.core.localenc`) and track the cross-group consolidation the
global phase (:mod:`repro.core.consolidate`) will apply, so local Saving
scores match the global outcome.

Saving and merging read each root's *side scan* (``GroupWorker._side``):
its panel S̄_root, the p/n-edges inside it and its Case-2 edges, found in
one pass over the panel's adjacency and bucketed by root C, scanned once
per root and labelled as side A. "A" and "B" are positions within one
candidate pair, not properties of a root, so the B side of a pair is the
same scan read through one fixed relabelling (A/A0/A1 → B/B0/B1, and in
A's bucket for B, C/C0/C1 → B/B0/B1). The map is monotone, so it keeps
every sorted tuple sorted and hands the solver the keys a B-labelled
scan would. Many roots C give a side the same bucket, so each bucket is
stored once, as a *shape*: a worker-wide id for its (atom count of C,
bucket) pair, and the scan keeps the shape id per root C and the set of
its roots C per shape. Per (position, partner atom count) the scan caches
the effect of each shape alone
(:func:`repro.core.localenc.case2_effect`) and the sum weighted by those
sets' sizes. Saving(A, z) is the memoized Case-1 effect
(:func:`repro.core.localenc.case1_effect`) plus both sides' sums, less
each side's bucket for the other's root (those edges are Case 1), with
the roots C both sides touch re-scored on A's bucket followed by z's:
once per (A's shape, z's shape) pair whose root sets meet, times the size
of their intersection. A scan keeps its inner edges and every bucket
sorted, so it is a function of the edges and trees alone, not of the
order the edges were added in; no score or merge depends on that order
(DESIGN.md §3.1). A merge solves the per-C buckets to apply them, drops
the scans of A and B, and patches the scan of every C it touched: its
buckets for A and B give way to one sorted bucket for the new root. No
other scan can see the edges or trees it changes.

Groups are independent. Worker I/O is plain tuples: :func:`run_group`
takes one group's bundle (see :data:`Bundle`) and returns the group's
merges and intra-group p/n-edges as lists. A group with a single root
cannot merge, so it returns its edges unchanged without building a
worker. :func:`repro.core.candidates.run_groups` calls :func:`run_group`
per group, in-process or in one Spark ``mapInPandas`` job over the
pickled bundles (DESIGN.md §3.2).
"""
from __future__ import annotations

import random
from collections import defaultdict

from ..model.flat import merge_into
from ..model.summary import Forest, SignedEdges, canon
from . import candidates, localenc as L

# one group's worker input: (roots, nodes(x, size, root), hedges(parent,
# child), pedges(x, y, sign), ext(member, external, sign)); no adjacency,
# since the roots of a candidate set are pairwise within distance 2
Bundle = tuple[list, list, list, list, list]

ID_BASE = 1 << 40  # internal supernode ids live above all subnode ids
NO_MERGE = -10**18  # Saving sentinel for infeasible pairs


def new_id(t: int, gid: int, seq: int) -> int:
    """Globally unique internal supernode id, collision-free across groups
    and iterations (gid < 2^24, seq < 2^10, t < 2^7)."""
    assert gid < (1 << 24) and seq < (1 << 10) and t < (1 << 7)
    return ID_BASE + (((t << 24) | gid) << 10) + seq


_A_SIDE = (L.A, L.A0, L.A1)  # a scan's panel labels, root first
# the B side of a pair: A's labels, and C's labels in A's bucket for B
_TO_B = {L.A: L.B, L.A0: L.B0, L.A1: L.B1, L.C: L.B, L.C0: L.B0, L.C1: L.B1}


def _b_side(bucket: tuple) -> tuple:
    """A scan's Case-2 bucket with its panel labels moved to side B."""
    return tuple((_TO_B[lx], lc, s) for lx, lc, s in bucket)


class _Side:
    """One root's side scan, labelled as side A: its panel S̄_root (real
    ids, atom count, singleton flags per atom), the p/n-edges inside it
    (also relabelled to side B), the shape id of its Case-2 bucket per root
    C and the set of roots C per shape, the root's external (supernode,
    sign) pairs, and, per (position, partner atom count), the one-sided
    Case-2 effect of each shape and their sum over the roots C."""

    __slots__ = ("reals", "n", "flags", "inner", "inner_b", "sids", "shapes", "ext",
                 "effects")

    def __init__(self, reals: tuple[int, ...], flags: tuple[bool, ...], inner: tuple,
                 sids: dict[int, int], shapes: dict[int, set[int]],
                 ext: frozenset[tuple[int, int]]):
        self.reals, self.flags, self.inner = reals, flags, inner
        self.inner_b = tuple((_TO_B[lx], _TO_B[ly], s) for lx, ly, s in inner)
        self.sids, self.shapes, self.ext = sids, shapes, ext
        self.n = len(flags)
        self.effects: dict[tuple[int, int], tuple[dict[int, tuple], tuple]] = {}


def _case1_removal(sa: _Side, sb: _Side, ab: tuple) -> tuple[tuple[int, int, int], ...]:
    """Every p/n-edge inside the panel S̄_A ∪ S̄_B, labelled: each side's
    inner edges and A's Case-2 bucket ``ab`` for B, relabelled to the B
    side."""
    return sa.inner + sb.inner_b + tuple((lx, _TO_B[lc], s) for lx, lc, s in ab)


class GroupWorker:
    """Mutable in-memory state of one candidate set during Algorithm 2."""

    def __init__(self, gid: int, t: int, theta: float, seed: int, hb: int,
                 roots: list[int], nodes: list[tuple[int, int, int]],
                 hedges: list[tuple[int, int]], pedges: list[tuple[int, int, int]],
                 ext: list[tuple[int, int, int]]):
        self.gid, self.t, self.theta, self.hb = gid, t, theta, hb
        self.rng = random.Random(seed)
        self.roots: set[int] = set(roots)
        # the group's trees (n_sub unused: the worker never lists leaves)
        self.forest = Forest(0, {x: n for x, n, _ in nodes}, hedges)
        # each bundle node's root at the start of the round (see treeof)
        self.static_root: dict[int, int] = {x: r for x, _, r in nodes}
        # pruning-aware hierarchy cost: every edge-less non-leaf supernode
        # will be reclaimed by pruning Step 1 (one h-edge each), so Saving
        # charges the *effective* h-cost eff_h (DESIGN.md §3.1 — deviation
        # from the literal Eq. 8, which made the greedy systematically
        # under-merge relative to the paper's results)
        self.ndeg: dict[int, int] = defaultdict(int)
        # a full binary tree of k leaves has k - 1 non-leaves, none of which
        # has an edge before the edges below are counted
        self.zero_internal: dict[int, int] = defaultdict(
            int, {r: self.forest.size[r] - 1 for r in self.roots})
        self.height: dict[int, int] = {}  # per root
        children = self.forest.children
        for r in self.roots:  # iterative walks: pre-pruning trees can be deep
            height, stack = 0, [(r, 0)]
            while stack:
                v, d = stack.pop()
                kids = children.get(v)
                if kids:
                    stack.extend((c, d + 1) for c in kids)
                else:
                    height = max(height, d)
            self.height[r] = height
        # --- p/n-edges (intra-group) ---
        self.edges = SignedEdges()
        self.pmap: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.inc: dict[int, int] = defaultdict(int)
        for x, y, s in pedges:
            self._add_edge(x, y, s)
        # --- edges to external supernodes ---
        self.ext_adj: dict[int, dict[int, int]] = defaultdict(dict)
        for x, y, s in ext:
            self.ext_adj[x][y] = s
            self.inc[self.treeof(x)] += 1
            self._bump_ndeg(x, 1)
        self.merges: list[tuple[int, int, int]] = []  # (A, B, U)
        self._sides: dict[int, _Side] = {}  # root -> scan
        # Case-2 bucket shapes (nc, bucket) by id, and the shared-C
        # correction per (na, nb, A's shape id, z's shape id); both are
        # functions of their keys, so they never go stale
        self._shape_id: dict[tuple[int, tuple], int] = {}
        self._shapes: list[tuple[int, tuple]] = []
        self._pair_fx: dict[tuple[int, int, int, int], tuple[int, int, int, int]] = {}

    # ------------------------------------------------------------------ util

    def treeof(self, node: int) -> int:
        """Current root of the tree containing ``node``: up ``parent`` from
        its root at the start of the round, through this round's merges."""
        r = self.static_root.get(node, node)
        parent = self.forest.parent
        while r in parent:
            r = parent[r]
        return r

    # --------------------------------------------------------- edge plumbing

    def _bump_ndeg(self, x: int, d: int) -> None:
        """Track per-node incident-edge counts; transitions of non-leaf
        nodes between edge-less and not adjust the effective h-cost."""
        before = self.ndeg[x]
        self.ndeg[x] = before + d
        if self.forest.children.get(x):
            if before == 0 and d > 0:
                self.zero_internal[self.treeof(x)] -= 1
            elif before + d == 0 and d < 0:
                self.zero_internal[self.treeof(x)] += 1

    def eff_h(self, r: int) -> int:
        """Post-Step-1 hierarchy cost of tree r: its 2·(size − 1) h-edges,
        as trees are full binary until pruning, less one per edge-less
        non-leaf, which pruning will reclaim."""
        return 2 * (self.forest.size[r] - 1) - self.zero_internal.get(r, 0)

    def _add_edge(self, x: int, y: int, s: int) -> None:
        self.edges.add(x, y, s)
        self._count_edge(x, y, 1)

    def _remove_edge(self, x: int, y: int) -> None:
        self.edges.remove(x, y)
        self._count_edge(x, y, -1)

    def _count_edge(self, x: int, y: int, d: int) -> None:
        """Update the per-root and per-node counts for one edge added
        (``d`` = 1) or removed (``d`` = -1)."""
        rx, ry = self.treeof(x), self.treeof(y)
        a, b = canon(rx, ry)
        self.pmap[a][b] += d
        if a != b:
            self.pmap[b][a] += d
        self.inc[rx] += d
        if ry != rx:
            self.inc[ry] += d
        self._bump_ndeg(x, d)
        if y != x:
            self._bump_ndeg(y, d)

    def pcnt(self, a: int, b: int) -> int:
        return self.pmap[a].get(b, 0)

    # ------------------------------------------------------------ side scans

    def _side(self, root: int) -> _Side:
        """The cached :class:`_Side` of ``root``, scanned on first use."""
        side = self._sides.get(root)
        if side is None:
            side = self._sides[root] = self._scan(root)
        return side

    def _bucket(self, side: _Side, c: int) -> tuple:
        """The side's Case-2 bucket for root ``c`` (empty if it has none)."""
        sid = side.sids.get(c)
        return () if sid is None else self._shapes[sid][1]

    def _scan(self, root: int) -> _Side:
        """S̄_root, its inner edges and its Case-2 buckets, found in one pass
        over the panel's adjacency: root C -> ((panel label, C-side label,
        sign), ...) for every p/n-edge between S̄_root and S̄_C, sorted and
        interned as a shape. Edges to deeper nodes of C's tree are out of
        scope."""
        f = self.forest
        roots, parent, children, size = self.roots, f.parent, f.children, f.size
        kids = children.get(root, ())
        assert len(kids) in (0, 2), f"non-binary supernode {root} during merging"
        reals = (root, *kids)
        flags = tuple(size[v] == 1 for v in kids or reals)  # per atom
        inner = []
        buckets: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        for i, (x, lx) in enumerate(zip(reals, _A_SIDE)):
            for y, s in self.edges.incident(x).items():
                if y in reals:
                    j = reals.index(y)
                    if j >= i:  # each inner edge once
                        inner.append((lx, _A_SIDE[j], s))
                    continue
                if y in roots:  # y is C
                    c, lc = y, L.C
                else:  # y is C0 or C1 when its parent is a root C
                    c = parent.get(y)
                    if c not in roots:
                        continue
                    lc = L.C0 if children[c][0] == y else L.C1
                buckets[c].append((lx, lc, s))
        sids: dict[int, int] = {}
        shapes: dict[int, set[int]] = defaultdict(set)
        for c, es in buckets.items():
            sids[c] = sid = self._intern(2 if children.get(c) else 1, tuple(sorted(es)))
            shapes[sid].add(c)
        return _Side(reals, flags, tuple(sorted(inner)), sids, shapes,
                     frozenset(self.ext_adj.get(root, {}).items()))

    def _intern(self, nc: int, bucket: tuple) -> int:
        """The worker-wide shape id of a Case-2 bucket against an S̄_C of
        ``nc`` atoms."""
        shape = (nc, bucket)
        sid = self._shape_id.get(shape)
        if sid is None:
            sid = self._shape_id[shape] = len(self._shapes)
            self._shapes.append(shape)
        return sid

    def _patch(self, side: _Side, a: int, b: int, u: int) -> None:
        """Bring the cached scan of a root C up to what a fresh scan gives
        after merge(a, b → u). The merge edited only C's edges to the
        panels of ``a`` and ``b``, and made ``u`` a root with children
        ``a`` and ``b``: so C's buckets for ``a`` and ``b`` go, and its
        bucket for ``u`` holds C's edges to ``u`` (label C), ``a`` (C0)
        and ``b`` (C1), sorted as a fresh scan's are. Edges to deeper nodes
        of ``u``'s tree are out of scope. The effects are dropped and
        recomputed on next use, as a fresh scan's would be."""
        for r in (a, b):
            sid = side.sids.pop(r, None)
            if sid is not None:
                cs = side.shapes[sid]
                cs.discard(r)
                if not cs:
                    del side.shapes[sid]
        found = []
        for x, lx in zip(side.reals, _A_SIDE):
            nbrs = self.edges.incident(x)
            for y, lc in ((u, L.C), (a, L.C0), (b, L.C1)):
                s = nbrs.get(y)
                if s is not None:
                    found.append((lx, lc, s))
        if found:
            side.sids[u] = sid = self._intern(2, tuple(sorted(found)))
            side.shapes[sid].add(u)
        side.effects.clear()

    def _effects(self, side: _Side, role: int, n: int):
        """({shape id: case2_effect of that bucket alone}, the sum over the
        side's roots C) with the side in position A (``role`` 0) or B (1)
        and a partner of ``n`` atoms, cached on the side: the score of a
        root C only one side touches."""
        got = side.effects.get((role, n))
        if got is None:
            per_s = {}
            d = da = db = du = 0
            for sid, cs in side.shapes.items():
                k = len(cs)
                nc, removed = self._shapes[sid]
                e = per_s[sid] = (L.case2_effect(side.n, n, nc, removed) if role == 0
                                  else L.case2_effect(n, side.n, nc, _b_side(removed)))
                d += k * e[0]
                da += k * e[1]
                db += k * e[2]
                du += k * e[3]
            got = side.effects[(role, n)] = (per_s, (d, da, db, du))
        return got

    def _pair_effect(self, na: int, nb: int, x: int, y: int, ea: dict, eb: dict):
        """What re-scoring one root C on A's bucket of shape ``x`` followed
        by z's of shape ``y`` (relabelled to side B) adds to the two
        one-sided effects ``ea[x]`` and ``eb[y]``."""
        key = (na, nb, x, y)
        got = self._pair_fx.get(key)
        if got is None:
            nc, removed = self._shapes[x]
            e = L.case2_effect(na, nb, nc, removed + _b_side(self._shapes[y][1]))
            e1, e2 = ea[x], eb[y]
            got = self._pair_fx[key] = (e[0] - e1[0] - e2[0], e[1] - e1[1] - e2[1],
                                        e[2] - e1[2] - e2[2], e[3] - e1[3] - e2[3])
        return got

    # --------------------------------------------------------------- scoring

    def saving(self, a: int, b: int) -> float:
        """Eq. (8) with pruning-aware hierarchy cost: 1 − Cost_{A∪B}(Ĝ) /
        (Cost_A + Cost_B − Cost^P_{A,B}), where Cost^H charges only
        h-edges that survive pruning Step 1 (edge-less non-leaves are free)."""
        if self.hb and max(self.height[a], self.height[b]) + 1 > self.hb:
            return NO_MERGE
        den = self.eff_h(a) + self.eff_h(b) + self.inc[a] + self.inc[b] - self.pcnt(a, b)
        if den <= 0:
            return NO_MERGE
        sa, sb = self._side(a), self._side(b)
        na, nb = sa.n, sb.n
        d, da, db, du = L.case1_effect(na, nb, sa.flags + sb.flags,
                                       _case1_removal(sa, sb, self._bucket(sa, b)))
        # Case 2: each side's one-sided total, less its bucket for the other
        # side's root (those edges are Case 1), with every root C both sides
        # touch re-scored on the concatenated bucket, once per shape pair
        ea, ta = self._effects(sa, 0, nb)
        eb, tb = self._effects(sb, 1, na)
        d += ta[0] + tb[0]
        da += ta[1] + tb[1]
        db += ta[2] + tb[2]
        du += ta[3] + tb[3]
        for e in (ea.get(sa.sids.get(b)), eb.get(sb.sids.get(a))):
            if e is not None:
                d -= e[0]
                da -= e[1]
                db -= e[2]
                du -= e[3]
        for x, cs in sa.shapes.items():
            for y, cz in sb.shapes.items():
                k = len(cs & cz)  # the roots C with A's shape x and z's shape y
                if k:
                    e = self._pair_effect(na, nb, x, y, ea, eb)
                    d += k * e[0]
                    da += k * e[1]
                    db += k * e[2]
                    du += k * e[3]
        dext = len(sa.ext & sb.ext)  # the lifts merge makes (virtual lift)
        # h-cost adjustment: nodes left edge-less by the rewrite get pruned
        adj = 0
        for root_node, delta in ((a, da), (b, db)):
            if self.forest.children.get(root_node):
                after = self.ndeg[root_node] + delta - dext
                if self.ndeg[root_node] > 0 and after == 0:
                    adj += 1
                elif self.ndeg[root_node] == 0 and after > 0:
                    adj -= 1
        if du + dext == 0:
            adj += 2  # U itself would be pruned (the merge is a no-op)
        return 1.0 - (den + 2 - adj + d - dext) / den

    # --------------------------------------------------------------- merging

    def merge(self, a: int, b: int, u: int) -> None:
        """Merge roots a, b into new root u and re-encode locally."""
        # Case-1/Case-2 geometry is computed against the *pre-merge* trees.
        f = self.forest
        sa, sb = self._side(a), self._side(b)
        na, nb = sa.n, sb.n
        removal = _case1_removal(sa, sb, self._bucket(sa, b))
        # the roots C beside the panel: their Case-2 plans touch disjoint
        # edges, so the order they are applied in changes no edge
        c_roots = sorted((sa.sids.keys() | sb.sids.keys()) - {a, b})
        case2_plan = []
        for c_root in c_roots:
            removal2 = self._bucket(sa, c_root) + _b_side(self._bucket(sb, c_root))
            sol2 = L.solve_case2(na, nb, 2 if f.children.get(c_root) else 1, removal2)
            if sol2 is not None:
                case2_plan.append((c_root, removal2, sol2))
        sol1 = L.solve_case1(na, nb, sa.flags + sb.flags, removal)
        # root-level external (Y, sign) at both A and B: exactly what the
        # global consolidation phase will lift to (U, Y)
        shared = sorted(sa.ext & sb.ext)
        self._sides.pop(a)
        self._sides.pop(b)

        # --- structural merge: treeof(a) and treeof(b) now give u ---
        f.merge(a, b, u)
        self.height[u] = max(self.height[a], self.height[b]) + 1
        # U starts edge-less (non-leaf); later edge mutations flip it back
        self.zero_internal[u] = (
            self.zero_internal.pop(a, 0) + self.zero_internal.pop(b, 0) + 1
        )
        self.inc[u] = self.inc[a] + self.inc[b] - self.pcnt(a, b)
        # root-pair counts are the flat model's supernode-pair counts; a
        # count left at 0 reads as absent, as pmap is read only by pcnt
        merge_into(self.pmap, a, b, u)
        self.roots.discard(a)
        self.roots.discard(b)
        self.roots.add(u)

        # --- apply Case 1 ---
        label2real = dict(zip(_A_SIDE, sa.reals))
        label2real.update(zip((L.B, L.B0, L.B1), sb.reals))
        label2real[L.U] = u
        if sol1 is not None:
            for lx, ly, _ in removal:
                self._remove_edge(label2real[lx], label2real[ly])
            for lx, ly, s in sol1:
                self._add_edge(label2real[lx], label2real[ly], s)
        # --- apply Case 2 per connected root ---
        for c_root, removal2, sol2 in case2_plan:
            label2real[L.C] = c_root
            label2real[L.C0], label2real[L.C1] = f.children.get(c_root) or (None, None)
            for lx, ly, _ in removal2:
                self._remove_edge(label2real[lx], label2real[ly])
            for lx, ly, s in sol2:
                self._add_edge(label2real[lx], label2real[ly], s)
        # --- mirror the global consolidation locally (virtual lift) ---
        for y, s in shared:
            del self.ext_adj[a][y]
            del self.ext_adj[b][y]
            self.ext_adj[u][y] = s
            self.inc[u] -= 1
            self._bump_ndeg(a, -1)
            self._bump_ndeg(b, -1)
            self._bump_ndeg(u, 1)
        # the merge edited edges only inside the panel and between it and
        # the S̄_C above, and relabelled only a's and b's trees: the scans
        # of the roots C are patched, every other scan stays exact
        # (DESIGN.md §3.1)
        for c_root in c_roots:
            side = self._sides.get(c_root)
            if side is not None:
                self._patch(side, a, b, u)
        self.merges.append((a, b, u))

    # ------------------------------------------------------------- main loop

    def candidates(self, a: int, q: list[int]) -> list[int]:
        """The members of Q that A may merge with: all of Q. Lemma 1 asks
        only for roots within distance 2 of A in G, and every root of a
        candidate set is: the roots share their level-0 shingle, so they
        all reach the one node that attains it, and a merged root keeps
        that shingle (:mod:`repro.core.candidates`, DESIGN.md §3.2)."""
        return q

    def run(self) -> None:
        """Algorithm 2 over this group."""
        q = sorted(self.roots)
        self.rng.shuffle(q)
        seq = 0
        while len(q) > 1:
            a = q.pop()
            best, best_s = None, NO_MERGE
            for z in self.candidates(a, q):
                s = self.saving(a, z)
                if s > best_s:
                    best, best_s = z, s
            if best is not None and best_s >= self.theta:
                u = new_id(self.t, self.gid, seq)
                seq += 1
                self.merge(a, best, u)
                q.remove(best)
                # new root goes back into Q at a random position (Alg 2 l.8)
                q.insert(self.rng.randrange(len(q) + 1), u)

    # ----------------------------------------------------------------- I/O

    def output(self) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
        """(merges (A, B, U), intra-group p/n-edges (x, y, sign), x <= y)."""
        return self.merges, self.edges.triples()


def run_group(gid: int, bundle: Bundle, t: int, big_t: int, seed: int,
              hb: int) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Algorithm 2 on one group: (merges (A, B, U), intra-group p/n-edges).

    The bundle carries no adjacency: the group is a candidate set, whose
    roots are pairwise within distance 2 (:mod:`repro.core.candidates`),
    so every pair is scored."""
    if len(bundle[0]) < 2:
        return [], bundle[3]  # nothing to merge with
    w = GroupWorker(gid, t, candidates.theta(t, big_t),
                    (seed * 1_000_003 + t * 7919 + gid) & 0x7FFFFFFF, hb, *bundle)
    w.run()
    return w.output()
