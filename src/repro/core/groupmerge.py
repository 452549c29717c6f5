"""The merging step (Algorithm 2) executed per candidate set.

Each candidate set (group) of root nodes is processed by ``GroupWorker``:
a sequential randomized greedy loop that pops a random root A, finds the
member B maximizing ``Saving(A, B)`` (Eq. 8), and merges them when the
saving clears the iteration threshold θ(t) (Eq. 9). Mergers re-encode
p/n-edges locally via the memoized Case-1/Case-2 solvers
(:mod:`repro.core.localenc`) and track the cross-group consolidation the
global phase (:mod:`repro.core.consolidate`) will apply, so local Saving
scores match the global outcome.

Groups are independent. Worker I/O is plain tuples: :func:`run_group`
takes one group's bundle (see :data:`Bundle`) and returns the group's
merges and intra-group p/n-edges as lists. A group with a single root
cannot merge, so it returns its edges unchanged without building a
worker. The local engine calls :func:`run_group` per group in-process;
the Spark engine ships the bundles as one tall (gid, kind, x, y, v)
DataFrame (:func:`tall_frame`, kinds ``root|node|hedge|pedge|ext|radj``)
and runs :func:`run_group_pandas`, a thin adapter around the same
function, via ``groupBy("gid").applyInPandas`` (DESIGN.md §3.2). Its
output rows have kinds ``merge|pedge``.
"""
from __future__ import annotations

import random
from collections import defaultdict

import numpy as np
import pandas as pd

from . import localenc as L

TALL_SCHEMA = "gid long, kind string, x long, y long, v long"
TALL_COLS = ["gid", "kind", "x", "y", "v"]

# one group's worker input: (roots, nodes(x, size, root), hedges(parent,
# child), pedges(x, y, sign), ext(member, external, sign), radj(a, b))
Bundle = tuple[list, list, list, list, list, list]

ID_BASE = 1 << 40  # internal supernode ids live above all subnode ids
NO_MERGE = -10**18  # Saving sentinel for infeasible pairs


def new_id(t: int, gid: int, seq: int) -> int:
    """Globally unique internal supernode id, collision-free across groups
    and iterations (gid < 2^24, seq < 2^10, t < 2^7)."""
    assert gid < (1 << 24) and seq < (1 << 10) and t < (1 << 7)
    return ID_BASE + (((t << 24) | gid) << 10) + seq


def _canon(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x <= y else (y, x)


class GroupWorker:
    """Mutable in-memory state of one candidate set during Algorithm 2."""

    def __init__(self, gid: int, t: int, theta: float, seed: int, hb: int,
                 roots: list[int], nodes: list[tuple[int, int, int]],
                 hedges: list[tuple[int, int]], pedges: list[tuple[int, int, int]],
                 ext: list[tuple[int, int, int]], radj: list[tuple[int, int]]):
        self.gid, self.t, self.theta, self.hb = gid, t, theta, hb
        self.rng = random.Random(seed)
        self.roots: set[int] = set(roots)
        # --- tree structure ---
        self.children: dict[int, list[int]] = defaultdict(list)
        self.parent: dict[int, int] = {}
        for p, c in hedges:
            self.children[p].append(c)
            self.parent[c] = p
        self.size: dict[int, int] = {x: n for x, n, _ in nodes}
        self.static_root: dict[int, int] = {x: r for x, _, r in nodes}
        # DSU over root labels: label -> newer label after a merge
        self.label_up: dict[int, int] = {}
        # per-root aggregates
        self.height: dict[int, int] = {}
        self.hcount: dict[int, int] = {}
        # pruning-aware hierarchy cost: every edge-less non-leaf supernode
        # will be reclaimed by pruning Step 1 (one h-edge each), so Saving
        # charges the *effective* h-cost eff_h = hcount - zero_internal
        # (DESIGN.md §3.1 — deviation from the literal Eq. 8, which made the
        # greedy systematically under-merge relative to the paper's results)
        self.ndeg: dict[int, int] = defaultdict(int)
        self.zero_internal: dict[int, int] = defaultdict(int)
        for r in self.roots:
            self.height[r] = self._calc_height(r)
            self.hcount[r] = self._calc_hcount(r)
            stack = [r]
            while stack:
                v = stack.pop()
                kids = self.children.get(v, [])
                if kids:
                    self.zero_internal[r] += 1  # no edges seen yet
                    stack.extend(kids)
        # --- p/n-edges (intra-group) ---
        self.edges: dict[tuple[int, int], int] = {}
        self.adj: dict[int, dict[int, int]] = defaultdict(dict)
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
        # --- root-level G-adjacency for the distance<=2 candidate filter ---
        self.nbr: dict[int, set[int]] = defaultdict(set)  # member neighbors
        self.extnbr: dict[int, set[int]] = defaultdict(set)  # external neighbors
        for a, b in radj:
            if b in self.roots:
                self.nbr[a].add(b)
                self.nbr[b].add(a)
            else:
                self.extnbr[a].add(b)
        self.merges: list[tuple[int, int, int]] = []  # (A, B, U)

    # ------------------------------------------------------------------ util

    def treeof(self, node: int) -> int:
        """Current root of the tree containing ``node`` (path-halving DSU)."""
        r = self.static_root.get(node, node)
        while r in self.label_up:
            up = self.label_up[r]
            if up in self.label_up:  # path halving
                self.label_up[r] = self.label_up[up]
            r = self.label_up[r]
        return r

    def _calc_height(self, r: int) -> int:
        """Iterative tree height (pre-pruning trees can be very deep)."""
        best, stack = 0, [(r, 0)]
        while stack:
            v, d = stack.pop()
            kids = self.children.get(v)
            if not kids:
                best = max(best, d)
            else:
                stack.extend((c, d + 1) for c in kids)
        return best

    def _calc_hcount(self, r: int) -> int:
        """Number of h-edges in the tree rooted at r (iterative)."""
        total, stack = 0, [r]
        while stack:
            v = stack.pop()
            kids = self.children.get(v, [])
            total += len(kids)
            stack.extend(kids)
        return total

    # --------------------------------------------------------- edge plumbing

    def _bump_ndeg(self, x: int, d: int) -> None:
        """Track per-node incident-edge counts; transitions of non-leaf
        nodes between edge-less and not adjust the effective h-cost."""
        before = self.ndeg[x]
        self.ndeg[x] = before + d
        if x in self.children and self.children[x]:
            if before == 0 and d > 0:
                self.zero_internal[self.treeof(x)] -= 1
            elif before + d == 0 and d < 0:
                self.zero_internal[self.treeof(x)] += 1

    def eff_h(self, r: int) -> int:
        """Post-Step-1 hierarchy cost of tree r (each edge-less non-leaf
        will be pruned, reclaiming one h-edge)."""
        return self.hcount[r] - self.zero_internal.get(r, 0)

    def _add_edge(self, x: int, y: int, s: int) -> None:
        key = _canon(x, y)
        assert key not in self.edges, f"duplicate edge {key}"
        self.edges[key] = s
        self.adj[x][y] = s
        if x != y:
            self.adj[y][x] = s
        rx, ry = self.treeof(x), self.treeof(y)
        a, b = _canon(rx, ry)
        self.pmap[a][b] += 1
        if a != b:
            self.pmap[b][a] += 1
        self.inc[rx] += 1
        if ry != rx:
            self.inc[ry] += 1
        self._bump_ndeg(x, 1)
        if y != x:
            self._bump_ndeg(y, 1)

    def _remove_edge(self, x: int, y: int) -> None:
        key = _canon(x, y)
        del self.edges[key]
        del self.adj[x][y]
        if x != y:
            del self.adj[y][x]
        rx, ry = self.treeof(x), self.treeof(y)
        a, b = _canon(rx, ry)
        self.pmap[a][b] -= 1
        if a != b:
            self.pmap[b][a] -= 1
        self.inc[rx] -= 1
        if ry != rx:
            self.inc[ry] -= 1
        self._bump_ndeg(x, -1)
        if y != x:
            self._bump_ndeg(y, -1)

    def pcnt(self, a: int, b: int) -> int:
        return self.pmap[a].get(b, 0)

    # ---------------------------------------------------------- panel lookup

    def _panel(self, root: int, base: int, c0: int, c1: int):
        """(labels, reals, n_atoms, singleton flags) for one side S̄_root."""
        kids = self.children.get(root, [])
        if not kids:
            return [base], [root], 1, (self.size[root] == 1,)
        assert len(kids) == 2, f"non-binary supernode {root} during merging"
        return (
            [base, c0, c1],
            [root, kids[0], kids[1]],
            2,
            (self.size[kids[0]] == 1, self.size[kids[1]] == 1),
        )

    def _case1(self, a_root: int, b_root: int):
        """(na, nb, flags, label2real incl. U=None, removal-with-labels)."""
        la, ra, na, fa = self._panel(a_root, L.A, L.A0, L.A1)
        lb, rb, nb, fb = self._panel(b_root, L.B, L.B0, L.B1)
        labels = la + lb
        reals = ra + rb
        real2label = dict(zip(reals, labels))
        removal = []
        for i in range(len(reals)):
            for j in range(i, len(reals)):
                s = self.edges.get(_canon(reals[i], reals[j]))
                if s is not None:
                    removal.append((labels[i], labels[j], s))
        return na, nb, fa + fb, real2label, reals, removal

    def _case2_targets(self, panel_reals: list[int]):
        """Roots C with a p/n-edge between the yellow panel and S̄_C."""
        out: set[int] = set()
        panel_set = set(panel_reals)
        for x in panel_reals:
            for y in self.adj.get(x, {}):
                if y in panel_set:
                    continue
                r = self.treeof(y)
                if y == r or self.parent.get(y) == r:
                    out.add(r)
        return out

    def _case2(self, panel_reals, real2label, c_root: int):
        lc, rc, nc, _ = self._panel(c_root, L.C, L.C0, L.C1)
        c_real2label = dict(zip(rc, lc))
        removal = []
        for x in panel_reals:
            for y in rc:
                s = self.edges.get(_canon(x, y))
                if s is not None:
                    removal.append((real2label[x], c_real2label[y], s))
        return nc, c_real2label, rc, removal

    def _shared_ext(self, a: int, b: int) -> list[tuple[int, int]]:
        """Root-level external (Y, sign) present at both A and B — exactly
        what the global consolidation phase will lift to (U, Y)."""
        ea, eb = self.ext_adj.get(a, {}), self.ext_adj.get(b, {})
        if len(eb) < len(ea):
            ea, eb = eb, ea
        return [(y, s) for y, s in ea.items() if eb.get(y) == s]

    # --------------------------------------------------------------- scoring

    @staticmethod
    def _label_deltas(deltas: dict[int, int], removed, added) -> None:
        """Accumulate per-panel-label incident-edge deltas of one rewrite."""
        for lx, ly, _ in removed:
            deltas[lx] = deltas.get(lx, 0) - 1
            if ly != lx:
                deltas[ly] = deltas.get(ly, 0) - 1
        for lx, ly, _ in added:
            deltas[lx] = deltas.get(lx, 0) + 1
            if ly != lx:
                deltas[ly] = deltas.get(ly, 0) + 1

    def saving(self, a: int, b: int) -> float:
        """Eq. (8) with pruning-aware hierarchy cost: 1 − Cost_{A∪B}(Ĝ) /
        (Cost_A + Cost_B − Cost^P_{A,B}), where Cost^H charges only
        h-edges that survive pruning Step 1 (edge-less non-leaves are free)."""
        if self.hb and max(self.height[a], self.height[b]) + 1 > self.hb:
            return NO_MERGE
        den = self.eff_h(a) + self.eff_h(b) + self.inc[a] + self.inc[b] - self.pcnt(a, b)
        if den <= 0:
            return NO_MERGE
        na, nb, flags, real2label, panel_reals, removal = self._case1(a, b)
        deltas: dict[int, int] = {}
        d1 = 0
        sol = L.solve_case1(na, nb, flags, removal)
        if sol is not None and len(sol) <= len(removal):
            d1 = len(sol) - len(removal)
            self._label_deltas(deltas, removal, sol)
        d2 = 0
        for c_root in self._case2_targets(panel_reals):
            nc, _, _, removal2 = self._case2(panel_reals, real2label, c_root)
            sol2 = L.solve_case2(na, nb, nc, removal2)
            if sol2 is not None and len(sol2) <= len(removal2):
                d2 += len(sol2) - len(removal2)
                self._label_deltas(deltas, removal2, sol2)
        dext = len(self._shared_ext(a, b))
        # h-cost adjustment: nodes left edge-less by the rewrite get pruned
        adj = 0
        for root_node, label in ((a, L.A), (b, L.B)):
            if self.children.get(root_node):
                after = self.ndeg[root_node] + deltas.get(label, 0) - dext
                if self.ndeg[root_node] > 0 and after == 0:
                    adj += 1
                elif self.ndeg[root_node] == 0 and after > 0:
                    adj -= 1
        ndeg_u = deltas.get(L.U, 0) + dext
        if ndeg_u == 0:
            adj += 2  # U itself would be pruned (the merge is a no-op)
        num = (
            self.eff_h(a) + self.eff_h(b) + 2 - adj
            + self.inc[a] + self.inc[b] - self.pcnt(a, b)
            + d1 + d2 - dext
        )
        return 1.0 - num / den

    # --------------------------------------------------------------- merging

    def merge(self, a: int, b: int, u: int) -> None:
        """Merge roots a, b into new root u and re-encode locally."""
        # Case-1/Case-2 geometry is computed against the *pre-merge* trees.
        na, nb, flags, real2label, panel_reals, removal = self._case1(a, b)
        case2_plan = []
        for c_root in self._case2_targets(panel_reals):
            nc, c_real2label, rc, removal2 = self._case2(panel_reals, real2label, c_root)
            sol2 = L.solve_case2(na, nb, nc, removal2)
            if sol2 is not None and len(sol2) <= len(removal2):
                case2_plan.append((c_real2label, removal2, sol2, real2label))
        sol1 = L.solve_case1(na, nb, flags, removal)
        shared = self._shared_ext(a, b)

        # --- structural merge ---
        self.children[u] = [a, b]
        self.parent[a] = u
        self.parent[b] = u
        self.size[u] = self.size[a] + self.size[b]
        self.static_root[u] = u
        self.height[u] = max(self.height[a], self.height[b]) + 1
        self.hcount[u] = self.hcount[a] + self.hcount[b] + 2
        # U starts edge-less (non-leaf); later edge mutations flip it back
        self.zero_internal[u] = (
            self.zero_internal.pop(a, 0) + self.zero_internal.pop(b, 0) + 1
        )
        # re-key per-root aggregates BEFORE relabeling the DSU
        self.inc[u] = self.inc[a] + self.inc[b] - self.pcnt(a, b)
        pu: dict[int, int] = defaultdict(int)
        for other, cnt in list(self.pmap[a].items()) + list(self.pmap[b].items()):
            if other not in (a, b):
                pu[other] += cnt
        # within-U count: within-A + within-B + cross(A,B), cross counted once
        pu[u] = (
            self.pmap[a].get(a, 0) + self.pmap[b].get(b, 0) + self.pmap[a].get(b, 0)
        )
        if pu[u] == 0:
            del pu[u]
        self.pmap[u] = pu
        for other in list(pu.keys()):
            if other == u:
                continue
            om = self.pmap[other]
            om[u] = om.pop(a, 0) + om.pop(b, 0)
            if om[u] == 0:
                del om[u]
        self.label_up[a] = u
        self.label_up[b] = u
        self.roots.discard(a)
        self.roots.discard(b)
        self.roots.add(u)
        # G-level adjacency for the distance filter
        self.nbr[u] = {self.treeof(x) for x in (self.nbr.pop(a, set()) | self.nbr.pop(b, set()))} - {u}
        self.extnbr[u] = self.extnbr.pop(a, set()) | self.extnbr.pop(b, set())
        for z in self.nbr[u]:
            self.nbr[z].discard(a)
            self.nbr[z].discard(b)
            self.nbr[z].add(u)

        # --- apply Case 1 ---
        label2real = {v: k for k, v in real2label.items()}
        label2real[L.U] = u
        if sol1 is not None and len(sol1) <= len(removal):
            for lx, ly, _ in removal:
                self._remove_edge(label2real[lx], label2real[ly])
            for lx, ly, s in sol1:
                self._add_edge(label2real[lx], label2real[ly], s)
        # --- apply Case 2 per connected root ---
        for c_real2label, removal2, sol2, r2l in case2_plan:
            l2r = {v: k for k, v in r2l.items()}
            l2r[L.U] = u
            l2r.update({v: k for k, v in c_real2label.items()})
            for lx, ly, _ in removal2:
                self._remove_edge(l2r[lx], l2r[ly])
            for lx, ly, s in sol2:
                self._add_edge(l2r[lx], l2r[ly], s)
        # --- mirror the global consolidation locally (virtual lift) ---
        for y, s in shared:
            del self.ext_adj[a][y]
            del self.ext_adj[b][y]
            self.ext_adj[u][y] = s
            self.inc[u] -= 1
            self._bump_ndeg(a, -1)
            self._bump_ndeg(b, -1)
            self._bump_ndeg(u, 1)
        self.merges.append((a, b, u))

    # ------------------------------------------------------------- main loop

    def candidates(self, a: int, q: list[int]) -> list[int]:
        """Members of Q within distance 2 of A in G (Lemma 1 filter)."""
        na_, ea_ = self.nbr[a], self.extnbr[a]
        out = []
        for z in q:
            if z in na_ or (na_ & self.nbr[z]) or (ea_ & self.extnbr[z]):
                out.append(z)
        return out

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
        return self.merges, [(x, y, s) for (x, y), s in self.edges.items()]


def run_group(gid: int, bundle: Bundle, t: int, big_t: int, seed: int,
              hb: int) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Algorithm 2 on one group: (merges (A, B, U), intra-group p/n-edges)."""
    if len(bundle[0]) < 2:
        return [], bundle[3]  # nothing to merge with
    theta = 1.0 / (1 + t) if t < big_t else 0.0
    w = GroupWorker(gid, t, theta, (seed * 1_000_003 + t * 7919 + gid) & 0x7FFFFFFF,
                    hb, *bundle)
    w.run()
    return w.output()


def tall_frame(bundles: dict[int, Bundle]) -> pd.DataFrame:
    """Flatten the bundles into the tall (gid, kind, x, y, v) DataFrame the
    Spark engine ships to :func:`run_group_pandas`."""
    rows = []
    for gid, (roots, nodes, hedges, pedges, ext, radj) in bundles.items():
        rows += [(gid, "root", r, 0, 0) for r in roots]
        rows += [(gid, "node", x, n, r) for x, n, r in nodes]
        rows += [(gid, "hedge", p, c, 0) for p, c in hedges]
        rows += [(gid, "pedge", x, y, s) for x, y, s in pedges]
        rows += [(gid, "ext", x, y, s) for x, y, s in ext]
        rows += [(gid, "radj", a, b, 0) for a, b in radj]
    return pd.DataFrame(rows, columns=TALL_COLS).astype(
        {"gid": np.int64, "x": np.int64, "y": np.int64, "v": np.int64}
    )


def _bundle(pdf: pd.DataFrame) -> Bundle:
    """Inverse of :func:`tall_frame` for one group's rows."""
    roots, nodes, hedges, pedges, ext, radj = bundle = ([], [], [], [], [], [])
    for k, x, y, v in zip(pdf["kind"].tolist(), pdf["x"].tolist(),
                          pdf["y"].tolist(), pdf["v"].tolist()):
        if k == "root":
            roots.append(x)
        elif k == "node":
            nodes.append((x, y, v))
        elif k == "hedge":
            hedges.append((x, y))
        elif k == "pedge":
            pedges.append((x, y, v))
        elif k == "ext":
            ext.append((x, y, v))
        else:
            radj.append((x, y))
    return bundle


def run_group_pandas(pdf: pd.DataFrame, t: int, big_t: int, seed: int, hb: int) -> pd.DataFrame:
    """``applyInPandas`` adapter: one group's tall rows in, its
    ``merge``/``pedge`` rows out, computed by :func:`run_group`."""
    if len(pdf) == 0:
        return pd.DataFrame(columns=TALL_COLS)
    gid = int(pdf["gid"].iat[0])
    merges, pedges = run_group(gid, _bundle(pdf), t, big_t, seed, hb)
    xyv = np.array(merges + pedges, dtype=np.int64).reshape(-1, 3)
    return pd.DataFrame({
        "gid": np.full(len(xyv), gid, dtype=np.int64),
        "kind": ["merge"] * len(merges) + ["pedge"] * len(pedges),
        "x": xyv[:, 0], "y": xyv[:, 1], "v": xyv[:, 2],
    })
