"""Local re-encoding of p/n-edges around a merger — Cases 1 & 2, memoized.

When roots A and B merge into U = A∪B, SLUGGER re-optimizes:

- **Case 1**: edges *within* the panel {U} ∪ S̄_A ∪ S̄_B (≤7 supernodes;
  S̄_X = X plus its direct children; merge trees are binary during the
  merge phase, so each side contributes ≤3 panel nodes).
- **Case 2**: edges *between* the panel and S̄_C (≤3 more supernodes) for
  each root C connected to the panel by a p/n-edge.

Formulation (DESIGN.md §3.1): every subnode of the panel's trees lies in
exactly one *atom* (a direct child of A/B/C, or the root itself if it is
a leaf). Removing the in-scope edges subtracts a signed *coverage*
``c(g, h)`` from every atom pair; a replacement edge set is exact iff it
restores precisely that coverage. The solver finds a minimum-cardinality
signed edge set over the panel's *slots* (unordered supernode pairs plus
self-loops on supernodes with ≥2 subnodes) restoring ``c`` — via
iterative-deepening DFS over the slots in descending coverage order. A
node is cut when one atom pair's residual exceeds what the open slots or
the edges left can still cover (lane bound), or when the total residual
exceeds the edges left times the largest coverage count of an open slot
(mass bound). Both cuts drop only subtrees without a solution, so the
answer is the first one the plain DFS would find.

Two process-global memo tables, both input-graph independent as in the
paper ("the memoized results ... can even be used when summarizing
different input graphs"): ``_memo`` holds solver results per (structure,
target), and ``_effects`` holds :func:`case1_effect` and
:func:`case2_effect`, what one re-encoding changes in Saving, per
(structure, removed edges), so scoring skips building the coverage target
too.

If no edge set at most as small is found within the depth/node budget,
the caller keeps the old edges (always feasible), so the budget bounds
only conciseness, never correctness. ``NODE_BUDGET`` counts the nodes of
the pruned search: a tighter cut can only let a search finish that the
budget stopped before, never change an answer found within it.

Panel node labels (ints, fixed):
``U=0, A=1, A0=2, A1=3, B=4, B0=5, B1=6, C=7, C0=8, C1=9``.
A leaf side uses only its root label (which is then its single atom).
"""
from __future__ import annotations

from functools import lru_cache
from operator import add, gt, sub

U, A, A0, A1, B, B0, B1, C, C0, C1 = range(10)

MAX_DEPTH = 6  # deepest replacement edge set searched for
NODE_BUDGET = 300_000  # pruned-DFS node cap per (structure, target) before giving up

_memo: dict[tuple, tuple | None] = {}
_effects: dict[tuple, tuple[int, int, int, int]] = {}


def memo_size() -> int:
    """Number of entries in both memo tables (for tests/telemetry)."""
    return len(_memo) + len(_effects)


def clear_memo() -> None:
    """Empty both memo tables."""
    _memo.clear()
    _effects.clear()


class _Panel:
    """Precomputed geometry of one panel structure.

    ``con[label]`` is the frozenset of atom indices a panel node contains;
    ``pairs`` lists the relevant atom pairs; ``slots`` the candidate edge
    positions with coverage vectors; ``covvec(x, y)`` gives the coverage of
    an arbitrary label pair (used to score the edges being removed, which
    may sit outside the slot list, e.g. ancestor–descendant leftovers).
    """

    def __init__(self, con: dict[int, frozenset[int]], pairs: list[tuple[int, int]],
                 slot_labels: list[tuple[int, int]]):
        self.con = con
        self.pairs = pairs
        self.pair_index = {p: i for i, p in enumerate(pairs)}
        self.slots = [(s, self.covvec(*s)) for s in slot_labels]

    def covvec(self, x: int, y: int) -> tuple[int, ...]:
        cx, cy = self.con[x], self.con[y]
        out = []
        for g, h in self.pairs:
            if x == y:
                out.append(1 if (g in cx and h in cx) else 0)
            else:
                out.append(
                    1 if ((g in cx and h in cy) or (g in cy and h in cx)) else 0
                )
        return tuple(out)


def _side(base: int, child0: int, child1: int, n_atoms: int, atom_off: int,
          singleton: tuple[bool, ...], con: dict, loopable: list, nodes: list):
    """Register one tree side (root + optional children) into the panel."""
    if n_atoms == 1:
        con[base] = frozenset([atom_off])
        nodes.append(base)
        if not singleton[atom_off]:
            loopable.append(base)
    else:
        con[base] = frozenset([atom_off, atom_off + 1])
        con[child0] = frozenset([atom_off])
        con[child1] = frozenset([atom_off + 1])
        nodes.extend([base, child0, child1])
        loopable.append(base)
        if not singleton[atom_off]:
            loopable.append(child0)
        if not singleton[atom_off + 1]:
            loopable.append(child1)


@lru_cache(maxsize=4096)
def case1_panel(na: int, nb: int, singleton: tuple[bool, ...]) -> _Panel:
    """Panel for Case 1: nodes {U} ∪ S̄_A ∪ S̄_B, atoms indexed A-side
    first. ``singleton[i]`` says atom i holds a single subnode."""
    con: dict[int, frozenset[int]] = {}
    loopable: list[int] = [U]
    a_nodes: list[int] = []
    b_nodes: list[int] = []
    _side(A, A0, A1, na, 0, singleton, con, loopable, a_nodes)
    _side(B, B0, B1, nb, na, singleton, con, loopable, b_nodes)
    con[U] = frozenset(range(na + nb))
    pairs = []
    for i in range(na + nb):
        if not singleton[i]:
            pairs.append((i, i))
        for j in range(i + 1, na + nb):
            pairs.append((i, j))
    slot_labels = [(x, x) for x in loopable]
    # cross-tree pairs
    slot_labels += [(x, y) for x in a_nodes for y in b_nodes]
    # within-side sibling pairs
    if na == 2:
        slot_labels.append((A0, A1))
    if nb == 2:
        slot_labels.append((B0, B1))
    return _Panel(con, pairs, slot_labels)


@lru_cache(maxsize=4096)
def case2_panel(na: int, nb: int, nc: int) -> _Panel:
    """Panel for Case 2: yellow side {U} ∪ S̄_A ∪ S̄_B vs orange side S̄_C.
    Only cross (yellow-atom, C-atom) pairs are in scope; singleton flags
    are irrelevant (cross pairs always involve two distinct subnodes)."""
    con: dict[int, frozenset[int]] = {}
    dummy_flags = (False,) * 6
    loopable: list[int] = []
    y_nodes: list[int] = []
    c_nodes: list[int] = []
    _side(A, A0, A1, na, 0, dummy_flags, con, loopable, y_nodes)
    _side(B, B0, B1, nb, na, dummy_flags, con, loopable, y_nodes)
    _side(C, C0, C1, nc, na + nb, dummy_flags, con, loopable, c_nodes)
    con[U] = frozenset(range(na + nb))
    y_nodes.append(U)
    pairs = [(g, h) for g in range(na + nb) for h in range(na + nb, na + nb + nc)]
    slot_labels = [(x, y) for x in y_nodes for y in c_nodes]
    return _Panel(con, pairs, slot_labels)


class _Budget(Exception):
    pass


def _search(slots: list[tuple[tuple[int, int], tuple[int, ...]]],
            target: tuple[int, ...], max_depth: int) -> list[tuple[tuple[int, int], int]] | None:
    """Min-cardinality signed slot assignment whose coverage sums to
    ``target``; iterative deepening, or None if none exists within bounds.

    A node (slot ``idx``, ``remaining`` edges left) is cut when no
    completion can exist: some lane's residual exceeds ``remaining`` or the
    coverage still available in that lane (lane bound), or the residual
    mass ``sum|residual|`` exceeds ``remaining`` times slot ``idx``'s
    coverage count, the largest among the open slots since they are sorted
    by descending count (mass bound). Both cuts skip only subtrees without
    a solution, so the first solution found is the one the unpruned DFS
    finds; ``NODE_BUDGET`` counts the nodes of this pruned search."""
    # big coverage first: finds dense encodings (the hierarchy wins) early
    slots = sorted(slots, key=lambda s: -sum(s[1]))
    nslots = len(slots)
    covs = [cov for _, cov in slots]
    counts = [sum(cov) for cov in covs]
    suffix = [(0,) * len(target)]
    for cov in reversed(covs):
        suffix.append(tuple(map(add, suffix[-1], cov)))
    suffix.reverse()
    nodes = 0

    def dfs(idx: int, residual: tuple[int, ...], remaining: int, chosen: list):
        nonlocal nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise _Budget
        mag = tuple(map(abs, residual))
        mass = sum(mag)
        if not mass:
            return list(chosen)
        if (remaining == 0 or idx == nslots or mass > remaining * counts[idx]
                or max(mag) > remaining or any(map(gt, mag, suffix[idx]))):
            return None
        cov = covs[idx]
        for sign, op in ((1, sub), (-1, add)):
            chosen.append((slots[idx][0], sign))
            r = dfs(idx + 1, tuple(map(op, residual, cov)), remaining - 1, chosen)
            chosen.pop()
            if r is not None:
                return r
        return dfs(idx + 1, residual, remaining, chosen)

    try:
        for depth in range(0, max_depth + 1):
            r = dfs(0, target, depth, [])
            if r is not None:
                return r
    except _Budget:
        return None
    return None


def _solve(panel: _Panel, key: tuple, removed: list[tuple[int, int, int]]):
    """Memoized best replacement for ``removed`` (labelled edges) no larger
    than it, as a list of (label_x, label_y, sign), or None to keep the
    old edges."""
    target = [0] * len(panel.pairs)
    for x, y, s in removed:
        for p, c in enumerate(panel.covvec(x, y)):
            target[p] += s * c
    if not any(target):
        return []  # removing the edges already restores nothing — drop them
    full_key = (key, tuple(target))
    if full_key not in _memo:
        sol = _search(panel.slots, full_key[1], MAX_DEPTH)
        _memo[full_key] = tuple(sol) if sol is not None else None
    sol = _memo[full_key]
    if sol is None or len(sol) > len(removed):
        return None
    # equal-cost solutions are accepted: the coverage-first slot ordering
    # concentrates edges on the highest supernodes (U first), which keeps
    # them inside future merges' panels instead of stranding them deep in
    # the hierarchy — the cheap stand-in for the paper's deferred
    # tie-breaking ("chooses one later considering the right next step")
    return [(x, y, s) for (x, y), s in sol]


def solve_case1(na: int, nb: int, singleton: tuple[bool, ...],
                removed: list[tuple[int, int, int]]):
    """Case 1. ``removed`` = current panel-internal edges as
    (label_x, label_y, sign). Returns the replacement edge list (possibly
    []) or None if the old edges are already minimal within bounds."""
    return _solve(case1_panel(na, nb, singleton), ("c1", na, nb, singleton), removed)


def solve_case2(na: int, nb: int, nc: int,
                removed: list[tuple[int, int, int]]):
    """Case 2. ``removed`` = current (yellow panel × S̄_C) edges as
    (label_x, label_y, sign) with the C-side labels C/C0/C1."""
    return _solve(case2_panel(na, nb, nc), ("c2", na, nb, nc), removed)


def effect(sol, removed) -> tuple[int, int, int, int]:
    """What replacing ``removed`` by a solver answer ``sol`` does, as seen
    by Saving: (change in edge count, ΔA, ΔB, ΔU), each Δ the change in
    the number of edges touching that panel node; all zero when ``sol`` is
    None (the old edges are kept)."""
    if sol is None:
        return (0, 0, 0, 0)
    return (len(sol) - len(removed), *(
        sum(lab in e[:2] for e in sol) - sum(lab in e[:2] for e in removed)
        for lab in (A, B, U)))


def case1_effect(na: int, nb: int, singleton: tuple[bool, ...],
                 removed: tuple[tuple[int, int, int], ...]) -> tuple[int, int, int, int]:
    """:func:`effect` of Case 1, memoized on the arguments like
    :func:`case2_effect`."""
    key = ("c1", na, nb, singleton, removed)
    if key not in _effects:
        _effects[key] = effect(solve_case1(na, nb, singleton, list(removed)), removed)
    return _effects[key]


def case2_effect(na: int, nb: int, nc: int,
                 removed: tuple[tuple[int, int, int], ...]) -> tuple[int, int, int, int]:
    """:func:`effect` of Case 2 on one S̄_C, memoized on the arguments: the
    solver's answer depends only on the coverage target and
    ``len(removed)``, both functions of them."""
    key = (na, nb, nc, removed)
    if key not in _effects:
        _effects[key] = effect(solve_case2(na, nb, nc, list(removed)), removed)
    return _effects[key]
