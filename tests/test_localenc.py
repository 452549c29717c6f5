"""Unit tests for the memoized local panel-encoding solver."""
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import localenc as L
from repro.core.localenc import U, A, A0, A1, B, B0, B1, C, C0, C1
from repro.core.slugger import slugger
from repro.graphs import datasets
from repro.graphs.generators import n_nodes


def apply_cover(panel, edges):
    """Total signed coverage of an edge list over the panel's atom pairs."""
    tot = [0] * len(panel.pairs)
    for x, y, s in edges:
        cov = panel.covvec(x, y)
        for i in range(len(tot)):
            tot[i] += s * cov[i]
    return tot


class TestPanelGeometry:
    def test_case1_both_leaves_atoms(self):
        p = L.case1_panel(1, 1, (True, True))
        assert p.con[A] == frozenset([0])
        assert p.con[B] == frozenset([1])
        assert p.con[U] == frozenset([0, 1])
        # only relevant pair is the cross pair (both atoms singleton)
        assert p.pairs == [(0, 1)]

    def test_case1_internal_sides(self):
        p = L.case1_panel(2, 2, (False, True, False, True))
        assert p.con[A] == frozenset([0, 1])
        assert p.con[A0] == frozenset([0])
        assert p.con[B1] == frozenset([3])
        # (0,0) and (2,2) relevant (non-singleton), 6 cross pairs
        assert set(p.pairs) == {(0, 0), (2, 2), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_case1_loop_slots(self):
        p = L.case1_panel(2, 1, (True, True, True))
        loops = [s for s, _ in p.slots if s[0] == s[1]]
        # U loop and A loop (|A|>=2); no loops on singleton atoms
        assert (U, U) in loops and (A, A) in loops
        assert (A0, A0) not in loops and (B, B) not in loops

    def test_case1_no_ancestor_slots(self):
        p = L.case1_panel(2, 2, (True,) * 4)
        labels = [s for s, _ in p.slots]
        assert (A, A0) not in labels and (A0, A) not in labels
        assert all(U not in s or s == (U, U) for s in labels)

    def test_case2_pairs_are_cross_only(self):
        p = L.case2_panel(2, 1, 2)
        # 3 yellow atoms x 2 C atoms
        assert len(p.pairs) == 6
        assert all(g < 3 <= h for g, h in p.pairs)

    def test_case2_slots_cross_only(self):
        p = L.case2_panel(1, 1, 1)
        labels = [s for s, _ in p.slots]
        assert all(y in (C, C0, C1) for _, y in labels)
        assert (U, C) in labels

    def test_covvec_uloop_covers_everything(self):
        p = L.case1_panel(2, 2, (False,) * 4)
        assert all(v == 1 for v in p.covvec(U, U))

    def test_covvec_ancestor_edge_for_removals(self):
        # removals may include odd historical edges like (A, A0)-style pairs;
        # coverage math must handle them even though they are not slots
        p = L.case1_panel(2, 1, (False, False, True))
        cov = p.covvec(A, A0)
        covered = {p.pairs[i] for i, v in enumerate(cov) if v}
        assert covered == {(0, 0), (0, 1)}


class TestSolveCase1:
    def test_empty_removal_noop(self):
        assert L.solve_case1(1, 1, (True, True), []) in ([], None)

    def test_single_cross_edge_stays_size_one(self):
        # two singletons with one edge between them: optimal size is 1
        # (ties are accepted and re-encoded upward, e.g. as a U-loop)
        removed = [(A, B, 1)]
        sol = L.solve_case1(1, 1, (True, True), removed)
        assert sol is not None and len(sol) == 1
        panel = L.case1_panel(1, 1, (True, True))
        assert apply_cover(panel, sol) == apply_cover(panel, removed)

    def test_dense_merge_collapses_to_uloop(self):
        # A, B internally dense + complete bipartite across: p(A,A), p(B,B),
        # p(A,B) -> single p-loop on U (the canonical hierarchy win)
        removed = [(A, A, 1), (B, B, 1), (A, B, 1)]
        sol = L.solve_case1(2, 2, (False, False, False, False), removed)
        assert sol == [(U, U, 1)]

    def test_dense_minus_cross_tie_preserves_coverage(self):
        # A and B dense internally, no edges across: p(U,U) + n(A,B) ties the
        # old {p(A,A), p(B,B)} at 2 edges -> a tie is accepted, coverage kept
        removed = [(A, A, 1), (B, B, 1)]
        sol = L.solve_case1(2, 2, (False, False, False, False), removed)
        assert sol is not None and len(sol) == 2
        panel = L.case1_panel(2, 2, (False, False, False, False))
        assert apply_cover(panel, sol) == apply_cover(panel, removed)

    def test_near_complete_exception(self):
        # everything dense except atoms a0-b0 disconnected:
        # old: p(A,A),p(B,B),p(A,B) minus n(A0,B0) -> p(U,U)+n(A0,B0) saves 2
        removed = [(A, A, 1), (B, B, 1), (A, B, 1), (A0, B0, -1)]
        sol = L.solve_case1(2, 2, (False,) * 4, removed)
        assert sol is not None and len(sol) == 2
        panel = L.case1_panel(2, 2, (False,) * 4)
        assert apply_cover(panel, sol) == apply_cover(panel, removed)

    def test_solution_restores_coverage_exactly(self):
        import itertools
        panel = L.case1_panel(2, 2, (False, True, False, True))
        cases = [
            [(A, B, 1), (A0, B0, 1), (A, A, 1)],
            [(A0, B0, 1), (A0, B1, 1), (A1, B0, 1), (A1, B1, 1)],
            [(A, B, 1), (A1, B1, -1)],
            [(B, B, 1), (A0, B, 1), (A1, B, 1)],
        ]
        for removed in cases:
            sol = L.solve_case1(2, 2, (False, True, False, True), removed)
            if sol is not None:
                assert len(sol) <= len(removed)
                assert apply_cover(panel, sol) == apply_cover(panel, removed)

    def test_bipartite_complete_across_leaf_sides(self):
        # p(A,B) on internal sides fully covering: stays size 1 (possibly
        # re-expressed at an equal-size position)
        removed = [(A, B, 1)]
        sol = L.solve_case1(2, 2, (True,) * 4, removed)
        assert sol is not None and len(sol) == 1
        panel = L.case1_panel(2, 2, (True,) * 4)
        assert apply_cover(panel, sol) == apply_cover(panel, removed)


class TestSolveCase2:
    def test_shared_neighbor_consolidates(self):
        # both A and B fully connected to C: p(A,C) + p(B,C) -> p(U,C)
        sol = L.solve_case2(1, 1, 1, [(A, C, 1), (B, C, 1)])
        assert sol == [(U, C, 1)]

    def test_partial_no_gain(self):
        removed = [(A, C, 1)]
        sol = L.solve_case2(1, 1, 1, removed)
        assert sol is not None and len(sol) == 1
        panel = L.case2_panel(1, 1, 1)
        assert apply_cover(panel, sol) == apply_cover(panel, removed)

    def test_consolidate_to_c_child(self):
        # A and B each connected to both children of C separately
        removed = [(A, C0, 1), (B, C0, 1), (A, C1, 1), (B, C1, 1)]
        sol = L.solve_case2(1, 1, 2, removed)
        assert sol is not None and len(sol) == 1
        panel = L.case2_panel(1, 1, 2)
        assert apply_cover(panel, sol) == apply_cover(panel, removed)
        assert sol[0][:2] == (U, C)

    def test_exception_pattern(self):
        # single edge: solution cannot be smaller than 1
        removed = [(A, C, 1)]
        sol = L.solve_case2(2, 1, 1, removed)
        assert sol is not None and len(sol) == 1
        panel = L.case2_panel(2, 1, 1)
        assert apply_cover(panel, sol) == apply_cover(panel, removed)

    def test_coverage_preserved_random(self):
        import random
        rng = random.Random(7)
        panel = L.case2_panel(2, 2, 2)
        labels_y = [A, A0, A1, B, B0, B1]
        labels_c = [C, C0, C1]
        for _ in range(30):
            removed = []
            for __ in range(rng.randint(1, 5)):
                removed.append(
                    (rng.choice(labels_y), rng.choice(labels_c), rng.choice([1, -1]))
                )
            sol = L.solve_case2(2, 2, 2, removed)
            if sol is not None:
                assert len(sol) <= len(removed)
                assert apply_cover(panel, sol) == apply_cover(panel, removed)


class TestMemoization:
    def test_memo_grows_and_hits(self):
        before = L.memo_size()
        L.solve_case1(1, 1, (True, True), [(A, B, 1)])
        mid = L.memo_size()
        L.solve_case1(1, 1, (True, True), [(A, B, 1)])
        assert L.memo_size() == mid >= before

    def test_memo_independent_of_labels_only_structure(self):
        # same structural case twice -> single memo entry growth
        base = L.memo_size()
        L.solve_case2(1, 1, 1, [(A, C, 1), (B, C, 1)])
        grew = L.memo_size() - base
        L.solve_case2(1, 1, 1, [(A, C, 1), (B, C, 1)])
        assert L.memo_size() - base == grew

    def test_case2_effect_counts_in_memo_size(self):
        removed = ((A, C, 1), (B, C, 1), (A0, C, -1))
        L.solve_case2(2, 1, 1, list(removed))
        before = L.memo_size()
        L.case2_effect(2, 1, 1, removed)
        assert L.memo_size() == before + 1  # the effect table is counted too
        L.case2_effect(2, 1, 1, removed)
        assert L.memo_size() == before + 1

    def test_clear_memo_empties_both_tables(self):
        L.solve_case1(2, 2, (False, True, False, True), [(A, B, 1), (A0, B1, -1)])
        L.case2_effect(1, 1, 2, ((A, C0, 1), (B, C0, 1), (A, C1, 1)))
        assert L.memo_size() > 0
        L.clear_memo()
        assert L.memo_size() == 0


class TestCase1Effect:
    @pytest.mark.parametrize("na,nb,flags,removed", [
        (1, 1, (True, True), ((A, B, 1),)),  # equal cost: moves up to (U, U)
        (2, 2, (False,) * 4, ((A0, B0, 1), (A0, B1, 1), (A1, B0, 1), (A1, B1, 1))),  # to (A, B)
        (2, 1, (True, True, False), ((A, A, 1), (A, B, 1), (B, B, 1))),  # to (U, U)
        (1, 2, (True, False, True), ((A, B0, 1), (A, B0, -1))),  # cancels out: dropped
    ])
    def test_matches_solver(self, na, nb, flags, removed):
        sol = L.solve_case1(na, nb, flags, list(removed))
        assert L.case1_effect(na, nb, flags, removed) == L.effect(sol, removed)


class TestCase2Effect:
    @pytest.mark.parametrize("na,nb,nc,removed", [
        (1, 1, 1, ((A, C, 1), (B, C, 1))),  # lift to (U, C)
        (2, 1, 2, ((A0, C0, 1), (A1, C0, 1), (B, C0, 1), (A, C1, -1))),
        (1, 1, 2, ((A, C, 1),)),  # already minimal: re-encoded as itself
        (1, 2, 1, ((A, C, 1), (A, C, -1))),  # cancels out: dropped
    ])
    def test_matches_solver(self, na, nb, nc, removed):
        sol = L.solve_case2(na, nb, nc, list(removed))

        def touching(edges, lab):
            return sum(lab in (x, y) for x, y, _ in edges)
        assert L.case2_effect(na, nb, nc, removed) == (
            len(sol) - len(removed),
            *(touching(sol, lab) - touching(removed, lab) for lab in (A, B, U)))

    def test_unsolved_keeps_old_edges(self, monkeypatch):
        L.clear_memo()  # a memo hit would bypass the budget
        monkeypatch.setattr(L, "NODE_BUDGET", 1)
        try:
            removed = ((A, C, 1), (B, C, 1))
            assert L.solve_case2(1, 1, 1, list(removed)) is None
            assert L.case2_effect(1, 1, 1, removed) == (0, 0, 0, 0)
        finally:
            L.clear_memo()  # drop the budget-limited answers


def reference_search(slots, target, max_depth):
    """The solver's IDDFS with the lane bound only: the search before the
    mass bound, kept here as the oracle the pruned search must equal."""
    npairs = len(target)
    slots = sorted(slots, key=lambda s: -sum(s[1]))
    nslots = len(slots)
    suffix = [[0] * npairs for _ in range(nslots + 1)]
    for i in range(nslots - 1, -1, -1):
        for p in range(npairs):
            suffix[i][p] = suffix[i + 1][p] + slots[i][1][p]
    state = {"nodes": 0}

    def dfs(idx, residual, remaining, chosen):
        state["nodes"] += 1
        if state["nodes"] > L.NODE_BUDGET:
            raise L._Budget
        if not any(residual):
            return list(chosen)
        if remaining == 0 or idx == nslots:
            return None
        suf = suffix[idx]
        for p in range(npairs):
            if abs(residual[p]) > (remaining if remaining < suf[p] else suf[p]):
                return None
        cov = slots[idx][1]
        for sign in (1, -1):
            newres = tuple(residual[p] - sign * cov[p] for p in range(npairs))
            chosen.append((slots[idx][0], sign))
            r = dfs(idx + 1, newres, remaining - 1, chosen)
            chosen.pop()
            if r is not None:
                return r
        return dfs(idx + 1, residual, remaining, chosen)

    try:
        for depth in range(0, max_depth + 1):
            r = dfs(0, target, depth, [])
            if r is not None:
                return r
    except L._Budget:
        return None
    return None


def case1_flag_panels():
    """Every Case-1 panel: atom counts 1 or 2 per side, every singleton-flag
    combination."""
    for na, nb in itertools.product((1, 2), repeat=2):
        for flags in itertools.product((False, True), repeat=na + nb):
            yield L.case1_panel(na, nb, flags)


PANELS = [*case1_flag_panels(),
          *(L.case2_panel(na, nb, nc) for na, nb, nc in itertools.product((1, 2), repeat=3))]


class TestSearchEquivalence:
    """The pruned search returns exactly the reference search's answer."""

    def test_every_search_of_a_ppi_like_run(self, monkeypatch):
        seen = []
        search = L._search

        def recording(slots, target, max_depth):
            seen.append((slots, target, max_depth))
            return search(slots, target, max_depth)

        L.clear_memo()  # a memo hit would skip the search
        monkeypatch.setattr(L, "_search", recording)
        try:
            edges = datasets.load("ppi_like", scale="test", seed=0)
            slugger(edges, n_nodes(edges), T=5, seed=0, engine="local")
        finally:
            L.clear_memo()
        assert len(seen) > 100
        assert sum(len(sl) > 15 for sl, _, _ in seen) > 10  # large Case-2 panels too
        for slots, target, depth in seen:
            assert search(slots, target, depth) == reference_search(slots, target, depth)

    @given(panel=st.sampled_from(PANELS), data=st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_targets_on_every_panel_shape(self, panel, data):
        target = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=len(panel.pairs),
                                          max_size=len(panel.pairs))))
        got = L._search(panel.slots, target, 4)
        assert got == reference_search(panel.slots, target, 4)

    @given(panel=st.sampled_from(PANELS), data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_reachable_targets_on_every_panel_shape(self, panel, data):
        # the coverage of up to five distinct signed slots: a solution exists
        picks = data.draw(st.lists(st.tuples(st.sampled_from(panel.slots),
                                             st.sampled_from((1, -1))),
                                   max_size=5, unique_by=lambda pick: pick[0][0]))
        target = tuple(sum(s * cov[p] for (_, cov), s in picks)
                       for p in range(len(panel.pairs)))
        got = L._search(panel.slots, target, L.MAX_DEPTH)
        assert got == reference_search(panel.slots, target, L.MAX_DEPTH)
        assert got is not None and len(got) <= len(picks)
