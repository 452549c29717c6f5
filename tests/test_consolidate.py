"""Cross-group consolidation tests (the distributed Case 2 lift)."""
from repro.core import consolidate as cons


def consolidate(edges, children):
    """The lift with the parent map derived from ``children``."""
    return cons.consolidate(edges, {c: p for p, ks in children.items() for c in ks}, children)


class TestLift:
    def test_basic_lift(self):
        children = {10: [0, 1]}
        out = consolidate([(0, 5, 1), (1, 5, 1)], children)
        assert out == [(5, 10, 1)]

    def test_no_lift_single_child(self):
        children = {10: [0, 1]}
        out = consolidate([(0, 5, 1)], children)
        assert out == [(0, 5, 1)]

    def test_no_lift_sign_mismatch(self):
        children = {10: [0, 1]}
        out = consolidate([(0, 5, 1), (1, 5, -1)], children)
        assert set(out) == {(0, 5, 1), (1, 5, -1)}

    def test_cascade_up_two_levels(self):
        children = {10: [0, 1], 11: [2, 3], 12: [10, 11]}
        edges = [(0, 5, 1), (1, 5, 1), (2, 5, 1), (3, 5, 1)]
        out = consolidate(edges, children)
        assert out == [(5, 12, 1)]

    def test_both_sides_lift(self):
        children = {10: [0, 1], 20: [5, 6]}
        edges = [(0, 5, 1), (1, 5, 1), (0, 6, 1), (1, 6, 1)]
        out = consolidate(edges, children)
        assert out == [(10, 20, 1)]

    def test_negative_edges_lift_too(self):
        children = {10: [0, 1]}
        out = consolidate([(0, 5, -1), (1, 5, -1)], children)
        assert out == [(5, 10, -1)]

    def test_existing_parent_edge_blocks_lift(self):
        # lifting would collide with a pre-existing identical edge — must
        # leave coverage intact by keeping the children edges
        children = {10: [0, 1]}
        edges = [(0, 5, 1), (1, 5, 1), (10, 5, 1)]
        out = consolidate(edges, children)
        assert set(out) == {(0, 5, 1), (1, 5, 1), (5, 10, 1)}

    def test_canonicalizes_output(self):
        children = {10: [0, 1]}
        out = consolidate([(7, 0, 1)], children)
        assert out == [(0, 7, 1)]

    def test_coverage_preserved_randomized(self):
        # brute-force coverage equality over subnode pairs
        import itertools
        import random

        rng = random.Random(3)
        children = {10: [0, 1], 11: [2, 3], 12: [10, 11]}
        members = {0: [0], 1: [1], 2: [2], 3: [3], 10: [0, 1], 11: [2, 3],
                   12: [0, 1, 2, 3], 5: [5], 6: [6], 20: [5, 6]}
        children = dict(children)
        children[20] = [5, 6]
        left = [0, 1, 2, 3, 10, 11, 12]
        right = [5, 6, 20]
        for _ in range(25):
            edges = []
            seen = set()
            for __ in range(rng.randint(1, 6)):
                x, y = rng.choice(left), rng.choice(right)
                if (x, y) in seen:
                    continue
                seen.add((x, y))
                edges.append((x, y, rng.choice([1, -1])))

            def cover(es):
                c = {}
                for x, y, s in es:
                    for u, v in itertools.product(members[x], members[y]):
                        key = (u, v) if u < v else (v, u)
                        c[key] = c.get(key, 0) + s
                return {k: v for k, v in c.items() if v}

            out = consolidate(edges, children)
            assert cover(out) == cover(edges)
            assert len(out) <= len(edges)
