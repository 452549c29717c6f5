"""Decoder tests: pandas/Spark agreement, oracle cross-checks, the
net-coverage, self-pair and sign guards that catch encoding bugs (also
under ``python -O``), the numpy coverage kernel against a per-pair
``Counter`` reference, and the neighbour queries of Algorithm 4 against
the full decode."""
import os
import subprocess
import sys
import textwrap
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.errors import PySparkException

import repro
from repro.baselines.sweg import sweg
from repro.core.candidates import map_bundles
from repro.core.slugger import slugger
from repro.graphs import generators as gen
from repro.graphs.ops import adjacency_dict
from repro.model.decode import (_decode_rows, _net_pairs, assert_lossless_pd, decode,
                                decode_pd, tree_pair_rows)
from repro.model.flat import encode_flat
from repro.model.neighbors import NeighborIndex
from repro.model.summary import Forest, HierSummary, checked_pedges
from repro.oracle import assert_equivalent
from tests.test_property_lossless import SETTINGS, random_graph


def hier_example() -> tuple[HierSummary, pd.DataFrame]:
    """Fig.2-style example: {0,1} and {2,3} under {0,1,2,3}; node 5 linked
    to all of {0,1,2,3} except 2 and 3 via p-edge + n-edge."""
    nodes = pd.DataFrame(
        {"nid": [0, 1, 2, 3, 4, 5, 10, 11, 12],
         "size": [1, 1, 1, 1, 1, 1, 2, 2, 4]}
    )
    hedges = pd.DataFrame(
        {"parent": [10, 10, 11, 11, 12, 12], "child": [0, 1, 2, 3, 10, 11]}
    )
    pedges = pd.DataFrame(
        {"x": [12, 5, 5], "y": [12, 11, 12], "sign": [1, -1, 1]}
    )
    s = HierSummary(n_sub=6, nodes=nodes, hedges=hedges, pedges=pedges)
    # expected: clique on {0,1,2,3} (p-loop on 12) plus edges 0-5, 1-5
    want = pd.DataFrame(
        {"src": [0, 0, 0, 1, 1, 2, 0, 1],
         "dst": [1, 2, 3, 2, 3, 3, 5, 5]}
    )
    return s, want


def summary(
    n_sub: int, tree: dict[int, list[int]], edges: list[tuple[int, int, int]]
) -> HierSummary:
    """HierSummary from {parent: children} and (x, y, sign) edges."""
    members = {u: [u] for u in range(n_sub)}

    def leaves(v: int) -> list[int]:
        if v not in members:
            members[v] = sorted(u for c in tree[v] for u in leaves(c))
        return members[v]

    for v in tree:
        leaves(v)
    nodes = pd.DataFrame({"nid": list(members), "size": [len(m) for m in members.values()]})
    hedges = pd.DataFrame({"parent": [p for p, cs in tree.items() for _ in cs],
                           "child": [c for cs in tree.values() for c in cs]}, dtype="int64")
    pedges = pd.DataFrame(edges, columns=["x", "y", "sign"], dtype="int64")
    return HierSummary(n_sub=n_sub, nodes=nodes, hedges=hedges, pedges=pedges)


def double_cover() -> HierSummary:
    """The pair (0, 1) is covered by p-edge (0, 1) and by the p-loop on its
    parent 10: net coverage 2."""
    return summary(2, {10: [0, 1]}, [(0, 1, 1), (10, 10, 1)])


def double_cover_across_trees() -> HierSummary:
    """The pair (0, 5) is covered by p-edges (10, 5) and (0, 5), one level
    apart, between the trees of 10 = {0, 1} and of 5: net coverage 2."""
    return summary(6, {10: [0, 1]}, [(0, 5, 1), (5, 10, 1)])


def edge_to_ancestor() -> HierSummary:
    """{0, 1} under 10 with p-edges (0, 10) and (0, 2): (0, 10) covers the
    self-pair (0, 0)."""
    return summary(3, {10: [0, 1]}, [(0, 10, 1), (0, 2, 1)])


HAND_BUILT = {
    "hier_example": lambda: hier_example()[0],
    # p-edge between the roots 12 and 13, masked by an n-edge (10, 3) one
    # level below 12: {0, 1, 2} x {3, 4} without (0, 3) and (1, 3)
    "masked_cross_tree": lambda: summary(
        5, {10: [0, 1], 12: [10, 2], 13: [3, 4]}, [(12, 13, 1), (3, 10, -1)]),
    # p-edge between two disjoint subtrees 10 and 11 of the tree of 12
    "within_one_tree": lambda: summary(
        5, {10: [0, 1], 11: [2, 3], 12: [10, 11]}, [(10, 11, 1), (4, 12, 1)]),
    # three trees with p-loops, a masked loop pair and cross-tree edges
    "forest_with_loops": lambda: summary(
        9,
        {10: [0, 1, 2], 11: [3, 4], 12: [11, 5], 13: [6, 7]},
        [(10, 10, 1), (0, 1, -1), (12, 12, 1), (3, 4, -1), (13, 13, 1),
         (10, 13, 1), (2, 6, -1), (5, 8, 1), (8, 8, 1)]),
}


# a p/n-edge to a supernode that holds no subnode: every reader raises
EMPTY_ENDPOINT = [
    lambda: summary(3, {10: [0, 1]}, [(0, 1, 1), (2, 99, 1)]),  # 99 is unknown
    lambda: summary(3, {10: [0, 1], 11: []}, [(10, 2, 1), (2, 11, -1)]),  # 11 is childless
]
EMPTY_ENDPOINT_IDS = ["unknown_id", "childless_internal"]

# a summary whose encoding is broken: every decoder raises ValueError
BROKEN = [double_cover, double_cover_across_trees, edge_to_ancestor]
BROKEN_IDS = [f.__name__ for f in BROKEN]


def bad_sign(sign: int) -> HierSummary:
    """{0, 1} under 10 with a p/n-edge (10, 2) of ``sign``."""
    return summary(3, {10: [0, 1]}, [(10, 2, sign)])


# a p/n-edge sign outside {-1, +1}: every reader raises ValueError
BAD_SIGNS = [0, 2, -2]


class TestDecodePandas:
    def test_identity_roundtrip(self):
        e = gen.er(40, 4.0, seed=0)
        s = HierSummary.identity(e, 40)
        assert_lossless_pd(s, e)

    def test_hierarchical_example(self):
        s, want = hier_example()
        got = decode_pd(s)
        pd.testing.assert_frame_equal(
            got, want.sort_values(["src", "dst"]).reset_index(drop=True).astype("int64")
        )

    def test_paper_interpretation_p_minus_n(self):
        # p-edge (supernode, 5) + n-edge (child supernode, 5): net 0 on the
        # masked pairs, net 1 elsewhere — the Fig. 2 semantics
        s, _ = hier_example()
        got = decode_pd(s)
        pairs = set(zip(got["src"], got["dst"]))
        assert (0, 5) in pairs and (1, 5) in pairs
        assert (2, 5) not in pairs and (3, 5) not in pairs

    def test_net_guard_triggers_on_double_cover(self):
        with pytest.raises(ValueError, match="net coverage"):
            decode_pd(double_cover())

    @pytest.mark.parametrize("read", [decode_pd, NeighborIndex], ids=["decode_pd", "NeighborIndex"])
    @pytest.mark.parametrize("make", EMPTY_ENDPOINT, ids=EMPTY_ENDPOINT_IDS)
    def test_rejects_edge_to_empty_supernode(self, make, read):
        # the Spark decode's check: an edge that would decode to nothing
        with pytest.raises(ValueError, match="contains no subnode"):
            read(make())

    @pytest.mark.parametrize("read", [decode_pd, NeighborIndex], ids=["decode_pd", "NeighborIndex"])
    @pytest.mark.parametrize("sign", BAD_SIGNS)
    def test_rejects_sign_outside_pm1(self, sign, read):
        # sign 0 would drop the edge in a count and 2 would count it twice
        with pytest.raises(ValueError, match=f"has sign {sign}, not"):
            read(bad_sign(sign))

    def test_empty_pedges_decodes_empty_int64(self):
        got = decode_pd(HierSummary.identity(gen.path(3).iloc[0:0], 3))
        assert len(got) == 0 and list(got.dtypes) == [np.int64, np.int64]


def test_guards_survive_python_O():
    # ``python -O`` strips asserts; the decoder and validate guards must still raise
    script = textwrap.dedent("""
        import sys
        sys.path[:0] = sys.argv[1:]
        from test_decode import double_cover, edge_to_ancestor
        from repro.model.decode import decode_pd
        from repro.model.neighbors import NeighborIndex
        calls = [lambda: decode_pd(double_cover()), lambda: decode_pd(edge_to_ancestor()),
                 lambda: NeighborIndex(double_cover()).neighbors(0),
                 lambda: NeighborIndex(edge_to_ancestor()),
                 lambda: edge_to_ancestor().validate()]
        bad = []
        for i, call in enumerate(calls):
            try:
                bad.append(f"call {i} returned {call()!r}")
            except ValueError:
                pass
        sys.exit("; ".join(bad) or None)
    """)
    paths = [os.path.dirname(os.path.abspath(__file__)), os.path.dirname(repro.__path__[0])]
    out = subprocess.run([sys.executable, "-O", "-c", script, *paths],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


class TestNeighborIndex:
    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_matches_decode_on_hand_built(self, name):
        # n-edges on ancestor chains, p-loops and masked pairs
        s = HAND_BUILT[name]()
        want = adjacency_dict(decode_pd(s))
        idx = NeighborIndex(s)
        for v in range(s.n_sub):
            assert idx.neighbors(v) == sorted(want.get(v, ())), v

    @pytest.mark.parametrize(
        "make,match",
        [(double_cover, "net coverage"), (double_cover_across_trees, "net coverage"),
         (edge_to_ancestor, "self-pair")],
        ids=["double_cover", "double_cover_across_trees", "edge_to_ancestor"])
    def test_net_guard(self, make, match):
        # subnode 0 is in the doubly covered pair of the first two
        # summaries; the third's p-edge (0, 10) joins 0 to its parent, which
        # the index rejects when it is built, as both decoders do
        with pytest.raises(ValueError, match=match):
            NeighborIndex(make()).neighbors(0)


@pytest.mark.parametrize("method", [slugger, sweg], ids=["slugger", "sweg"])
def test_assert_lossless_accepts_either_orientation(method):
    # every summarizer accepts an edge as (src, dst) or (dst, src); the
    # decoder gives it back as (min, max), so the check must canonicalize
    e = gen.caveman_cliques(36, clique_size=6, seed=0)
    flipped = pd.DataFrame({"src": e["dst"], "dst": e["src"]})
    assert (flipped["src"] > flipped["dst"]).all()
    assert_lossless_pd(method(flipped, 36, T=3, seed=0).summary, flipped)


class TestDecodeSpark:
    def test_matches_pandas_on_summary(self, spark):
        e = gen.nested_partition(50, levels=2, branching=3, p_top=0.06, ratio=6, seed=1)
        res = slugger(e, 50, T=4, seed=0, engine="local")
        got_pd = decode_pd(res.summary)
        got_sp = decode(spark, res.summary).toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got_sp, got_pd)

    def test_oracle_roundtrip(self, spark):
        e = gen.caveman_cliques(40, clique_size=6, p_rewire=0.1, seed=2)
        res = slugger(e, 40, T=4, seed=0, engine="local")
        assert_equivalent(
            decode(spark, res.summary),
            "SELECT src, dst FROM e",
            e=e,
        )

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_matches_pandas_on_hand_built(self, spark, name):
        s = HAND_BUILT[name]()
        s.validate()
        got = decode(spark, s).toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, decode_pd(s))

    def test_empty_pedges_decodes_empty(self, spark):
        s = HierSummary.identity(gen.path(3).iloc[0:0], 3)
        assert decode(spark, s).count() == 0

    def test_net_guard_fires_at_action(self, spark):
        # decode() stays lazy; the guard raises inside the caller's action
        got = decode(spark, double_cover())
        with pytest.raises(PySparkException, match="net coverage"):
            got.toPandas()
        with pytest.raises(PySparkException, match="net coverage"):
            got.count()

    def test_net_guard_across_trees(self, spark):
        with pytest.raises(PySparkException, match="net coverage"):
            decode(spark, double_cover_across_trees()).toPandas()

    @pytest.mark.parametrize("make", EMPTY_ENDPOINT, ids=EMPTY_ENDPOINT_IDS)
    def test_rejects_edge_to_empty_supernode(self, spark, make):
        # the rows are built on the driver, so the call itself raises
        with pytest.raises(ValueError, match="contains no subnode"):
            decode(spark, make())

    def test_self_pair_guard(self, spark):
        with pytest.raises(PySparkException, match="self-pair"):
            decode(spark, edge_to_ancestor()).toPandas()

    @pytest.mark.parametrize("sign", BAD_SIGNS)
    def test_rejects_sign_outside_pm1(self, spark, sign):
        # the rows are built on the driver, so the call itself raises
        with pytest.raises(ValueError, match=f"has sign {sign}, not"):
            decode(spark, bad_sign(sign))

    def test_faulty_row_in_a_batch_of_several(self, spark):
        # sound tree-pair rows (2i, 2i + 1) and one whose pair (0, 2k) is
        # covered by (0, 2k) and by (0, top), top = {2k, 2k + 1}; with four
        # rows per partition the faulty row shares its Arrow batch
        k = 4 * spark.sparkContext.defaultParallelism
        top = 2 * k + 2
        s = summary(top, {top: [2 * k, 2 * k + 1]},
                    [(2 * i, 2 * i + 1, 1) for i in range(k)] + [(0, 2 * k, 1), (0, top, 1)])

        def batch_size(rows):
            faulty = any((0, top, 1) in edges for edges, _ in rows)
            return pd.DataFrame({"rows": [len(rows)], "faulty": [faulty]})

        sizes = map_bundles(spark, tree_pair_rows(s), batch_size, "rows long, faulty boolean")
        sizes = sizes.toPandas()
        assert sizes.loc[sizes["faulty"], "rows"].item() > 1
        with pytest.raises(ValueError) as local:
            decode_pd(s)
        assert "net coverage" in str(local.value)
        with pytest.raises(PySparkException) as remote:
            decode(spark, s).toPandas()
        assert str(local.value) in str(remote.value)

    @pytest.mark.parametrize("make", BROKEN, ids=BROKEN_IDS)
    def test_same_fault_same_error(self, spark, make):
        # decode_pd raises ValueError; the Spark action carries its message
        with pytest.raises(ValueError) as local:
            decode_pd(make())
        with pytest.raises(PySparkException) as remote:
            decode(spark, make()).toPandas()
        assert str(local.value) in str(remote.value)

    def test_job_count_does_not_grow_with_depth(self, spark):
        def chain(depth: int) -> HierSummary:
            # {0, 1} under supernode 10, nested under 11, ..., 9 + depth,
            # with a p-loop on the top supernode: one subedge (0, 1)
            tops = list(range(10, 10 + depth))
            nodes = pd.DataFrame({"nid": [0, 1] + tops, "size": [1, 1] + [2] * depth})
            hedges = pd.DataFrame({"parent": [10, 10] + tops[1:],
                                   "child": [0, 1] + tops[:-1]})
            pedges = pd.DataFrame({"x": [tops[-1]], "y": [tops[-1]], "sign": [1]})
            return HierSummary(n_sub=2, nodes=nodes, hedges=hedges, pedges=pedges)

        sc = spark.sparkContext
        tracker = sc.statusTracker()
        for depth in (1, 6):
            group = f"test_decode_depth_{depth}"
            sc.setJobGroup(group, group)
            try:
                got = decode(spark, chain(depth)).toPandas()
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            assert list(zip(got["src"], got["dst"])) == [(0, 1)]
            # one map-only job: a second stage would mean a shuffle
            jobs = tracker.getJobIdsForGroup(group)
            assert len(jobs) == 1
            assert len(tracker.getJobInfo(jobs[0]).stageIds) == 1


def counter_net_pairs(edges, members) -> list[tuple[int, int]]:
    """Reference for ``_net_pairs``: one ``Counter`` entry per covered pair,
    pair by pair, then the sorted pairs of net 1 (guards left out)."""
    net: Counter[tuple[int, int]] = Counter()
    for x, y, s in edges:
        for u in members[x]:
            for v in members[y]:
                if x != y or u < v:
                    net[(min(u, v), max(u, v))] += s
    return sorted(k for k, c in net.items() if c == 1)


def pairs(got: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, int]]:
    return list(zip(got[0].tolist(), got[1].tolist()))


def assert_kernel_matches_reference(s: HierSummary) -> None:
    """``_net_pairs`` over all p/n-edges and over each tree-pair row equals
    the reference, and one ``_decode_rows`` pass over every row equals the
    per-row counts concatenated."""
    members = Forest.from_summary(s).members()
    edges = checked_pedges(s, members)
    assert pairs(_net_pairs(edges, members)) == counter_net_pairs(edges, members)
    rows = tree_pair_rows(s)
    per_row = [p for e, m in rows for p in pairs(_net_pairs(e, m))]
    for e, m in rows:
        assert pairs(_net_pairs(e, m)) == counter_net_pairs(e, m)
    got = _decode_rows(rows)
    assert sorted(zip(got["src"].tolist(), got["dst"].tolist())) == sorted(per_row)


class TestNetPairs:
    @given(kind=st.integers(0, 4), n=st.integers(20, 60), seed=st.integers(0, 10**6),
           do_prune=st.booleans())
    @settings(**SETTINGS)
    def test_equals_reference_on_slugger(self, kind, n, seed, do_prune):
        edges = random_graph(kind, n, seed)
        s = slugger(edges, n, T=3, seed=seed % 97, engine="local", do_prune=do_prune).summary
        assert_kernel_matches_reference(s)

    @given(kind=st.integers(0, 4), n=st.integers(20, 60), seed=st.integers(0, 10**6),
           n_groups=st.integers(1, 20))
    @settings(**SETTINGS)
    def test_equals_reference_on_encode_flat(self, kind, n, seed, n_groups):
        edges = random_graph(kind, n, seed)
        group = np.random.default_rng(seed).integers(0, n_groups, n)
        assert_kernel_matches_reference(encode_flat(edges, group))

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_equals_reference_on_hand_built(self, name):
        # n-edges, p-loops and trees several levels deep
        assert_kernel_matches_reference(HAND_BUILT[name]())

    def test_self_pair_guard_fires_before_net_guard(self):
        # edge_to_ancestor plus a p-edge (0, 1): (0, 10) covers the
        # self-pair (0, 0), and (0, 1) twice
        s = summary(3, {10: [0, 1]}, [(0, 10, 1), (0, 2, 1), (0, 1, 1)])
        with pytest.raises(ValueError, match="self-pair"):
            decode_pd(s)

    @staticmethod
    def wide_ids(base: int) -> HierSummary:
        """Subnodes base..base + 3, base + 0 and base + 1 under one
        supernode with a p-loop, a p-edge from it to base + 2 masked at
        base + 1, and a p-edge (base + 2, base + 3); only the listed
        subnodes are in the nodes table."""
        b0, b1, b2, b3 = range(base, base + 4)
        top = base + 4
        return HierSummary(
            n_sub=top,
            nodes=pd.DataFrame({"nid": [b0, b1, b2, b3, top], "size": [1, 1, 1, 1, 2]}),
            hedges=pd.DataFrame({"parent": [top, top], "child": [b0, b1]}),
            pedges=pd.DataFrame({"x": [b1, b2, top, top], "y": [b2, b3, b2, top],
                                 "sign": [-1, 1, 1, 1]}))

    def test_subnode_ids_above_2_pow_31(self):
        base = 2**31 + 7
        got = decode_pd(self.wide_ids(base))
        assert list(zip(got["src"], got["dst"])) == [
            (base, base + 1), (base, base + 2), (base + 2, base + 3)]
        assert_kernel_matches_reference(self.wide_ids(base))

    def test_pair_key_never_wraps(self):
        # (2**32)**2 would wrap in int64
        with pytest.raises(ValueError, match="too large for an int64 pair key"):
            decode_pd(self.wide_ids(2**32))
