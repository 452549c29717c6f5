"""Round 1 of SLUGGER cannot merge when T >= 2, so the driver skips it.

Before round 1 every root is a subnode and every edge a p-edge between
two of them. Merging roots a and b adds two h-edges, and a new edge
touching U covers at most the two old edges (a, y) and (b, y), so the
merge saves at most one edge per common neighbour: Saving <= (cn - 2) /
den <= (cn - 2) / (2 cn) < 1/2 = θ(1) (DESIGN.md §3.2). These tests build
the round-1 state the driver would have built and check the premise on
Algorithm 2's own Saving, so a change to its h-cost terms or to θ that
breaks the skip fails here.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import candidates
from repro.core.groupmerge import GroupWorker, run_group
from repro.core.slugger import _tall_rows
from repro.model.summary import Forest


def random_simple(n: int, p: float, seed: int) -> pd.DataFrame:
    """Each of the n·(n−1)/2 pairs is an edge with probability p (p = 1:
    the clique K_n)."""
    rng = np.random.default_rng(seed)
    src, dst = np.triu_indices(n, 1)
    keep = rng.random(len(src)) < p
    return pd.DataFrame({"src": src[keep].astype(np.int64), "dst": dst[keep].astype(np.int64)})


def round_one_bundles(edges: pd.DataFrame, n: int, seed: int, *, one_group: bool = False):
    """The round-1 worker bundles: an all-singleton forest, the input edges
    as p-edges, and the round-1 candidate sets (or one group of all roots)."""
    forest = Forest(n, {u: 1 for u in range(n)})
    pedges = [(int(s), int(d), 1) for s, d in zip(edges["src"], edges["dst"])]
    leaf_root = forest.leaf_root()
    if one_group:
        gid_of = {r: 0 for r in range(n)}
    else:
        groups = candidates.assign_groups(edges, leaf_root, seed, 1)
        gid_of = dict(zip(groups["root"].tolist(), groups["gid"].tolist()))
    bundles, _ = _tall_rows(forest, pedges, leaf_root, edges, gid_of)
    return bundles


def assert_no_round_one_merge(bundles, seed: int, hb: int, big_t: int) -> None:
    for gid, bundle in bundles.items():
        roots = bundle[0]
        if len(roots) < 2:
            continue
        w = GroupWorker(gid, 1, 0.5, seed, hb, *bundle)
        for a in roots:
            for z in roots:
                if z != a:
                    assert w.saving(a, z) < 0.5, (gid, a, z)
        assert run_group(gid, bundle, 1, big_t, seed, hb)[0] == []


@given(n=st.integers(2, 60), p=st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95, 1.0]),
       seed=st.integers(0, 10**6), hb=st.sampled_from([0, 2]), big_t=st.integers(2, 20),
       one_group=st.booleans())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_round_one_saving_below_half(n, p, seed, hb, big_t, one_group):
    edges = random_simple(n, p, seed)
    bundles = round_one_bundles(edges, n, seed % 97, one_group=one_group)
    assert_no_round_one_merge(bundles, seed % 97, hb, big_t)


@pytest.mark.parametrize("m", [1, 2, 3, 10, 58])
def test_twins_of_k2m_score_exactly(m):
    # a = 0 and b = 1 share all m neighbours: one U-edge replaces each pair
    # (a, y), (b, y), at the price of two h-edges
    edges = pd.DataFrame({"src": [0] * m + [1] * m,
                          "dst": list(range(2, m + 2)) * 2})
    bundles = round_one_bundles(edges, m + 2, 0, one_group=True)
    w = GroupWorker(0, 1, 0.5, 0, 0, *bundles[0])
    assert w.saving(0, 1) == pytest.approx((m - 2) / (2 * m), abs=1e-12)
    assert w.saving(1, 0) == pytest.approx((m - 2) / (2 * m), abs=1e-12)
    assert_no_round_one_merge(bundles, 0, 0, 5)
