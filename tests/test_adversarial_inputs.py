"""Adversarial edge lists at every public summarizer (local engine).

Each summarizer must either raise ValueError or return a summary that
decodes exactly to the input's edge set and passes ``HierSummary.validate``
(the baselines' summaries have height-1 trees). Inputs that no simple
undirected graph over ``0..n_sub-1`` can be (a duplicate edge in either
orientation, a self-loop, an id out of range) must raise; integer edge
lists must decode, whatever their orientation, integer width, extra
columns or index.
Float and object id columns may do either (``check_edges`` rejects them).
"""
import itertools

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.mosso import mosso
from repro.baselines.randomized import randomized
from repro.baselines.sags import sags
from repro.baselines.sweg import sweg
from repro.core.pruning import prune
from repro.core.slugger import slugger
from repro.model.decode import decode_pd
from repro.model.summary import HierSummary

DEFECTS = ("duplicate", "reversed_duplicate", "self_loop", "out_of_range", "negative")


@st.composite
def edge_lists(draw, max_nodes=10):
    """(edges, n_sub, malformed): a simple graph, maybe with isolated nodes,
    written with random orientations, dtype, extra columns and row order,
    plus at most one defect that makes it malformed."""
    n_sub = draw(st.integers(0, max_nodes))
    pairs = list(itertools.combinations(range(n_sub), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    rows = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    defect = draw(st.sampled_from((None,) * 3 + DEFECTS))
    if defect in ("duplicate", "reversed_duplicate") and rows:
        u, v = draw(st.sampled_from(rows))
        rows.append((u, v) if defect == "duplicate" else (v, u))
    elif defect == "self_loop" and n_sub:
        v = draw(st.integers(0, n_sub - 1))
        rows.append((v, v))
    elif defect == "out_of_range":
        rows.append((draw(st.integers(0, max(n_sub - 1, 0))), n_sub + draw(st.integers(0, 3))))
    elif defect == "negative":
        rows.append((-1, draw(st.integers(0, max(n_sub - 1, 0)))))
    else:
        defect = None
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    dtype = draw(st.sampled_from(("int64", "int32", "float64", "object")))
    edges = pd.DataFrame({"src": [u for u, _ in rows], "dst": [v for _, v in rows]})
    edges = edges.astype({"src": dtype, "dst": dtype})
    if draw(st.booleans()):
        edges["weight"] = np.arange(len(edges), dtype=np.float64)
    if draw(st.booleans()):  # a shuffled, non-default index
        edges.index = draw(st.permutations(range(100, 100 + len(edges))))
    return edges, n_sub, defect is not None


def edge_set(edges):
    """The input's undirected edges as a set of (lo, hi) int pairs."""
    return {(min(u, v), max(u, v)) for u, v in zip(edges["src"].astype(int), edges["dst"].astype(int))}


def check(edges, n_sub, malformed, run):
    """Run one summarizer; the outcome must be ValueError or an exact decode."""
    original = edges.copy()
    try:
        decoded = run(edges, n_sub)
    except ValueError:
        assert malformed or not pd.api.types.is_integer_dtype(edges["src"]), \
            "a simple integer edge list was rejected"
        return
    pd.testing.assert_frame_equal(edges, original)  # the input is not modified
    assert not malformed, "a malformed edge list was accepted"
    assert set(zip(decoded["src"].tolist(), decoded["dst"].tolist())) == edge_set(edges)
    assert len(decoded) == len(edge_set(edges))


HIER = {
    "slugger": lambda e, n: slugger(e, n, T=3, seed=1, engine="local").summary,
    "slugger_hb": lambda e, n: slugger(e, n, T=3, seed=1, hb=1, engine="local").summary,
    "prune": lambda e, n: prune(HierSummary.identity(e, n), e),
}


def valid_decode(summary):
    summary.validate()
    return decode_pd(summary)


@pytest.mark.parametrize("name", HIER)
@given(case=edge_lists())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hierarchical_summarizers(name, case):
    check(*case, lambda e, n: valid_decode(HIER[name](e, n)))


FLAT = {
    "sweg": lambda e, n: sweg(e, n, T=2, seed=1, engine="local").summary,
    "sags": lambda e, n: sags(e, n, seed=1).summary,
    "randomized": lambda e, n: randomized(e, n, seed=1).summary,
    "mosso": lambda e, n: mosso(e, n, seed=1).summary,
}


def quirky_edges():
    """A simple graph on 9 nodes with nodes 7 and 8 isolated, written with
    mixed orientations, int32 ids, an extra column and a shuffled index."""
    pairs = [(0, 1), (2, 1), (0, 2), (3, 0), (3, 4), (5, 4), (6, 5), (3, 6), (1, 4), (6, 2)]
    edges = pd.DataFrame({"src": [u for u, _ in pairs], "dst": [v for _, v in pairs]},
                         dtype=np.int32, index=np.random.default_rng(0).permutation(len(pairs)))
    edges["label"] = "x"
    return edges, 9, False


@pytest.mark.parametrize("name", FLAT)
@given(case=edge_lists())
@example(case=quirky_edges())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flat_summarizers_on_quirky_edges(name, case):
    check(*case, lambda e, n: valid_decode(FLAT[name](e, n)))
