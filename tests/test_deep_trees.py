"""Every reader of a summary on a tree far deeper than Python's recursion
limit: a 1,500-deep caterpillar, with its nodes and h-edges listed root
first and leaf first."""
import numpy as np
import pandas as pd
import pytest

from repro.model.cost import metrics
from repro.model.decode import decode_pd, tree_pair_rows
from repro.model.neighbors import NeighborIndex
from repro.model.summary import HierSummary

D = 1500  # spine length = height of the tree
F = D + 1  # a free subnode beside the tree
N = D + 2  # subnodes 0..D in the tree, and F


def spine(k: int) -> int:
    return N + k


def caterpillar(leaf_first: bool) -> HierSummary:
    """Spine supernode k (depth k) has children leaf k and spine k + 1; the
    last one has leaves D - 1 and D. The p/n-edges link 0 to the leaves
    1..D - 2, make a triangle on {D - 2, D - 1, D}, and link F to D - 1
    and D (see ``expected_edges``)."""
    nodes = [(spine(k), D + 1 - k) for k in range(D)] + [(u, 1) for u in range(N)]
    hedges = [(spine(k), c) for k in range(D)
              for c in ((k, spine(k + 1)) if k < D - 1 else (D - 1, D))]
    if leaf_first:
        nodes, hedges = nodes[::-1], hedges[::-1]
    pedges = [(0, spine(1), 1), (0, spine(D - 1), -1),
              (spine(D - 2), spine(D - 2), 1), (F, spine(D - 1), 1)]
    return HierSummary(
        n_sub=N,
        nodes=pd.DataFrame(nodes, columns=["nid", "size"], dtype=np.int64),
        hedges=pd.DataFrame(hedges, columns=["parent", "child"], dtype=np.int64),
        pedges=pd.DataFrame(pedges, columns=["x", "y", "sign"], dtype=np.int64),
    )


def expected_edges() -> list[tuple[int, int]]:
    return sorted([(0, k) for k in range(1, D - 1)]
                  + [(D - 2, D - 1), (D - 2, D), (D - 1, D), (D - 1, F), (D, F)])


@pytest.mark.parametrize("leaf_first", [False, True], ids=["root_first", "leaf_first"])
def test_every_reader(leaf_first):
    s = caterpillar(leaf_first)
    want = expected_edges()
    s.validate()

    m = metrics(s, len(want))
    assert (m.n_p_plus, m.n_p_minus, m.n_h) == (3, 1, 2 * D)
    assert m.max_height == D
    # leaf k < D - 1 sits at depth k + 1, leaves D - 1 and D at depth D, F at 0
    assert m.avg_leaf_depth == (D * (D - 1) // 2 + 2 * D) / N

    got = decode_pd(s)
    assert list(zip(got["src"].tolist(), got["dst"].tolist())) == want

    idx = NeighborIndex(s)
    adj: dict[int, list[int]] = {v: [] for v in range(N)}
    for u, v in want:
        adj[u].append(v)
        adj[v].append(u)
    for v in (0, 1, D // 2, D - 2, D - 1, D, F):
        assert idx.neighbors(v) == sorted(adj[v]), v

    tail = [D - 1, D]
    assert tree_pair_rows(s) == [
        ([(F, spine(D - 1), 1)], {F: [F], spine(D - 1): tail}),
        ([(0, spine(1), 1), (0, spine(D - 1), -1), (spine(D - 2), spine(D - 2), 1)],
         {0: [0], spine(1): list(range(1, D + 1)), spine(D - 1): tail,
          spine(D - 2): [D - 2] + tail}),
    ]
