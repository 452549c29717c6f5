"""Exact decoding of a hierarchical summary back to the input edge set.

A subedge (u, v) exists iff the number of p-edges covering (u, v)
exceeds the number of n-edges covering it (Sect. II-B). SLUGGER's
transformations preserve coverage *exactly*, so the net count is always
in {0, 1}; both decoders check this, which turns any encoding bug into
a loud failure rather than a silently wrong graph.

``decode`` is the Spark implementation. An edge (x, y) covers (u, v) only
when x contains u and y contains v, so every edge covering (u, v) joins
u's tree to v's tree. The driver therefore groups the p/n-edges by the
pair of their endpoints' roots (``tree_pair_rows``): one row per tree
pair with its edges and their endpoints' member lists. Each row decodes
on its own in one map-only ``mapInPandas`` stage: all edges covering a
pair sit in that pair's row, and two rows never produce the same pair,
so no join, no aggregation across rows and no shuffle is needed. The
result is lazy; its {0, 1} check runs in the workers and fires when the
caller runs an action. ``decode_pd`` is the pandas twin used by fast
unit tests. Both read the member lists of the summary's
:class:`repro.model.summary.Forest` (``members()``), reject an edge to a
supernode with no subnode through the same ``checked_pedges``, and expand
and sum the edges in their own way; the tests and the benchmark check each
against the input edge set.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

from ..core.candidates import map_bundles
from .summary import Forest, HierSummary, canon, checked_pedges

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession


def tree_pair_rows(
    summary: HierSummary,
) -> list[tuple[list[tuple[int, int, int]], dict[int, list[int]]]]:
    """The p/n-edges grouped by the (min, max) pair of their endpoints'
    roots: one ``([(x, y, sign), ...], {endpoint: sorted subnodes})`` per
    tree pair, in tree-pair order, each row's edges in table order. Raises
    ValueError if an edge names an unknown id or a supernode that contains
    no subnode."""
    f = Forest.from_summary(summary)
    members, root = f.members(), f.root_of()
    rows: dict[tuple[int, int], tuple[list, dict]] = defaultdict(lambda: ([], {}))
    for x, y, s in checked_pedges(summary, members):
        edges, mem = rows[canon(root[x], root[y])]
        edges.append((x, y, s))
        mem[x], mem[y] = members[x], members[y]
    return [rows[k] for k in sorted(rows)]


def _net_edges(rows, n: int) -> pd.DataFrame:
    """Pairs of net coverage 1 for a batch of ``tree_pair_rows`` rows, each
    row summed on its own. Raises ValueError on a self-pair (an edge
    between a supernode and its ancestor) or a net outside {0, 1}."""
    out = [np.empty(0, np.int64)]
    for edges, members in rows:
        us, vs, ss = [], [], []
        for x, y, s in edges:
            a = np.array(members[x], dtype=np.int64)
            if x == y:
                i, j = np.triu_indices(len(a), 1)
                u, v = a[i], a[j]
            else:
                b = np.array(members[y], dtype=np.int64)
                u, v = np.repeat(a, len(b)), np.tile(b, len(a))
            us.append(u)
            vs.append(v)
            ss.append(np.full(len(u), s, dtype=np.int64))
        u, v = np.concatenate(us), np.concatenate(vs)
        src, dst = np.minimum(u, v), np.maximum(u, v)
        if (src == dst).any():
            raise ValueError("self-pair: a p/n-edge joins a supernode to its ancestor")
        keys, inv = np.unique(src * n + dst, return_inverse=True)
        net = np.bincount(inv, weights=np.concatenate(ss), minlength=len(keys))
        if ((net < 0) | (net > 1)).any():
            raise ValueError("net coverage outside {0,1}")
        out.append(keys[net == 1])
    keys = np.concatenate(out)
    return pd.DataFrame({"src": keys // n, "dst": keys % n})


def decode(spark: SparkSession, summary: HierSummary) -> DataFrame:
    """Decode to the canonical edge DataFrame (src < dst): one map-only
    Spark stage over the ``tree_pair_rows`` rows.

    The result is lazy; nothing runs until the caller's action. That action
    raises a ``pyspark.errors.PySparkException`` whose message contains
    ``net coverage outside {0,1}`` if a subnode pair's net coverage lies
    outside {0, 1}, or ``self-pair`` if an edge joins a supernode to its
    ancestor."""
    fn = partial(_net_edges, n=summary.n_sub)
    return map_bundles(spark, tree_pair_rows(summary), fn, "src long, dst long")


def decode_pd(summary: HierSummary) -> pd.DataFrame:
    """Pandas twin of ``decode`` for small graphs (unit tests, Alg-4 oracle).
    Raises ValueError, as ``decode`` does, if an edge names an unknown id or
    a supernode that contains no subnode, and AssertionError on a self-pair
    or a net outside {0, 1}."""
    members = Forest.from_summary(summary).members()
    net: Counter[tuple[int, int]] = Counter()
    for x, y, s in checked_pedges(summary, members):
        if x == y:
            mem = members[x]
            for i in range(len(mem)):
                for j in range(i + 1, len(mem)):
                    net[(mem[i], mem[j])] += s
        else:
            for u in members[x]:
                for v in members[y]:
                    a, b = (u, v) if u < v else (v, u)
                    assert a != b, "ancestor/descendant p-edge produced a self-pair"
                    net[(a, b)] += s
    bad = [k for k, c in net.items() if c not in (0, 1)]
    assert not bad, f"net coverage outside {{0,1}} at pairs {bad[:5]}"
    pairs = sorted(k for k, c in net.items() if c == 1)
    return pd.DataFrame(
        {
            "src": np.array([p[0] for p in pairs], dtype=np.int64),
            "dst": np.array([p[1] for p in pairs], dtype=np.int64),
        }
    )


def assert_lossless_pd(summary: HierSummary, edges: pd.DataFrame) -> None:
    """Assert the summary decodes exactly to ``edges`` (pandas path)."""
    got = decode_pd(summary)
    want = edges.sort_values(["src", "dst"]).reset_index(drop=True)
    got = got.sort_values(["src", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want[["src", "dst"]].astype(np.int64))
