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
unit tests; it shares no code with ``decode``, so each cross-checks the
other.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.candidates import map_bundles
from .summary import HierSummary


def tree_pair_rows(
    summary: HierSummary,
) -> list[tuple[list[tuple[int, int, int]], dict[int, list[int]]]]:
    """The p/n-edges grouped by the (min, max) pair of their endpoints'
    roots: one ``([(x, y, sign), ...], {endpoint: sorted subnodes})`` per
    tree pair, built with numpy from ``HierSummary.membership`` (the last
    closure row of a subnode names its root)."""
    x, y, sign = (summary.pedges[c].to_numpy(dtype=np.int64) for c in ("x", "y", "sign"))
    if not len(x):
        return []
    mem = summary.membership()
    sub, sup = mem["sub"].to_numpy(), mem["sup"].to_numpy()
    root = sup[np.r_[sub[1:] != sub[:-1], True]][sub]  # subnode ids are 0..n_sub-1
    keep = np.isin(sup, np.r_[x, y])
    order = np.argsort(sup[keep], kind="stable")  # subnodes stay ascending
    sup, sub, root = sup[keep][order], sub[keep][order], root[keep][order]
    first = np.flatnonzero(np.r_[True, sup[1:] != sup[:-1]])
    ends, root = sup[first], root[first]
    if not np.isin(np.r_[x, y], ends).all():
        raise ValueError("a p/n-edge names a supernode that contains no subnode")
    members = dict(zip(ends.tolist(), (m.tolist() for m in np.split(sub, first[1:]))))
    rx, ry = root[np.searchsorted(ends, x)], root[np.searchsorted(ends, y)]
    lo, hi = np.minimum(rx, ry), np.maximum(rx, ry)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    cuts = np.flatnonzero((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])) + 1
    rows = []
    for idx in np.split(order, cuts):
        xs, ys = x[idx].tolist(), y[idx].tolist()
        rows.append((list(zip(xs, ys, sign[idx].tolist())),
                     {v: members[v] for v in set(xs) | set(ys)}))
    return rows


def _net_edges(rows, n: int, check: bool) -> pd.DataFrame:
    """Pairs of net coverage 1 for a batch of ``tree_pair_rows`` rows, each
    row summed on its own. Under ``check`` raises ValueError on a self-pair
    (an edge between a supernode and its ancestor) or a net outside {0, 1}."""
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
        if check and (src == dst).any():
            raise ValueError("self-pair: a p/n-edge joins a supernode to its ancestor")
        keys, inv = np.unique(src * n + dst, return_inverse=True)
        net = np.bincount(inv, weights=np.concatenate(ss), minlength=len(keys))
        if check and ((net < 0) | (net > 1)).any():
            raise ValueError("net coverage outside {0,1}")
        out.append(keys[net == 1])
    keys = np.concatenate(out)
    return pd.DataFrame({"src": keys // n, "dst": keys % n})


def decode(spark: SparkSession, summary: HierSummary, *, check: bool = True) -> DataFrame:
    """Decode to the canonical edge DataFrame (src < dst): one map-only
    Spark stage over the ``tree_pair_rows`` rows.

    The result is lazy; nothing runs until the caller's action. With
    ``check``, that action raises a ``pyspark.errors.PySparkException``
    whose message contains ``net coverage outside {0,1}`` if a subnode
    pair's net coverage lies outside {0, 1}, or ``self-pair`` if an edge
    joins a supernode to its ancestor."""
    fn = partial(_net_edges, n=summary.n_sub, check=check)
    return map_bundles(spark, tree_pair_rows(summary), fn, "src long, dst long")


def decode_pd(summary: HierSummary, *, check: bool = True) -> pd.DataFrame:
    """Pandas twin of ``decode`` for small graphs (unit tests, Alg-4 oracle)."""
    members = summary.leaf_members()
    from collections import Counter

    net: Counter[tuple[int, int]] = Counter()
    for x, y, s in zip(
        summary.pedges["x"].astype(int),
        summary.pedges["y"].astype(int),
        summary.pedges["sign"].astype(int),
    ):
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
    if check:
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
