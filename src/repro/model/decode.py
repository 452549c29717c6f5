"""Exact decoding of a hierarchical summary back to the input edge set.

A subedge (u, v) exists iff the number of p-edges covering (u, v)
exceeds the number of n-edges covering it (Sect. II-B). SLUGGER's
transformations preserve coverage *exactly*, so the net count is always
in {0, 1}; both decoders check this, which turns any encoding bug into
a loud failure rather than a silently wrong graph.

One function, ``_net_pairs``, counts the coverage for both decoders in
one numpy pass: the endpoints' member lists laid out flat, every edge's
member product expanded with ``np.repeat`` and offset arithmetic, and the
covered pairs netted by ``np.unique`` and a sign-weighted ``np.bincount``.
It raises ValueError on a self-pair, then on a net outside {0, 1}, a
check that ``python -O`` keeps.

``decode`` is the Spark implementation. An edge (x, y) covers (u, v) only
when x contains u and y contains v, so every edge covering (u, v) joins
u's tree to v's tree. The driver therefore groups the p/n-edges by the
pair of their endpoints' roots (``tree_pair_rows``): one row per tree
pair with its edges and their endpoints' member lists. One map-only
``mapInPandas`` stage counts each Arrow batch of rows in one
``_net_pairs`` pass: all edges covering a pair sit in that pair's row, and
two rows never cover the same pair, so a batch's count is exact and no
join, no aggregation across batches and no shuffle is needed. The
result is lazy; its checks run in the workers and fire when the caller
runs an action. ``decode_pd`` is its pandas twin: the decoder of the
local engine (the one ``perfbench`` times as ``decode_s``), the reference
``perfbench`` checks the Spark decode against, and the decoder of the
fast unit tests. It counts all the edges as one row, with no tree-pair
rows to build. Both read the member lists of the summary's
:class:`repro.model.summary.Forest` (``members()``) and reject an edge to
a supernode with no subnode, or with a sign other than ±1, through the
same ``checked_pedges``; the tests and the benchmark check each against
the input edge set.
"""
from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

from ..core.candidates import map_bundles
from .summary import Forest, HierSummary, canon, checked_pedges

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

# pair keys u * n + v (u, v < n) stay below n * n <= 2**63, so int64 holds them
_MAX_KEY_BASE = math.isqrt(2**63)


def tree_pair_rows(
    summary: HierSummary,
) -> list[tuple[list[tuple[int, int, int]], dict[int, list[int]]]]:
    """The p/n-edges grouped by the (min, max) pair of their endpoints'
    roots: one ``([(x, y, sign), ...], {endpoint: sorted subnodes})`` per
    tree pair, in tree-pair order, each row's edges in table order. Raises
    ValueError if an edge names an unknown id or a supernode that contains
    no subnode, or has a sign other than ±1."""
    f = Forest.from_summary(summary)
    members, root = f.members(), f.root_of()
    rows: dict[tuple[int, int], tuple[list, dict]] = defaultdict(lambda: ([], {}))
    for x, y, s in checked_pedges(summary, members):
        edges, mem = rows[canon(root[x], root[y])]
        edges.append((x, y, s))
        mem[x], mem[y] = members[x], members[y]
    return [rows[k] for k in sorted(rows)]


def _net_pairs(edges, members: dict[int, list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v), u < v, of net coverage 1 over ``edges`` ((x, y,
    sign) triples, sign ±1 as ``checked_pedges`` ensures, whose endpoints'
    subnodes ``members`` lists), as sorted int64 arrays ``(u, v)``, in one
    numpy pass: the endpoints' member lists laid out flat with offsets,
    every edge's member product expanded by ``np.repeat`` and offset
    arithmetic (a self-loop keeps u < v), each pair keyed as ``u * n + v``
    and netted by ``np.unique`` and a sign-weighted ``np.bincount``.
    Raises ValueError on a self-pair (an edge between a supernode and its
    ancestor), on subnode ids too large for that key to fit in int64, and
    then on a net outside {0, 1}."""
    e = np.array(edges, dtype=np.int64).reshape(-1, 3)
    if not len(e):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ends, xy = np.unique(e[:, :2], return_inverse=True)
    lists = [members[v] for v in ends.tolist()]
    lens = np.array([len(m) for m in lists], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(lists), np.int64, int(lens.sum()))
    start = np.cumsum(lens) - lens
    xi, yi = xy.reshape(-1, 2).T
    cnt = lens[xi] * lens[yi]
    # covered pair i is the k-th of its edge ei's member product
    ei = np.repeat(np.arange(len(e)), cnt)
    k = np.arange(len(ei)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    ny = lens[yi][ei]
    u = flat[start[xi][ei] + k // ny]
    v = flat[start[yi][ei] + k % ny]
    loop = (xi == yi)[ei]
    if ((u == v) & ~loop).any():
        raise ValueError("self-pair: a p/n-edge joins a supernode to its ancestor")
    keep = ~loop | (u < v)
    a, b = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    n = int(flat.max()) + 1
    if n > _MAX_KEY_BASE:
        raise ValueError(f"subnode id {n - 1} is too large for an int64 pair key")
    keys, at = np.unique(a * n + b, return_inverse=True)
    net = np.bincount(at, weights=e[ei[keep], 2])
    bad = keys[(net != 0) & (net != 1)]
    if len(bad):
        raise ValueError(
            f"net coverage outside {{0,1}} at pairs {[divmod(int(x), n) for x in bad[:5]]}")
    one = keys[net == 1]
    return one // n, one % n


def _decode_rows(rows) -> pd.DataFrame:
    """The pairs of net coverage 1 over ``(edges, members)`` rows, counted
    in one ``_net_pairs`` pass: a batch of ``tree_pair_rows`` rows on
    Spark, or every p/n-edge as one row in ``decode_pd``. One pass is exact
    because no two tree-pair rows cover the same pair."""
    members: dict[int, list[int]] = {}
    for _, mem in rows:
        members.update(mem)
    src, dst = _net_pairs([e for edges, _ in rows for e in edges], members)
    return pd.DataFrame({"src": src, "dst": dst})


def decode(spark: SparkSession, summary: HierSummary) -> DataFrame:
    """Decode to the canonical edge DataFrame (src < dst): one map-only
    Spark stage over the ``tree_pair_rows`` rows, one ``_net_pairs`` pass
    per Arrow batch. Raises ValueError on the driver as ``decode_pd`` does
    if an edge names an unknown id or a supernode that contains no
    subnode, or has a sign other than ±1.

    The result is lazy; nothing runs until the caller's action. That action
    raises a ``pyspark.errors.PySparkException`` carrying ``decode_pd``'s
    ValueError message: ``net coverage outside {0,1}`` if a subnode pair's
    net coverage lies outside {0, 1}, or ``self-pair`` if an edge joins a
    supernode to its ancestor."""
    return map_bundles(spark, tree_pair_rows(summary), _decode_rows, "src long, dst long")


def decode_pd(summary: HierSummary) -> pd.DataFrame:
    """Pandas twin of ``decode``: the local engine's decoder, the reference
    the Spark decode is checked against and the unit tests' oracle. One
    count over all the p/n-edges. Raises ValueError if an edge names an
    unknown id or a supernode that contains no subnode, or has a sign
    other than ±1, on a self-pair, or on a net outside {0, 1}, with the
    messages of ``decode``."""
    members = Forest.from_summary(summary).members()
    return _decode_rows([(checked_pedges(summary, members), members)])


def assert_lossless_pd(summary: HierSummary, edges: pd.DataFrame) -> None:
    """Assert the summary decodes exactly to ``edges`` (pandas path). An
    input edge may come in either orientation, as every summarizer accepts
    it; the decoder gives each as (min, max)."""
    src, dst = (edges[c].to_numpy(dtype=np.int64) for c in ("src", "dst"))
    want = pd.DataFrame({"src": np.minimum(src, dst), "dst": np.maximum(src, dst)})
    want = want.sort_values(["src", "dst"]).reset_index(drop=True)
    got = decode_pd(summary).sort_values(["src", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
