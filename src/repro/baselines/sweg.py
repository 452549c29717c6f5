"""SWEG baseline (Shin et al., WWW'19) — lossless configuration (ε = 0).

T rounds of {min-hash candidate sets → greedy within-group merging with
threshold θ(t) = 1/(1+t)} over the *flat* model, followed by the optimal
flat encoding, a height-1 summary. Within a group, Saving(A, B) is
computed from exact per-supernode-pair subedge counts (the original uses
a SuperJaccard approximation for speed; the exact-count variant is the
same algorithm with a sharper score — documented in DESIGN.md). Groups run through
SLUGGER's executor, :func:`repro.core.candidates.run_groups` (in-process,
or one ``mapInPandas`` job over pickled per-group bundles, no shuffle);
counts are recomputed from the edge set between rounds (distributed
SWeG's per-round staleness model), read from the flat encoder's
:class:`repro.model.flat.PairTable`. A merge folds the counts with
:func:`repro.model.flat.merge_into`, as SLUGGER's group worker does, and
the driver resolves each round's merges with :func:`repro.model.flat.find`.
"""
from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

from ..core import candidates
from ..graphs.ops import check_edges
from ..model.flat import PairTable, encode_flat, find, merge_into, merged_counts, supernode_cost
from ..model.summary import SummaryResult

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


class _SwegGroup:
    """One candidate set's greedy merge loop over flat-model counts."""

    def __init__(self, theta: float, seed: int, sups: list[int], sizes: dict[int, int],
                 cnt: dict[int, dict[int, int]]):
        self.theta = theta
        self.rng = random.Random(seed)
        self.sups = set(sups)
        self.sizes = sizes
        self.cnt = cnt
        self.merges: list[tuple[int, int]] = []  # (survivor a, absorbed b)

    def _saving(self, a: int, b: int) -> float:
        ca = supernode_cost(self.cnt[a], self.sizes, a, self.sizes[a])
        cb = supernode_cost(self.cnt[b], self.sizes, b, self.sizes[b])
        if ca + cb == 0:
            return -1e18
        su = self.sizes[a] + self.sizes[b]
        cu = supernode_cost(merged_counts(self.cnt, a, b), self.sizes, a, su)
        return 1.0 - cu / (ca + cb)

    def _merge(self, a: int, b: int) -> None:
        # cross-group neighbors are stale till the driver recomputes
        # counts next round
        merge_into(self.cnt, a, b, a)
        self.sizes[a] += self.sizes.pop(b)
        self.sups.discard(b)
        self.merges.append((a, b))

    def _superjaccard(self, a: int, b: int) -> float:
        """Weighted Jaccard of the two supernodes' neighbor count vectors
        (keys a/b folded together) — SWeG's cheap partner-selection score."""
        ca, cb = self.cnt[a], self.cnt[b]

        def norm(c):
            out: dict[int, int] = {}
            for x, e in c.items():
                out[a if x in (a, b) else x] = out.get(a if x in (a, b) else x, 0) + e
            return out

        na, nb = norm(ca), norm(cb)
        inter = sum(min(na.get(x, 0), nb.get(x, 0)) for x in na if x in nb)
        union = sum(na.values()) + sum(nb.values()) - inter
        return inter / union if union else 0.0

    def run(self) -> None:
        q = sorted(self.sups)
        self.rng.shuffle(q)
        while len(q) > 1:
            a = q.pop()
            # SWeG picks the partner by SuperJaccard, then admits the merge
            # only if the (exact) Saving clears θ(t) — it does NOT argmax
            # Saving itself (that is the expensive step it avoids). Every
            # member of Q is within distance 2 of a: they share a's
            # level-0 shingle (repro.core.candidates).
            best, best_j = None, -1.0
            for z in q:
                j = self._superjaccard(a, z)
                if j > best_j:
                    best, best_j = z, j
            if best is not None and self._saving(a, best) >= self.theta:
                self._merge(a, best)
                q.remove(best)
                q.insert(self.rng.randrange(len(q) + 1), a)


def _run_group(gid: int, bundle: tuple, t: int, big_t: int, seed: int) -> list[tuple[int, int]]:
    """Greedy merging on one group: its merges (survivor a, absorbed b).

    ``bundle`` is (members, sizes {supernode: size} for members and their
    neighbors, counts (member, other, subedges))."""
    sups, sizes, counts = bundle
    theta = 1.0 / (1 + t) if t < big_t else 0.0
    cnt: dict[int, dict[int, int]] = {s: {} for s in sups}
    for x, y, e in counts:
        cnt[x][y] = e
    g = _SwegGroup(theta, (seed * 999_983 + t * 613 + gid) & 0x7FFFFFFF, sups, dict(sizes), cnt)
    g.run()
    return g.merges


def sweg(
    edges: pd.DataFrame,
    n_sub: int,
    *,
    T: int = 20,
    seed: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
) -> SummaryResult:
    """Run SWEG and return the optimal flat encoding of its partition, a
    height-1 summary (:func:`repro.model.flat.encode_flat`).

    ``T``: number of rounds; ``T=0`` is legal and flat-encodes the identity
    partition, a negative ``T`` raises ValueError.
    ``engine``: "local" (groups in-process) or "spark" (one mapInPandas
    job per round on ``spark``, as in :func:`repro.core.slugger.slugger`);
    anything else raises ValueError, as does a malformed
    edge list (see :func:`repro.graphs.ops.check_edges`)."""
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    candidates.check_engine(engine, spark)
    check_edges(edges, n_sub)
    t0 = time.perf_counter()
    group = np.arange(n_sub, dtype=np.int64)
    for t in range(1, T + 1):
        cand = candidates.assign_groups(edges, group, seed, t)
        gid_of = dict(zip(cand["root"].tolist(), cand["gid"].tolist()))
        # per-pair subedge counts at the current supernode level
        tab = PairTable(edges, group)
        size = dict(zip(tab.ids.tolist(), tab.size.tolist()))
        bundles: dict[int, tuple] = {}
        for s, gid in gid_of.items():
            bundle = bundles.get(gid)
            if bundle is None:
                bundle = bundles[gid] = ([], {}, [])
            bundle[0].append(s)
            bundle[1][s] = size[s]
        for a, b, e in zip(tab.ids[tab.px].tolist(), tab.ids[tab.py].tolist(), tab.e.tolist()):
            for mem, other in ((a, b), (b, a)) if a != b else ((a, a),):
                _, sizes, counts = bundles[gid_of[mem]]
                counts.append((mem, other, e))
                sizes.setdefault(other, size[other])
        results = candidates.run_groups(_run_group, bundles, (t, T, seed),
                                        spark if engine == "spark" else None)
        remap = {b: a for merges in results for a, b in merges}
        group = np.array([find(remap, v) for v in tab.ids.tolist()], dtype=np.int64)[tab.g]
    return SummaryResult(encode_flat(edges, group), time.perf_counter() - t0)
