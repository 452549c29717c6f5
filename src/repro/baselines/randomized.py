"""RANDOMIZED baseline (Navlakha et al., SIGMOD'08).

Repeats: pick a random unfinished supernode u, evaluate the cost
reduction of merging u with every supernode within 2 hops, merge the
best if it reduces cost, otherwise finalize u. Exact flat-model costs
throughout. Inherently sequential (driver-side); the paper's experiments
show it timing out on larger graphs, which a fixed work budget here
reproduces: a run that scores more than ``MAX_EVALS`` candidates in total
returns a ``None`` summary (OOT, "over budget", shown as "—" in the
tables). The budget counts work, not seconds, so the verdict depends only
on the input and the seed (DESIGN.md §3.3). The
counts, costs, merges and survivor links are the shared helpers of
:mod:`repro.model.flat`. The partition's optimal flat encoding is
returned as a height-1 summary (:func:`repro.model.flat.encode_flat`).
"""
from __future__ import annotations

import random
import time
from collections import defaultdict

import numpy as np
import pandas as pd

from ..graphs.ops import check_edges
from ..model.flat import encode_flat, find, merge_into, merged_counts, supernode_cost
from ..model.summary import SummaryResult

MAX_CANDIDATES = 200  # 2-hop candidates scored per pick; more are sampled down
MAX_EVALS = 2_000_000  # candidate cost evaluations per run; beyond them the run is OOT


def randomized(
    edges: pd.DataFrame,
    n_sub: int,
    *,
    seed: int = 0,
) -> SummaryResult:
    """RANDOMIZED's summary of ``edges``, or ``None`` if the run scores more
    than ``MAX_EVALS`` candidates (OOT); ``elapsed_s`` either way."""
    check_edges(edges, n_sub)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    # supernode-level state
    parent: dict[int, int] = {}
    sizes: dict[int, int] = {u: 1 for u in range(n_sub)}
    cnt: dict[int, dict[int, int]] = {u: defaultdict(int) for u in range(n_sub)}
    for s, d in zip(edges["src"].astype(int), edges["dst"].astype(int)):
        cnt[s][d] += 1
        cnt[d][s] += 1
    unfinished = set(range(n_sub))
    evals = 0
    while unfinished:
        if evals > MAX_EVALS:
            return SummaryResult(None, time.perf_counter() - t0)
        u = rng.choice(tuple(unfinished))
        # 2-hop candidate supernodes
        hop1 = [x for x in cnt[u] if x != u]
        cands: set[int] = set(hop1)
        for x in hop1:
            cands.update(y for y in cnt[x] if y != x)
        cands.discard(u)
        if len(cands) > MAX_CANDIDATES:
            cands = set(rng.sample(sorted(cands), MAX_CANDIDATES))
        evals += len(cands)
        cu = supernode_cost(cnt[u], sizes, u, sizes[u])
        best, best_s = None, 0.0
        for v in cands:
            cv = supernode_cost(cnt[v], sizes, v, sizes[v])
            if cu + cv == 0:
                continue
            cm = supernode_cost(merged_counts(cnt, u, v), sizes, u, sizes[u] + sizes[v])
            s = (cu + cv - cm) / (cu + cv)
            if s > best_s:
                best, best_s = v, s
        if best is None:
            unfinished.discard(u)
            continue
        v = best
        merge_into(cnt, u, v, u)
        sizes[u] += sizes.pop(v)
        parent[v] = u
        unfinished.discard(v)
        unfinished.add(u)
    group = np.array([find(parent, u) for u in range(n_sub)], dtype=np.int64)
    return SummaryResult(encode_flat(edges, group), time.perf_counter() - t0)
