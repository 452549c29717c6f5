"""MOSSO baseline (Ko et al., KDD'20) — simplified online variant.

The full MoSSo maintains a lossless flat summary under a fully dynamic
edge stream using corrective retrieval and careful "moves". This
reproduction implements the evaluated behaviour at insertion-only
streams (the paper feeds each static graph as a stream): for every
arriving edge (u, v), each endpoint x *escapes* to a singleton with
probability e, then samples up to c candidate supernodes from the
neighbors of the other endpoint and greedily moves into the best one if
the exact flat-model cost drops. Substitution documented in DESIGN.md
§3.3: preserves "online method, compression between RANDOMIZED and the
offline methods, slow on large inputs". Slow means over a fixed work
budget, not a wall clock: a run that makes more than ``MAX_UPDATES``
neighbour updates returns a ``None`` summary (OOT, "over budget"), so the
verdict depends only on the input and the seed. The final partition's
optimal flat encoding is returned as a height-1 summary
(:func:`repro.model.flat.encode_flat`). The state keeps each supernode's
size and pair counts, and prices a supernode with
:func:`repro.model.flat.supernode_cost`.
"""
from __future__ import annotations

import random
import time
from collections import defaultdict

import numpy as np
import pandas as pd

from ..graphs.ops import check_edges
from ..model.flat import encode_flat, pair_cost as flat_pair_cost, supernode_cost
from ..model.summary import SummaryResult

# the paper's settings
E = 0.3  # escape probability per endpoint and edge
C = 120  # candidate supernodes sampled per move
# pair-count updates per run: each move, reverts included, makes two per
# neighbour of the moved subnode; beyond them the run is OOT (DESIGN.md §3.3)
MAX_UPDATES = 60_000_000


class _State:
    def __init__(self, n_sub: int):
        self.sup_of = list(range(n_sub))  # subnode -> supernode id
        self.sizes: dict[int, int] = dict.fromkeys(range(n_sub), 1)  # supernode -> subnodes
        self.adj: dict[int, set[int]] = defaultdict(set)  # subnode graph so far
        # supernode-pair subedge counts, none held at 0
        self.cnt: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.updates = 0  # _bump calls made by move

    def _bump(self, a: int, b: int, d: int) -> None:
        # symmetric store: cnt[a][b] == cnt[b][a]
        self.cnt[a][b] += d
        if self.cnt[a][b] == 0:
            del self.cnt[a][b]
        if a != b:
            self.cnt[b][a] += d
            if self.cnt[b][a] == 0:
                del self.cnt[b][a]

    def add_edge(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)
        self._bump(self.sup_of[u], self.sup_of[v], 1)

    def pair_cost(self, a: int, b: int) -> int:
        e = self.cnt[a].get(b, 0)
        # an escape id has no size until a subnode moves in
        return flat_pair_cost(e, self.sizes[a], self.sizes[b], a == b) if e else 0

    def sup_cost(self, a: int) -> int:
        """Cost of all flat-encoding pairs involving supernode a."""
        if a not in self.sizes:
            return 0
        return supernode_cost(self.cnt.get(a, {}), self.sizes, a, self.sizes[a])

    def move(self, u: int, dest: int) -> None:
        src_sup = self.sup_of[u]
        if src_sup == dest:
            return
        self.updates += 2 * len(self.adj[u])
        for w in self.adj[u]:
            self._bump(src_sup, self.sup_of[w], -1)
        self.sizes[src_sup] -= 1
        if not self.sizes[src_sup]:
            del self.sizes[src_sup]
        self.sizes[dest] = self.sizes.get(dest, 0) + 1
        self.sup_of[u] = dest
        for w in self.adj[u]:
            self._bump(dest, self.sup_of[w], 1)

    def try_move(self, u: int, dest: int) -> bool:
        """Move u into supernode ``dest`` iff the total cost drops."""
        src_sup = self.sup_of[u]
        if src_sup == dest:
            return False
        before = self.sup_cost(src_sup) + self.sup_cost(dest) - self.pair_cost(src_sup, dest)
        self.move(u, dest)
        after = self.sup_cost(src_sup) + self.sup_cost(dest) - self.pair_cost(src_sup, dest) \
            if src_sup in self.sizes else self.sup_cost(dest)
        if after >= before:
            self.move(u, src_sup)  # revert
            return False
        return True


def mosso(
    edges: pd.DataFrame,
    n_sub: int,
    *,
    seed: int = 0,
) -> SummaryResult:
    """MOSSO's summary of ``edges``, or ``None`` if the stream makes more
    than ``MAX_UPDATES`` neighbour updates (OOT); ``elapsed_s`` either way."""
    check_edges(edges, n_sub)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    st = _State(n_sub)
    order = list(zip(edges["src"].astype(int), edges["dst"].astype(int)))
    rng.shuffle(order)
    fresh = n_sub  # ids for escape singletons
    for u, v in order:
        st.add_edge(u, v)
        for x, other in ((u, v), (v, u)):
            if rng.random() < E:
                # escape to a fresh singleton if it pays off
                st.try_move(x, fresh)
                if st.sup_of[x] == fresh:
                    fresh += 1
                continue
            nbrs = list(st.adj[other])
            if not nbrs:
                continue
            trials = min(C, len(nbrs))
            moved = False
            for w in rng.sample(nbrs, trials):
                if moved:
                    break
                moved = st.try_move(x, st.sup_of[w])
        if st.updates > MAX_UPDATES:
            return SummaryResult(None, time.perf_counter() - t0)
    group = np.array(st.sup_of, dtype=np.int64)
    return SummaryResult(encode_flat(edges, group), time.perf_counter() - t0)
