"""Synthetic graph generators — the dataset substrate for the reproduction.

The paper evaluates on 16 real-world graphs (Table II). Those are not
available offline, so each generator here produces a seeded synthetic
analogue of one *regime* of those datasets (see DESIGN.md §3.3/§4):
hierarchical web/PPI-like graphs, clique-heavy collaboration graphs,
hub-dominated internet graphs, power-law social graphs, and ER noise.

All generators return a **pandas** DataFrame with int64 columns
``src < dst`` (canonical simple undirected edges, no self-loops, no
duplicates) plus the node count. Everything is deterministic in
``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _canon(src: np.ndarray, dst: np.ndarray, n: int) -> pd.DataFrame:
    """Canonicalize an edge multiset: drop self-loops/dups, order src<dst."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    key = lo.astype(np.int64) * n + hi.astype(np.int64)
    key = np.unique(key)
    return pd.DataFrame(
        {"src": (key // n).astype(np.int64), "dst": (key % n).astype(np.int64)}
    )


def er(n: int, avg_deg: float, *, seed: int = 0) -> pd.DataFrame:
    """Erdős–Rényi G(n, m)-style noise graph — the incompressible control."""
    g = np.random.default_rng(seed)
    m = int(n * avg_deg / 2)
    src = g.integers(0, n, 2 * m)
    dst = g.integers(0, n, 2 * m)
    df = _canon(src, dst, n)
    return df.head(m).reset_index(drop=True)


def chung_lu(n: int, avg_deg: float, *, exponent: float = 2.5, seed: int = 0) -> pd.DataFrame:
    """Chung–Lu power-law graph — analogue of social graphs (YO/LJ/ES/EM/FA).

    Degree weights ~ Zipf with the given exponent; edges sampled
    proportionally to weight products, then canonicalized.
    """
    g = np.random.default_rng(seed)
    w = (np.arange(1, n + 1, dtype=np.float64)) ** (-1.0 / (exponent - 1.0))
    p = w / w.sum()
    m = int(n * avg_deg / 2)
    src = g.choice(n, size=int(2.2 * m), p=p)
    dst = g.choice(n, size=int(2.2 * m), p=p)
    df = _canon(src, dst, n)
    return df.head(m).reset_index(drop=True)


def nested_partition(
    n: int,
    *,
    levels: int = 3,
    branching: int = 4,
    p_top: float = 0.02,
    ratio: float = 6.0,
    p_levels: list[float] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Nested planted partition — the hierarchical analogue (PR/CN/EU/IC/U*).

    Nodes sit at the leaves of a `branching`-ary tree of depth `levels`.
    A node pair whose lowest common ancestor is at depth d is connected
    with probability ``p_levels[d]`` (default ``p_top * ratio**d`` capped
    at 0.95): subgroups are denser than groups, which are denser than the
    whole graph — exactly the hierarchical similarity structure SLUGGER
    exploits. Passing ``p_levels`` (len = levels+1) pins the per-depth
    densities directly, e.g. near-1.0 deep blocks reproduce the paper's
    strongly-compressible PR/web regime.
    """
    if p_levels is not None:
        assert len(p_levels) == levels + 1
    g = np.random.default_rng(seed)
    # block id per node at each depth: depth d has branching**d blocks
    rows = []
    # Sample per-depth, per-block edges: at depth d each block has
    # n / branching**d expected nodes; we draw Bernoulli via sparse sampling.
    labels = [np.zeros(n, dtype=np.int64)]
    for d in range(1, levels + 1):
        labels.append(g.integers(0, branching, n) + labels[-1] * branching)
    for d in range(levels + 1):
        # marginal probability at exactly depth d (pairs whose LCA depth >= d
        # get sampled at every depth <= LCA; take the union — monotone
        # probabilities make the union's marginal close to the deepest level,
        # which preserves the intended density gradient)
        p = p_levels[d] if p_levels is not None else min(0.95, p_top * ratio**d)
        lab = labels[d]
        order = np.argsort(lab, kind="stable")
        sorted_lab = lab[order]
        # iterate blocks at this depth
        starts = np.flatnonzero(np.r_[True, sorted_lab[1:] != sorted_lab[:-1]])
        ends = np.r_[starts[1:], len(sorted_lab)]
        for s, e in zip(starts, ends):
            members = order[s:e]
            k = len(members)
            if k < 2:
                continue
            if p >= 0.25:
                # dense blocks: enumerate pairs and Bernoulli-mask (sampling
                # with replacement saturates at ~75% density and would turn
                # "cliques" into expensive 3/4-dense blobs)
                iu = np.triu_indices(k, 1)
                keep = g.random(len(iu[0])) < p
                rows.append(
                    np.stack([members[iu[0][keep]], members[iu[1][keep]]], axis=1)
                )
                continue
            n_pairs = k * (k - 1) // 2
            cnt = g.binomial(n_pairs, p)
            if cnt == 0:
                continue
            i = g.integers(0, k, int(cnt * 1.4) + 4)
            j = g.integers(0, k, int(cnt * 1.4) + 4)
            rows.append(np.stack([members[i], members[j]], axis=1))
    if not rows:
        return pd.DataFrame({"src": pd.Series(dtype=np.int64), "dst": pd.Series(dtype=np.int64)})
    all_e = np.concatenate(rows, axis=0)
    return _canon(all_e[:, 0], all_e[:, 1], n)


def complexes(
    n_blocks: int = 24,
    *,
    sub_size: int = 6,
    p_cross: float = 0.5,
    p_in: float = 1.0,
    seed: int = 0,
) -> pd.DataFrame:
    """Protein-complex-like graph — the PR analogue with a true
    hierarchical-model advantage.

    ``n_blocks`` blocks ("complexes"), each two sub-units of ``sub_size``
    nodes, internally complete (density ``p_in``). A block pair interacts
    with probability ``p_cross``; an interacting pair is completely
    connected **except** one randomly chosen (sub-unit, sub-unit) pair,
    which stays empty. The hierarchical model encodes an interaction as
    one p-edge plus one n-edge between sub-units, while the flat model
    needs 3 superedges (or subnode-level corrections) — the Theorem-1-style
    expressiveness gap, at a pattern SLUGGER's 3-level Case-2 window can
    actually discover.
    """
    g = np.random.default_rng(seed)
    block = 2 * sub_size
    n = n_blocks * block
    srcs: list[np.ndarray] = []

    def add_pairs(members_a, members_b=None, p=1.0, exclude=None):
        if members_b is None:
            iu = np.triu_indices(len(members_a), 1)
            a, b = members_a[iu[0]], members_a[iu[1]]
        else:
            a = np.repeat(members_a, len(members_b))
            b = np.tile(members_b, len(members_a))
        keep = np.ones(len(a), dtype=bool) if p >= 1.0 else g.random(len(a)) < p
        if exclude is not None:
            ex_a, ex_b = exclude
            keep &= ~(np.isin(a, ex_a) & np.isin(b, ex_b))
        srcs.append(np.stack([a[keep], b[keep]], axis=1))

    subs = [np.arange(i * sub_size, (i + 1) * sub_size, dtype=np.int64)
            for i in range(2 * n_blocks)]
    for i in range(n_blocks):
        add_pairs(np.arange(i * block, (i + 1) * block, dtype=np.int64), p=p_in)
    for i in range(n_blocks):
        for j in range(i + 1, n_blocks):
            if g.random() >= p_cross:
                continue
            si = subs[2 * i + g.integers(0, 2)]
            sj = subs[2 * j + g.integers(0, 2)]
            add_pairs(
                np.arange(i * block, (i + 1) * block, dtype=np.int64),
                np.arange(j * block, (j + 1) * block, dtype=np.int64),
                p=p_in,
                exclude=(si, sj),
            )
    all_e = np.concatenate(srcs, axis=0)
    return _canon(all_e[:, 0], all_e[:, 1], n)


def caveman_cliques(
    n: int, *, clique_size: int = 12, p_rewire: float = 0.08, seed: int = 0
) -> pd.DataFrame:
    """Relaxed-caveman graph — analogue of collaboration graphs (DB/HO/AM).

    Disjoint cliques of ``clique_size`` with a fraction ``p_rewire`` of
    endpoints rewired uniformly at random.
    """
    g = np.random.default_rng(seed)
    perm = g.permutation(n)
    srcs, dsts = [], []
    for s in range(0, n - 1, clique_size):
        members = perm[s : s + clique_size]
        k = len(members)
        if k < 2:
            continue
        iu = np.triu_indices(k, 1)
        srcs.append(members[iu[0]])
        dsts.append(members[iu[1]])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    rew = g.random(len(src)) < p_rewire
    dst = dst.copy()
    dst[rew] = g.integers(0, n, rew.sum())
    return _canon(src, dst, n)


def hub_spokes(
    n: int, *, n_hubs: int = 20, extra_deg: float = 1.0, seed: int = 0
) -> pd.DataFrame:
    """Hub-and-spoke graph — analogue of internet topologies (CA/SK).

    Every non-hub node attaches to 1–3 hubs chosen by a Zipf law; a thin
    ER layer of average degree ``extra_deg`` adds peer links. Star
    structures compress well under both models; hierarchy helps via
    shared-hub consolidation.
    """
    g = np.random.default_rng(seed)
    hubs = np.arange(n_hubs)
    w = 1.0 / np.arange(1, n_hubs + 1) ** 1.2
    w /= w.sum()
    spokes = np.arange(n_hubs, n)
    cnt = g.integers(1, 4, len(spokes))
    src = np.repeat(spokes, cnt)
    dst = hubs[g.choice(n_hubs, size=cnt.sum(), p=w)]
    peer = er(n, extra_deg, seed=seed + 1)
    df = _canon(
        np.concatenate([src, peer["src"].to_numpy()]),
        np.concatenate([dst, peer["dst"].to_numpy()]),
        n,
    )
    return df


def complete_multipartite(n_parts: int, part_size: int) -> pd.DataFrame:
    """Complete multipartite graph — the Theorem-1-style expressiveness gap.

    The hierarchical model encodes it with O(n_parts) edges (one positive
    self-loop at the root plus one negative self-loop per part), while the
    flat model needs Ω(n_parts²) superedges. Deterministic (no seed).
    """
    n = n_parts * part_size
    part = np.arange(n) // part_size
    iu = np.triu_indices(n, 1)
    keep = part[iu[0]] != part[iu[1]]
    return pd.DataFrame(
        {"src": iu[0][keep].astype(np.int64), "dst": iu[1][keep].astype(np.int64)}
    )


def star(n: int) -> pd.DataFrame:
    """Single star K_{1,n-1} — minimal compressible structure (tests)."""
    return pd.DataFrame(
        {"src": np.zeros(n - 1, dtype=np.int64), "dst": np.arange(1, n, dtype=np.int64)}
    )


def clique(n: int) -> pd.DataFrame:
    """Complete graph K_n (tests)."""
    iu = np.triu_indices(n, 1)
    return pd.DataFrame({"src": iu[0].astype(np.int64), "dst": iu[1].astype(np.int64)})


def path(n: int) -> pd.DataFrame:
    """Path graph P_n (tests; nothing should merge profitably)."""
    return pd.DataFrame(
        {"src": np.arange(n - 1, dtype=np.int64), "dst": np.arange(1, n, dtype=np.int64)}
    )


def n_nodes(edges: pd.DataFrame) -> int:
    """Number of nodes = max endpoint + 1 (generators use contiguous ids)."""
    if len(edges) == 0:
        return 0
    return int(max(edges["src"].max(), edges["dst"].max())) + 1
