"""Graph utilities over canonical pandas edge DataFrames.

Edges are always simple undirected, stored once with ``src < dst``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def canonicalize_pd(edges: pd.DataFrame) -> pd.DataFrame:
    """Canonicalize a pandas edge list (order endpoints, dedup, drop loops)."""
    lo = np.minimum(edges["src"].to_numpy(), edges["dst"].to_numpy())
    hi = np.maximum(edges["src"].to_numpy(), edges["dst"].to_numpy())
    df = pd.DataFrame({"src": lo, "dst": hi})
    df = df[df["src"] != df["dst"]].drop_duplicates().reset_index(drop=True)
    return df.astype({"src": np.int64, "dst": np.int64})


def check_edges(edges: pd.DataFrame, n_sub: int) -> None:
    """Raise ValueError unless ``edges`` is a simple undirected edge list
    over ids 0..n_sub-1, each edge once in either orientation, with integer
    ``src``/``dst`` columns (floats are rejected, even integral ones)."""
    for c in ("src", "dst"):
        if not pd.api.types.is_integer_dtype(edges[c]):
            raise ValueError(
                f"edge column {c!r} must have an integer dtype, got {edges[c].dtype}")
    src, dst = (edges[c].to_numpy(dtype=np.int64) for c in ("src", "dst"))
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    if len(lo) and (lo.min() < 0 or hi.max() >= n_sub):
        raise ValueError(f"edge endpoints must lie in [0, n_sub={n_sub})")
    if (lo == hi).any():
        raise ValueError(f"self-loop on node {int(lo[lo == hi][0])}")
    # lo * n_sub + hi is unique per pair; it fits int64 while n_sub < 2**31
    if len(np.unique(lo * n_sub + hi)) != len(lo):
        raise ValueError("duplicate edge (in either orientation)")


def induced_subgraph(edges: pd.DataFrame, nodes: np.ndarray) -> pd.DataFrame:
    """Subgraph induced by ``nodes``, relabeled to 0..len(nodes)-1."""
    nodes = np.asarray(sorted(set(nodes.tolist())))
    remap = {v: i for i, v in enumerate(nodes)}
    m = edges[edges["src"].isin(remap) & edges["dst"].isin(remap)].copy()
    m["src"] = m["src"].map(remap)
    m["dst"] = m["dst"].map(remap)
    return canonicalize_pd(m)


def sample_nodes_subgraph(edges: pd.DataFrame, frac: float, *, seed: int = 0) -> pd.DataFrame:
    """Node-sampled subgraph (the paper's Fig 1b scalability protocol:
    'sampling different numbers of nodes from the UK-05 dataset')."""
    g = np.random.default_rng(seed)
    n = int(max(edges["src"].max(), edges["dst"].max())) + 1
    keep = g.random(n) < frac
    nodes = np.flatnonzero(keep)
    return induced_subgraph(edges, nodes)


def adjacency_dict(edges: pd.DataFrame) -> dict[int, set[int]]:
    """Adjacency sets for driver-side algorithms (small graphs only)."""
    adj: dict[int, set[int]] = {}
    for s, d in zip(edges["src"].to_numpy(), edges["dst"].to_numpy()):
        adj.setdefault(int(s), set()).add(int(d))
        adj.setdefault(int(d), set()).add(int(s))
    return adj

