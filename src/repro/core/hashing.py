"""Min-hash shingles for candidate generation (Sect. III-B2, as in SWeG).

The shingle of a root A at iteration t is
``f_t(A) = min_{u ∈ A} min_{v ∈ N(u) ∪ {u}} h_t(v)``
over a per-iteration universal hash ``h_t(v) = (a·v + b) mod p`` with
p = 2^31 − 1. With 1 <= a < p and p prime, ``h_t`` is injective on node
ids below p, which holds for every input here (SLUGGER requires
n_sub < 2^24). So a shingle value is attained at exactly one node v, and
every root with that shingle has a subnode u with v ∈ N(u) ∪ {u}: any two
such roots are within distance 2 in G, the only pairs whose merger can
reduce the encoding cost (Lemma 1). A root merged from two of them keeps
the shingle, as it contains both subnodes.

Shingles are computed with vectorized numpy in the driver loop.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

P31 = (1 << 31) - 1  # Mersenne prime 2^31 - 1


def hash_params(seed: int, t: int) -> tuple[int, int]:
    """Per-(run, iteration) coefficients of the linear hash."""
    g = np.random.default_rng((seed * 1_000_003 + t) & 0x7FFFFFFF)
    return int(g.integers(1, P31)), int(g.integers(0, P31))


def node_hash_np(n: int, a: int, b: int) -> np.ndarray:
    v = np.arange(n, dtype=np.int64)
    return (a * v + b) % P31


def shingles_np(
    edges: pd.DataFrame, leaf_root: np.ndarray, seed: int, t: int
) -> pd.DataFrame:
    """(root, shingle) for every current root — numpy fast path."""
    n = len(leaf_root)
    a, b = hash_params(seed, t)
    h = node_hash_np(n, a, b)
    m = h.copy()
    src = edges["src"].to_numpy(dtype=np.int64)
    dst = edges["dst"].to_numpy(dtype=np.int64)
    np.minimum.at(m, src, h[dst])
    np.minimum.at(m, dst, h[src])
    df = pd.DataFrame({"root": leaf_root, "m": m})
    out = df.groupby("root", as_index=False)["m"].min()
    return out.rename(columns={"m": "shingle"})
