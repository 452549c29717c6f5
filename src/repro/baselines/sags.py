"""SAGS baseline (Khan et al. / Beg et al., PAKDD'18) — LSH-based.

SAGS skips cost evaluation entirely: it buckets nodes by banded min-hash
signatures of their neighborhoods (H hash functions, B bands) and merges
bucket-mates blindly with probability P. This makes it the fastest and
least concise method in the paper's evaluation — the behaviour this
reproduction preserves. Each signature row is
:func:`repro.core.hashing.min_hash`, SLUGGER's shingle kernel, with
coefficients drawn from SAGS's own generator; bucket-mates are joined
through :func:`repro.model.flat.find`. The partition's optimal flat
encoding is returned as a height-1 summary
(:func:`repro.model.flat.encode_flat`).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from ..core.hashing import P31, min_hash
from ..graphs.ops import check_edges
from ..model.flat import encode_flat, find
from ..model.summary import SummaryResult

# the paper's settings
H = 30  # min-hash functions
B = 10  # bands of H // B rows each
P = 0.3  # probability of merging each bucket-mate


def sags(edges: pd.DataFrame, n_sub: int, *, seed: int = 0) -> SummaryResult:
    check_edges(edges, n_sub)
    t0 = time.perf_counter()
    g = np.random.default_rng(seed)
    src = edges["src"].to_numpy(dtype=np.int64)
    dst = edges["dst"].to_numpy(dtype=np.int64)
    # H min-hash signatures of N(v) ∪ {v}
    sig = np.empty((H, n_sub), dtype=np.int64)
    for i in range(H):
        a = int(g.integers(1, P31))
        c = int(g.integers(0, P31))
        sig[i] = min_hash(src, dst, n_sub, a, c)
    r = H // B  # rows per band
    parent: dict[int, int] = {}
    for band in range(B):
        rows = sig[band * r : (band + 1) * r]
        # bucket nodes on the band slice
        df = pd.DataFrame({"key": [tuple(rows[:, v]) for v in range(n_sub)]})
        for _, idx in df.groupby("key").groups.items():
            members = list({find(parent, int(v)) for v in idx})
            if len(members) < 2:
                continue
            g.shuffle(members)
            # blind chain-merging with probability P per bucket-mate
            head = members[0]
            for v in members[1:]:
                if g.random() < P:
                    parent[v] = head
    group = np.array([find(parent, u) for u in range(n_sub)], dtype=np.int64)
    return SummaryResult(encode_flat(edges, group), time.perf_counter() - t0)
