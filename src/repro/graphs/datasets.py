"""Dataset registry — synthetic analogues of the paper's Table II datasets.

Each entry maps an analogue name to a generator config at two scales:
``test`` (unit/integration tests, ~1–3k edges) and ``bench`` (table
harnesses, ~15–60k edges). ``DatasetSpec.paper_analogue`` records which
paper datasets each analogue stands in for, so EXPERIMENTS.md can quote the
paper's numbers next to ours.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pandas as pd

from . import generators as gen


@dataclass(frozen=True)
class DatasetSpec:
    """A named synthetic dataset at a fixed scale."""

    name: str
    make: Callable[[int], pd.DataFrame]  # seed -> edges
    paper_analogue: str


def _registry(scale: str) -> dict[str, DatasetSpec]:
    big = scale == "bench"

    def spec(name, fn, analogue):
        return DatasetSpec(name=name, make=fn, paper_analogue=analogue)

    return {
        "ppi_like": spec(
            "ppi_like",
            # protein-complex analogue: blocks of two sub-units interacting
            # with other blocks "except one sub-unit pair" — the pattern
            # where the hierarchical model is strictly more expressive
            # (paper: PR, rel. size 0.094, SLUGGER's largest win)
            lambda seed: gen.complexes(
                n_blocks=24 if big else 8,
                sub_size=6 if big else 4,
                p_cross=0.5 if big else 0.6,
                seed=seed,
            ),
            "PR (Protein)",
        ),
        "web_hier": spec(
            "web_hier",
            lambda seed: gen.nested_partition(
                1500 if big else 160,
                levels=3,
                branching=4,
                # dense leaf blocks under progressively sparser levels: the
                # hyperlink regime (paper rel. sizes 0.10-0.22)
                p_levels=[0.0005, 0.004, 0.03, 0.98] if big else [0.004, 0.02, 0.08, 0.98],
                seed=seed,
            ),
            "CN/EU/IC/U2/U5 (hyperlink)",
        ),
        "collab_cliques": spec(
            "collab_cliques",
            lambda seed: gen.caveman_cliques(
                1800 if big else 120, clique_size=10, p_rewire=0.10, seed=seed
            ),
            "DB/HO/AM (collaboration)",
        ),
        "internet_like": spec(
            "internet_like",
            lambda seed: gen.hub_spokes(
                3000 if big else 150, n_hubs=40 if big else 8, extra_deg=0.6, seed=seed
            ),
            "CA/SK (internet)",
        ),
        "social_cl": spec(
            "social_cl",
            lambda seed: gen.chung_lu(
                2500 if big else 150, 10.0 if big else 6.0, exponent=2.3, seed=seed
            ),
            "FA/EM/YO/ES/LJ (social)",
        ),
        "er_noise": spec(
            "er_noise",
            lambda seed: gen.er(1200 if big else 100, 8.0 if big else 5.0, seed=seed),
            "(incompressible control)",
        ),
    }


TEST = _registry("test")
BENCH = _registry("bench")

# Order used by the table harnesses (mirrors the paper's small→large habit).
DATASET_ORDER = [
    "ppi_like",
    "web_hier",
    "collab_cliques",
    "internet_like",
    "social_cl",
    "er_noise",
]


def load(name: str, *, scale: str = "test", seed: int = 0) -> pd.DataFrame:
    """Generate the named dataset at the given scale with the given seed."""
    reg = BENCH if scale == "bench" else TEST
    return reg[name].make(seed)
