"""Cost and structure metrics of hierarchical summaries (Eqs. 1 & 10,
plus the hierarchy statistics used by Tables IV and V). Depths are read
top-down from the summary's :class:`repro.model.summary.Forest`, so a
tree of any depth is fine."""
from __future__ import annotations

from dataclasses import dataclass

from .summary import Forest, HierSummary


@dataclass(frozen=True)
class HierMetrics:
    """All per-summary numbers the paper's tables report."""

    n_p_plus: int
    n_p_minus: int
    n_h: int
    n_edges_in: int
    relative_size: float  # Eq. (10)
    max_height: int  # per-run max over hierarchy trees (Table IV)
    avg_leaf_depth: float  # mean depth of singleton leaves (Tables IV, V)
    frac_p: float  # Fig. 6 composition
    frac_n: float
    frac_h: float


def cost(summary: HierSummary) -> int:
    """Encoding cost Eq. (1): |P+| + |P−| + |H|."""
    return int(len(summary.pedges) + len(summary.hedges))


def depths(summary: HierSummary) -> dict[int, int]:
    """Depth of every supernode (roots at 0)."""
    f = Forest.from_summary(summary)
    dep: dict[int, int] = {}
    for r in f.roots():
        for v in f.tree(r):  # each parent before its children
            dep[v] = dep[f.parent[v]] + 1 if v in f.parent else 0
    return dep


def metrics(summary: HierSummary, n_edges_in: int) -> HierMetrics:
    """Compute the full metric bundle for one summary."""
    p_plus = int((summary.pedges["sign"] == 1).sum())
    p_minus = int((summary.pedges["sign"] == -1).sum())
    n_h = len(summary.hedges)
    total = p_plus + p_minus + n_h
    dep = depths(summary)
    leaf_depths = [dep[u] for u in range(summary.n_sub)]
    max_height = max(dep.values()) if dep else 0
    return HierMetrics(
        n_p_plus=p_plus,
        n_p_minus=p_minus,
        n_h=n_h,
        n_edges_in=n_edges_in,
        relative_size=total / max(1, n_edges_in),
        max_height=max_height,
        avg_leaf_depth=sum(leaf_depths) / max(1, len(leaf_depths)),
        frac_p=p_plus / max(1, total),
        frac_n=p_minus / max(1, total),
        frac_h=n_h / max(1, total),
    )
