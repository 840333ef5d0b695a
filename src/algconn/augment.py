"""Greedy spectral edge augmentation and the family-comparison experiment.

The augmentation heuristic grows a graph one edge at a time, always joining
the two non-adjacent vertices whose second-eigenvector coordinates differ
the most — the pair the current spectrum considers worst connected.  The
comparison experiment races the resulting connectivity against complete
bipartite graphs and random regular graphs at equal edge budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import random_regular
from .graphs import MAX_VERTICES, Graph, from_edges
from .spectral import algebraic_connectivity


@dataclass(frozen=True)
class AugmentationTrace:
    """Edges in addition order, each with the connectivity it produced."""

    steps: tuple[tuple[tuple[int, int], float], ...]
    final: Graph


@dataclass(frozen=True)
class FamilyRow:
    """One edge budget m compared across construction strategies."""

    m: int
    augmented: float
    bipartite_b: int
    bipartite: float
    regular_d: Optional[int]
    regular_mean: Optional[float]
    regular_min: Optional[float]
    regular_max: Optional[float]
    regular_reference: Optional[float]
    note: str


@dataclass(frozen=True)
class FamilyComparison:
    n: int
    rows: tuple[FamilyRow, ...]


def edge_augmentation(n: int, m: int) -> AugmentationTrace:
    """Grow an n-vertex graph to m edges by greedy spectral augmentation.

    Each step takes the second eigenvector v of the current Laplacian
    (ascending eigenvalues) and adds the non-adjacent pair maximizing
    |v_i - v_j|, a value that is the same for v and -v, ties to the
    lexicographically smallest pair.  While the graph is disconnected that
    eigenvector is a kernel direction separating components, so the
    heuristic first stitches components together; once connected, the
    connectivity never decreases along the trace.  The steps are
    deterministic, so the trace to m edges is a prefix of the trace to any
    larger budget.
    """
    if not 2 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 2..{MAX_VERTICES}, got {n}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError("edge budget exceeds the complete graph")
    L = np.zeros((n, n))
    # the diagonal and the lower triangle never hold a candidate pair, and
    # an off-diagonal L < 0 marks an edge
    lower = np.tri(n, dtype=bool)
    steps = []
    prev_lam2 = None
    # one eigh per step: the one taken after adding an edge gives that
    # step's lambda2 and the next step's vector
    vals, vecs = np.linalg.eigh(L)
    for _ in range(m):
        v = vecs[:, 1]
        diff = np.abs(v[:, None] - v[None, :])
        diff[lower | (L < 0)] = -1.0
        # m <= n(n-1)/2 and each step adds a new edge, so a non-edge is left
        flat = int(np.argmax(diff))  # first maximum in row-major order:
        i, j = divmod(flat, n)  # lexicographically smallest tie
        L[i, j] = L[j, i] = -1.0
        L[i, i] += 1.0
        L[j, j] += 1.0
        vals, vecs = np.linalg.eigh(L)
        lam2 = float(vals[1])
        if prev_lam2 is not None and prev_lam2 > 1e-12 and lam2 < prev_lam2 - 1e-9:
            raise ArithmeticError(
                f"connectivity decreased from {prev_lam2} to {lam2}"
            )  # pragma: no cover
        prev_lam2 = lam2
        steps.append(((i, j), lam2))
    return AugmentationTrace(
        steps=tuple(steps), final=from_edges(n, [e for e, _ in steps])
    )


def largest_bipartite_part(n: int, m: int) -> int:
    """Largest b <= n/2 with b(n-b) <= m."""
    best = 0
    for b in range(1, n // 2 + 1):
        if b * (n - b) <= m:
            best = b
    if best == 0:
        raise ValueError(f"no complete bipartite graph on {n} vertices fits {m} edges")
    return best


REGULAR_SEEDS = tuple(range(10))
# the pairing model restarts until no loop or repeated edge is left, about
# e^((k^2 - 1) / 4) times a graph (Bender & Canfield, 1978), where k is the
# smaller of d and n - 1 - d, the degree random_regular draws: the ten seeds
# take 20 shuffles in all at n = 9, d = 6, but about 40,000 a graph at
# n = 13, d = 6.  From n = 15 on, d = 7 draws k = 7, about e^12 restarts a
# graph, so the column stops at d = 6 for every n
REGULAR_MAX_D = 6


def compare_families(n: int, m_values: Sequence[int]) -> FamilyComparison:
    """Connectivity of augmentation vs K_{b,n-b} vs random regular, per m.

    One greedy trace to the largest budget gives every row's augmentation
    value.  b is the largest integer with b(n-b) <= m; the regular column
    uses d = 2m/n when that is an integer of at most 6 (skipped and flagged
    otherwise) with sample statistics over ten fixed seeds.
    """
    for m in m_values:
        if m < n - 1:
            raise ValueError(f"edge budget {m} cannot connect {n} vertices")
        if m > n * (n - 1) // 2:
            raise ValueError(f"edge budget {m} exceeds the complete graph")
    trace = edge_augmentation(n, max(m_values, default=0))
    rows = []
    for m in m_values:
        b = largest_bipartite_part(n, m)
        note = ""
        reg_d = reg_mean = reg_min = reg_max = reg_ref = None
        if (2 * m) % n:
            note = "2m/n is not an integer; regular column skipped"
        elif 2 * m // n > REGULAR_MAX_D:
            note = f"2m/n >= {REGULAR_MAX_D + 1}; regular column skipped"
        else:
            reg_d = 2 * m // n
            vals = [
                algebraic_connectivity(random_regular(n, reg_d, seed))
                for seed in REGULAR_SEEDS
            ]
            reg_mean = float(np.mean(vals))
            reg_min = float(min(vals))
            reg_max = float(max(vals))
            if reg_d >= 2:
                reg_ref = reg_d - 2.0 * math.sqrt(reg_d - 1.0)
        rows.append(
            FamilyRow(
                m=m,
                augmented=trace.steps[m - 1][1],
                bipartite_b=b,
                bipartite=float(min(b, n - b)),
                regular_d=reg_d,
                regular_mean=reg_mean,
                regular_min=reg_min,
                regular_max=reg_max,
                regular_reference=reg_ref,
                note=note,
            )
        )
    return FamilyComparison(n=n, rows=tuple(rows))
