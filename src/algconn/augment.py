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
from .graphs import MAX_VERTICES, Graph, from_edges, is_connected
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


# The warm steps of _Fiedler.  Block and depth were measured at n = 200,
# m = 1200: two carried vectors and eight blocks took 2.7k Rayleigh-Ritz
# iterations and 111 inversions of M; four and four took 3.5k and 449, and
# ran 1.4 times as long.  No step took more than 6 iterations there, nor at
# n = 100, 60 and 150 with 6n to 17n edges
_BLOCK = 2  # Ritz vectors carried from one step to the next
_DEPTH = 8  # Krylov blocks X, M^-1 X, ..., M^-7 X
_SLOW = 4  # a step that takes this many iterations rebuilds M^-1
_MAX_ITER = 20  # a step unconverged after this many takes a dense eigh
_RESIDUAL = 10.0 * np.finfo(float).eps  # stopping residual, over ||A|| = n
_MARGIN = 1e-9  # the certificate: no eigenvalue below theta_0 - _MARGIN


class _Fiedler:
    """lambda_2 and a Fiedler vector of a graph that gains edges from empty.

    A = L + 11^T, all ones on the empty graph, has the spectrum of L with
    the constant vector's 0 moved to n, so on a connected graph its lowest
    eigenpair is lambda_2 and a Fiedler vector.  Greedy augmentation joins
    two components with each of its first n - 1 edges, as its component
    mask allows no other pair, so it is connected exactly from its (n-1)th
    edge (see edge_augmentation), and the edge count tells the steps apart.
    One dense branch answers every step up to the connecting one, and any
    step whose certificate fails: ``eigh`` of A - 1, which is L bit for
    bit, reporting 0.0 below n - 1 edges.  Its pair seeds
    M^-1 = (A - mu I)^-1, for a mu below lambda_2, when the next edge
    arrives, so a trace that ends on a dense step builds no inverse.  Each
    later edge adds z z^T to A (z = e_i - e_j), so Sherman-Morrison updates
    M^-1 in O(n^2), and since lambda_2 never falls, M stays positive
    definite.
    """

    def __init__(self, n: int):
        self.A = np.ones((n, n))
        self.eye = np.eye(n)
        self.tol = _RESIDUAL * n
        self.edges = 0
        self.seed = None  # the last dense (vals, vecs), not yet in M^-1
        # the basis keeps at most n - 1 columns, the dimension of the
        # complement of the constant vector (K_2 has no warm step to use k)
        self.k = min(_BLOCK, (n - 1) // 2)
        self.depth = min(_DEPTH, (n - 1) // max(self.k, 1))

    def dense(self) -> tuple[float, np.ndarray]:
        """lambda_2 and a second eigenvector of L from one dense ``eigh``."""
        vals, vecs = np.linalg.eigh(self.A - 1.0)
        self.seed = vals, vecs
        lam2 = float(vals[1]) if self.edges >= len(self.A) - 1 else 0.0
        return lam2, vecs[:, 1]

    def _rebuild(self, theta: np.ndarray) -> None:
        # theta[0] is a certified lambda_2; mu goes below it by half the gap
        # to theta[1], by at least a thousandth of it and twice the margin
        lo = float(theta[0])
        mu = lo - max(0.5 * (float(theta[1]) - lo), 1e-3 * lo, 2 * _MARGIN)
        self.Minv = np.linalg.inv(self.A - mu * self.eye)

    def add_edge(self, i: int, j: int) -> tuple[float, np.ndarray]:
        """Add edge (i, j); return the new lambda_2 and a Fiedler vector."""
        A, k = self.A, self.k
        warm = self.edges >= len(A) - 1
        if warm and self.seed is not None:
            vals, vecs = self.seed
            self.seed = None
            self.X = vecs[:, 1 : 1 + k]
            self._rebuild(vals[1:])
        A[i, j] -= 1.0
        A[j, i] -= 1.0
        A[i, i] += 1.0
        A[j, j] += 1.0
        self.edges += 1
        if not warm:
            return self.dense()
        X, Minv = self.X, self.Minv
        w = Minv[:, i] - Minv[:, j]
        Minv -= np.outer(w, w / (1.0 + w[i] - w[j]))
        AX = A @ X
        theta = np.einsum("ij,ij->j", X, AX)
        for it in range(1, _MAX_ITER + 1):
            # Rayleigh-Ritz over the block Krylov space [X, M^-1 X, ...],
            # spanned as [X, M^-1 R, M^-2 R, ...] with R = AX - X theta, so
            # new directions are not lost in differences of near-equal blocks
            blocks = [X, Minv @ (AX - X * theta[:k])]
            for _ in range(self.depth - 2):
                blocks.append(Minv @ blocks[-1])
            V = np.hstack(blocks)
            V -= V.mean(axis=0)  # the constant vector projected out
            Q = np.linalg.qr(V)[0]
            AQ = A @ Q
            theta, Y = np.linalg.eigh(Q.T @ AQ)
            X = Q @ Y[:, :k]
            AX = AQ @ Y[:, :k]
            residual = np.linalg.norm(AX[:, 0] - theta[0] * X[:, 0])
            if residual <= self.tol:
                break
        lam2 = float(theta[0])
        certified = residual <= self.tol
        if certified:
            try:  # the certificate: A - (lambda_2 - margin) I is positive definite
                np.linalg.cholesky(A - (lam2 - _MARGIN) * self.eye)
            except np.linalg.LinAlgError:
                certified = False
        if not certified:  # the rescue: one dense solve, and a fresh start
            return self.dense()
        self.X = X
        if it >= _SLOW:
            self._rebuild(theta)
        return lam2, X[:, 0]


def edge_augmentation(n: int, m: int) -> AugmentationTrace:
    """Grow an n-vertex graph to m edges by greedy spectral augmentation.

    Each step takes a second eigenvector v of the current Laplacian and adds
    the non-adjacent pair maximizing |v_i - v_j|, a value that is the same
    for v and -v, ties to the lexicographically smallest pair.  While the
    graph has fewer than n - 1 edges, a standing mask of the pairs inside
    one component, marked block by block as components merge, takes them
    out of the candidates, so each of the first n - 1 steps joins two
    components by construction, and the graph is connected exactly from
    its (n-1)th edge, whatever kernel vector of L
    the eigensolver returns.  (On the LAPACK builds measured, that vector
    comes out constant within each component and spread across them by over
    1/sqrt(n), so the mask changes no pick there.)  One dense branch, an
    ``eigh`` of the Laplacian, answers those steps, which report
    lambda_2 = 0.0, the connecting step, which reports the dense value, and
    any later step the warm solver cannot certify.  Every other step takes
    no dense eigensolve: a Sherman-Morrison update of (L + 11^T - mu I)^-1
    for the new edge, then block Krylov Rayleigh-Ritz iterations from the
    last step's Ritz vectors until the residual of the lowest pair is a
    small multiple of eps * n.  A Cholesky factorization of
    L + 11^T - (lambda_2 - 1e-9) I certifies that no eigenvalue lies further
    below the reported lambda_2; if it fails, or the iterations stall, the
    dense branch answers that step.  Once connected, the connectivity never
    decreases along the trace.  Near-ties in |v_i - v_j| round as the
    vector came out, so the pairs after the first connected steps need not
    be those a dense solve on every step would pick.  The steps are
    deterministic, so the trace to m edges is a prefix of the trace to any
    larger budget.
    """
    if not 2 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 2..{MAX_VERTICES}, got {n}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError("edge budget exceeds the complete graph")
    solver = _Fiedler(n)
    # the diagonal, the lower triangle and the edges hold no candidate pair
    taken = np.tri(n, dtype=bool)
    # while disconnected: the pairs inside one component, and each vertex's
    # component as a vertex list shared by its members
    inside = np.eye(n, dtype=bool)
    members = [[u] for u in range(n)]
    steps = []
    prev_lam2, v = solver.dense()  # 0.0 on the empty graph
    for step in range(m):
        diff = np.subtract.outer(v, v)
        np.abs(diff, out=diff)
        np.copyto(diff, -1.0, where=taken)
        if step < n - 1:
            np.copyto(diff, -1.0, where=inside)
        # m <= n(n-1)/2 and each step adds a new edge, so a non-edge is left
        flat = int(np.argmax(diff))  # first maximum in row-major order:
        i, j = divmod(flat, n)  # lexicographically smallest tie
        taken[i, j] = True
        if step < n - 1:  # mark the merged block's pairs, O(n^2) in all
            a, b = members[i], members[j]
            inside[np.ix_(a, b)] = True
            inside[np.ix_(b, a)] = True
            a += b
            for u in b:
                members[u] = a
        lam2, v = solver.add_edge(i, j)
        if lam2 < prev_lam2 - 1e-9:
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
    otherwise) with sample statistics over ten fixed seeds; a disconnected
    draw counts as 0.0, as a disconnected augmentation step does.
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
            # a disconnected draw reports 0.0, not the eigensolver's noise
            draws = [random_regular(n, reg_d, seed) for seed in REGULAR_SEEDS]
            vals = [
                algebraic_connectivity(g) if is_connected(g) else 0.0 for g in draws
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
