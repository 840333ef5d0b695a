"""Laplacian spectra, Fiedler vectors, Rayleigh quotients, consensus decay.

The dense symmetric eigensolver is numpy's; this module owns the graph
Laplacian conventions, the deterministic sign normalization, residual
checking, and the quotient / decay-rate observables built on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, is_connected, max_degree

RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class EigenResult:
    """One eigenpair with its verified backward error ||Mv - value*v||."""

    value: float
    vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential decay rate and its relative fit error."""

    rate: float
    rel_err: float


def laplacian_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """Dense combinatorial Laplacians L = D - A of equal-size graphs.

    Returns a float64 stack of shape (k, n, n).  The row bitmasks of all k
    graphs are unpacked into adjacency bits in one numpy pass; the Python
    work per graph is one bytes conversion per row.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("graphs in one stack must have equal vertex counts")
    nb = (n + 7) // 8
    raw = b"".join([row.to_bytes(nb, "little") for g in graphs for row in g.rows])
    adj = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(graphs), n, nb),
        axis=2,
        count=n,
        bitorder="little",
    )
    # 0.0 - a, not -a: a non-edge stays +0.0 instead of becoming -0.0
    L = np.subtract(0.0, adj, dtype=float)
    diag = np.arange(n)
    L[:, diag, diag] = adj.sum(axis=2)
    return L


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian L = D - A as float64."""
    return laplacian_stack([g])[0]


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    # deterministic orientation: the largest-magnitude entry (lowest index on
    # ties) is made nonnegative
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0 else vec


def laplacian_spectrum(g: Graph) -> np.ndarray:
    """All Laplacian eigenvalues, ascending."""
    return np.linalg.eigvalsh(laplacian(g))


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue; zero iff g is disconnected."""
    if g.n < 2:
        raise ValueError("algebraic connectivity needs n >= 2")
    return float(laplacian_spectrum(g)[1])


def fiedler_vector(g: Graph) -> EigenResult:
    """Unit eigenvector for the second-smallest Laplacian eigenvalue.

    The constant kernel direction is deflated by adding (n+1)/n * J, which
    shifts only the eigenvalue at 0 up to n+1; the smallest eigenpair of the
    deflated matrix is then the Fiedler pair.  The residual is checked
    against the original Laplacian.
    """
    if g.n < 2:
        raise ValueError("Fiedler vector needs n >= 2")
    L = laplacian(g)
    vals, vecs = np.linalg.eigh(L + (g.n + 1.0) / g.n * np.ones((g.n, g.n)))
    value = float(vals[0])
    v = _fix_sign(vecs[:, 0])
    res = float(np.linalg.norm(L @ v - value * v))
    if res > RESIDUAL_TOL * max(1.0, abs(value)):
        raise ArithmeticError(f"Fiedler residual {res:.3e} exceeds tolerance")
    if abs(float(np.sum(v))) > 1e-9 * math.sqrt(g.n):
        raise ArithmeticError("Fiedler vector lost orthogonality to constants")
    return EigenResult(value=value, vector=v, residual=res)


def batched_lambda2(laplacians: np.ndarray) -> np.ndarray:
    """Second-smallest eigenvalue of each matrix in a (k, n, n) stack."""
    arr = np.asarray(laplacians, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("expected a (k, n, n) stack")
    if arr.shape[1] < 2:
        raise ValueError("stack matrices must be at least 2x2")
    return np.linalg.eigvalsh(arr)[:, 1]


def modified_lambda(g: Graph, r: int) -> float:
    """Smallest eigenvalue of L + E_rr (unit boost on the r-th diagonal).

    This is the spectral quantity controlling how a branch hanging off a cut
    vertex at r constrains the connectivity of the whole graph; it is
    strictly positive whenever g is connected.
    """
    if not 0 <= r < g.n:
        raise ValueError(f"root {r} outside 0..{g.n - 1}")
    M = laplacian(g)
    M[r, r] += 1.0
    return float(np.linalg.eigvalsh(M)[0])


def _quotient(g: Graph, x: np.ndarray, r: Optional[int]) -> float:
    # the edge sum of (x_i - x_j)^2, plus x_r^2 when a root r is given,
    # over the sum of x_j^2
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError("vector length must equal n")
    den = float(x @ x)
    if den == 0.0:
        raise ValueError("zero vector")
    num = 0.0 if r is None else float(x[r] ** 2)
    for i, j in g.edges():
        num += (x[i] - x[j]) ** 2
    return num / den


def rayleigh_quotient(g: Graph, x: np.ndarray) -> float:
    """sum over edges of (x_i - x_j)^2, divided by sum of x_j^2.

    For mean-zero x this is an upper bound on the algebraic connectivity.
    """
    return _quotient(g, x, None)


def modified_rayleigh_quotient(g: Graph, r: int, x: np.ndarray) -> float:
    """(x_r^2 + sum over edges of (x_i - x_j)^2) / sum of x_j^2.

    Upper-bounds modified_lambda(g, r) for every nonzero x, with no
    mean-zero requirement.
    """
    if not 0 <= r < g.n:
        raise ValueError(f"root {r} outside 0..{g.n - 1}")
    return _quotient(g, x, r)


def consensus_decay_rate(
    g: Graph, u0: np.ndarray, t_end: float, dt: float
) -> DecayFit:
    """Decay rate of du/dt = -L u toward consensus, from an RK4 integration.

    Integrates the deviation v = u - mean(u0) (the dynamics preserve the
    mean, so this is the same trajectory in the interesting subspace but
    avoids measuring a tiny signal on top of a large constant).  The rate is
    the negated slope of a least-squares line through log ||v(t)|| over the
    second half of the run; rel_err is the RMS residual of that line
    relative to its total drop.  For connected graphs the rate converges to
    the algebraic connectivity once the slower modes have died out.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (g.n,):
        raise ValueError("initial state length must equal n")
    if not (0 < t_end < math.inf and 0 < dt < math.inf):
        raise ValueError("t_end and dt must be positive and finite")
    if not is_connected(g):
        raise ValueError("consensus decay requires a connected graph")
    lam_max_est = 2.0 * max_degree(g)  # Gershgorin bound on the top eigenvalue
    if lam_max_est > 0 and dt > 0.1 / lam_max_est:
        raise ValueError(
            f"dt={dt} too coarse for stability; need dt <= {0.1 / lam_max_est:.6g}"
        )
    # a step a thousand times finer than stability needs buys no accuracy,
    # only Python RK4 steps and one stored norm each
    if lam_max_est > 0 and dt < 1e-4 / lam_max_est:
        raise ValueError(
            f"dt={dt} too fine; need dt >= {1e-4 / lam_max_est:.6g}, "
            "a thousandth of the stability limit"
        )
    v = u0 - u0.mean()
    if np.linalg.norm(v) < 1e-300:
        raise ValueError("initial state is already consensus")
    steps = t_end / dt  # inf past the largest float
    try:
        steps = max(4, math.ceil(steps))
        norms = np.empty(steps + 1)
        times = np.linspace(0.0, t_end, steps + 1)
    except (MemoryError, OverflowError, ValueError):  # ceil(inf), numpy's size
        raise ValueError(
            f"t_end / dt asks for {steps:.3g} RK4 steps, too many to store"
        ) from None
    h = t_end / steps
    L = laplacian(g)
    norms[0] = np.linalg.norm(v)
    for s in range(steps):
        k1 = -(L @ v)
        k2 = -(L @ (v + 0.5 * h * k1))
        k3 = -(L @ (v + 0.5 * h * k2))
        k4 = -(L @ (v + h * k3))
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norms[s + 1] = np.linalg.norm(v)
    sel = times >= 0.5 * t_end
    if np.min(norms[sel]) <= 0.0:
        raise ArithmeticError("trajectory norm underflowed; shorten t_end")
    y = np.log(norms[sel])
    t = times[sel]
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    drop = abs(slope) * (t[-1] - t[0])
    rel = float(np.sqrt(np.mean(resid**2)) / drop) if drop > 0 else float("inf")
    return DecayFit(rate=float(-slope), rel_err=rel)
