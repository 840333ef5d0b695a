"""Upper bounds on algebraic connectivity for trees and cubic graphs.

Trees: a layered test vector (geometric weights over breadth-first layers)
bounds the modified eigenvalue of a branch, which in turn bounds the
connectivity of any tree containing that branch; worked through exactly this
yields a closed-form rational bound parameterized by the maximum degree d
and the layer depth K that fits inside the tree.

Cubic graphs: a path-shaped tridiagonal comparison matrix gives
3 - 2 sqrt(2) cos(pi/K) for graphs of girth >= 2K, and a diameter variant
of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .graphs import (
    Graph,
    _bits,
    _layers,
    degree_sequence,
    diameter,
    girth,
    is_connected,
    is_tree,
    max_degree,
    min_degree,
)
from .spectral import algebraic_connectivity


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: Optional[float]
    applicable: bool
    certified: bool
    attained: bool
    note: str


@dataclass(frozen=True)
class BoundReport:
    lambda2: float
    entries: tuple[BoundEntry, ...]


def lamtilde_test_vector(g: Graph, r: int, d: int) -> np.ndarray:
    """Layered trial vector for the modified quotient rooted at r.

    Vertices are ranked by (breadth-first distance from r, index), and that
    order is filled into layers of 1, d-1, (d-1)^2, ... vertices until it
    runs out, so only the last layer can be partial.  Layer k (the root's
    is k = 1) takes the constant value 1 - (d-1)^(-k).  On a tree whose
    degrees are at most d this ordering never puts a vertex above a deeper
    layer than its distance allows, which is what makes the resulting
    quotient small.
    """
    if not 0 <= r < g.n:
        raise ValueError(f"root {r} outside 0..{g.n - 1}")
    if d < 3:
        raise ValueError("need d >= 3")
    if not is_connected(g):
        raise ValueError("test vector needs a connected graph")
    order = [v for layer in _layers(g.rows, 1 << r) for v in _bits(layer)]
    x = np.empty(g.n)
    start, width, k = 0, 1, 1
    while start < g.n:
        x[order[start : start + width]] = 1.0 - (d - 1.0) ** (-k)
        start += width
        width *= d - 1
        k += 1
    return x


def precise_lamtilde_bound(d: int, K: int) -> Fraction:
    """Exact rational bound on the modified eigenvalue of a depth-K branch.

    Valid for any tree of maximum degree <= d that contains K full layers
    below the root.  Requires K >= 2 and a positive denominator (the bound
    degenerates when the correction terms swamp the main term).
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if K < 2:
        raise ValueError("need K >= 2")
    q = Fraction(1, d - 1)
    num = Fraction((d - 2) ** 2) * q ** (K + 1) * (1 - q ** (K - 1))
    den = (
        1
        - 2 * (K - 1) * (d - 2) * q**K
        - (d - 1 - q**2) * q**K
        - q ** (2 * K + 1)
    )
    if den <= 0:
        raise ValueError(f"bound degenerates at d={d}, K={K} (denominator {den})")
    return num / den


def _tree_bound_level(n: int, d: int) -> int:
    # largest K with (d-1)^K <= 1 + (d-2)(n-2) / (2(d-1)), exactly
    cap = 1 + Fraction((d - 2) * (n - 2), 2 * (d - 1))
    K = 0
    power = 1
    while power * (d - 1) <= cap:
        power *= d - 1
        K += 1
    return K


def tree_bound_precise(n: int, d: int) -> Fraction:
    """Upper bound on the connectivity of every n-vertex tree of max degree d.

    Splitting any such tree at a well-chosen vertex leaves a branch deep
    enough for K full layers, with K as computed here; the layered-branch
    bound then applies.  Raises when n is too small to guarantee K >= 2.

    Sound, but loose on balanced trees: wherever it is below 2 it is 2.1 to
    8.8 times their connectivity (d = 3 to 7, up to 766 vertices).  The
    ratio falls toward d - 1, because K is floored to the depth every tree
    of that size and degree must hold.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if d < 3:
        raise ValueError("need d >= 3")
    K = _tree_bound_level(n, d)
    if K < 2:
        raise ValueError(f"no guaranteed depth-2 branch at n={n}, d={d}")
    return precise_lamtilde_bound(d, K)


def tree_bound_asymptotic(n: int, d: int) -> float:
    """Leading-order form 2(d-2)/n of the tree bound (reference value).

    A leading term only, not a bound: it lies below the connectivity of the
    balanced trees on 4, 10 and 22 vertices (d = 3), and below the largest
    connectivity of the 20-vertex trees of max degree 3 (0.101945 > 0.1).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 3:
        raise ValueError("need d >= 3")
    return 2.0 * (d - 2) / n


def conjectured_tree_bound(n: int, d: int) -> float:
    """Conjectured sharp asymptotic d(d-2) / ((d-1) n) (reference value).

    n times the connectivity of the balanced (Bethe) tree falls toward
    d(d-2)/(d-1) from above (1.539 at n = 766 for d = 3).  So this value
    lies below the connectivity of every balanced tree measured, and it
    bounds nothing at a finite n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 3:
        raise ValueError("need d >= 3")
    return d * (d - 2) / ((d - 1) * n)


def basic_diameter_bound(t: Graph) -> float:
    """2 - 2 cos(pi / (D+1)) for a tree of diameter D.

    A diameter-D tree contains a path on D+1 vertices, and attaching the
    rest of the tree only lowers the connectivity, so the path's value
    bounds the tree's.
    """
    if not is_tree(t):
        raise ValueError("diameter bound applies to trees")
    if t.n < 2:
        raise ValueError("need n >= 2")
    return _path_bound(diameter(t))


def _path_bound(D: int) -> float:
    # connectivity of the path on D + 1 vertices
    return 2.0 - 2.0 * math.cos(math.pi / (D + 1))


def tk_bound(K: int) -> float:
    """3 - 2 sqrt(2) cos(pi/K): connectivity bound for cubic girth >= 2K."""
    if K < 1:
        raise ValueError("need K >= 1")
    return 3.0 - 2.0 * math.sqrt(2.0) * math.cos(math.pi / K)


def girth_bound(g_girth: int) -> float:
    """Cubic upper bound from the girth: tk_bound(floor(girth/2))."""
    if g_girth < 3:
        raise ValueError("girth is at least 3")
    return tk_bound(g_girth // 2)


def nilli_bound(D: int) -> float:
    """3 - 2 sqrt(2) cos(2 pi / D): cubic bound from the diameter, D >= 2."""
    if D < 2:
        raise ValueError("need diameter >= 2")
    return 3.0 - 2.0 * math.sqrt(2.0) * math.cos(2.0 * math.pi / D)


def tk_matrix(K: int) -> np.ndarray:
    """Tridiagonal comparison matrix behind tk_bound.

    K x K, diagonal (4, 3, ..., 3, 5), off-diagonals -sqrt(2).  Its smallest
    eigenvalue equals tk_bound(K).
    """
    if K < 2:
        raise ValueError("need K >= 2")
    M = np.diag([4.0] + [3.0] * (K - 2) + [5.0])
    for i in range(K - 1):
        M[i, i + 1] = M[i + 1, i] = -math.sqrt(2.0)
    return M


def min_degree_bound(g: Graph) -> float:
    """Fiedler's bound: connectivity <= n/(n-1) * minimum degree."""
    if g.n < 2:
        raise ValueError("need n >= 2")
    return g.n / (g.n - 1.0) * min_degree(g)


ATTAINED_TOL = 1e-6


def bound_report(g: Graph) -> BoundReport:
    """Every applicable upper bound for g, with certification flags.

    "certified" entries are proven bounds for g's class; the rest are
    asymptotic or conjectured reference values.  "attained" marks certified
    bounds met by g's actual connectivity to within 1e-6.
    """
    if g.n < 2:
        raise ValueError("need n >= 2")
    lam2 = algebraic_connectivity(g)
    entries = []

    def add(name, value, certified, note=""):
        applicable = value is not None
        attained = applicable and certified and abs(value - lam2) <= ATTAINED_TOL
        entries.append(
            BoundEntry(
                name=name,
                value=None if value is None else float(value),
                applicable=applicable,
                certified=certified,
                attained=attained,
                note=note,
            )
        )

    add("min_degree", min_degree_bound(g), True, "n/(n-1) * min degree")

    tree = is_tree(g)
    d = max_degree(g)
    if tree:
        D = diameter(g)
        add("diameter_path", _path_bound(D), True, f"embedded path, D={D}")
    else:
        add("diameter_path", None, True, "not a tree")

    if tree and d >= 3:
        try:
            K = _tree_bound_level(g.n, d)
            val = tree_bound_precise(g.n, d)
            add("tree_layered", float(val), True, f"d={d}, K={K}")
        except ValueError as exc:
            add("tree_layered", None, True, str(exc))
        add("tree_asymptotic", tree_bound_asymptotic(g.n, d), False,
            f"2(d-2)/n at d={d}")
        add("tree_conjectured", conjectured_tree_bound(g.n, d), False,
            f"d(d-2)/((d-1)n) at d={d}")
    else:
        why = "not a tree" if not tree else "max degree below 3"
        add("tree_layered", None, True, why)
        add("tree_asymptotic", None, False, why)
        add("tree_conjectured", None, False, why)

    cubic = degree_sequence(g) == (3,) * g.n
    if cubic:  # 3n/2 edges on n vertices: a cubic graph has a cycle
        gir = girth(g)
        add("girth_cubic", girth_bound(gir), True, f"girth {gir}, K={gir // 2}")
    else:
        add("girth_cubic", None, True, "needs a cubic graph with a cycle")

    D = diameter(g) if cubic and is_connected(g) else 0
    if D >= 2:
        add("nilli_cubic", nilli_bound(D), True, f"diameter {D}")
    else:
        add("nilli_cubic", None, True, "needs a connected cubic graph of diameter >= 2")

    return BoundReport(lambda2=lam2, entries=tuple(entries))
