"""Spectral quantities against closed-form and variational oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from algconn.families import random_tree
from algconn.graphs import from_edges
from algconn.spectral import (
    _fix_sign,
    algebraic_connectivity,
    batched_lambda2,
    consensus_decay_rate,
    fiedler_vector,
    laplacian,
    laplacian_spectrum,
    laplacian_stack,
    modified_lambda,
    modified_rayleigh_quotient,
    rayleigh_quotient,
)


def _cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _star(n):
    return from_edges(n, [(0, i) for i in range(1, n)])


def _complete_bipartite(b, c):
    return from_edges(b + c, [(i, b + j) for i in range(b) for j in range(c)])


def _random_connected(rng, n, p=0.5):
    while True:
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = from_edges(n, edges)
        if n == 1 or algebraic_connectivity(g) > 1e-9:
            return g


# ---------------------------------------------------------------------------
# laplacian and full spectra
# ---------------------------------------------------------------------------


def test_laplacian_structure():
    g = from_edges(3, [(0, 1), (1, 2)])
    L = laplacian(g)
    assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.allclose(L.sum(axis=1), 0)


def _laplacian_per_edge(g):
    # the assembly loop laplacian_stack replaced, kept as its reference
    L = np.zeros((g.n, g.n))
    for i, j in g.edges():
        L[i, j] = L[j, i] = -1.0
        L[i, i] += 1.0
        L[j, j] += 1.0
    return L


def test_laplacian_stack_is_bitwise_the_per_edge_loop():
    rng = random.Random(8)
    families = [[from_edges(1, [])], [random_tree(94, 3, s) for s in range(20)]]
    for n in (2, 7, 8, 9, 20, 64, 65):
        families.append([_random_connected(rng, n) for _ in range(5)])
    for gs in families:
        want = np.stack([_laplacian_per_edge(g) for g in gs])
        got = laplacian_stack(gs)
        # tobytes compares the signs of zeros too
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert laplacian(gs[0]).tobytes() == want[0].tobytes()


def test_laplacian_stack_rejects_mixed_or_no_graphs():
    with pytest.raises(ValueError):
        laplacian_stack([_path(3), _path(4)])
    with pytest.raises(ValueError):
        laplacian_stack([])


def test_spectrum_closed_forms():
    # path: 2 - 2 cos(pi k / n); cycle: 2 - 2 cos(2 pi k / n); K_n: {0, n^(n-1)}
    n = 7
    want = sorted(2 - 2 * math.cos(math.pi * k / n) for k in range(n))
    assert np.allclose(laplacian_spectrum(_path(n)), want, atol=1e-10)
    want = sorted(2 - 2 * math.cos(2 * math.pi * k / n) for k in range(n))
    assert np.allclose(laplacian_spectrum(_cycle(n)), want, atol=1e-10)
    assert np.allclose(laplacian_spectrum(_complete(5)), [0, 5, 5, 5, 5], atol=1e-10)
    assert np.allclose(
        laplacian_spectrum(_star(6)), [0, 1, 1, 1, 1, 6], atol=1e-10
    )


def test_lambda2_known_values():
    # complete bipartite K_{b,c}: spectrum {0, b^(c-1), c^(b-1), b+c}
    assert algebraic_connectivity(_complete_bipartite(2, 8)) == pytest.approx(2.0)
    assert algebraic_connectivity(_complete_bipartite(5, 5)) == pytest.approx(5.0)
    assert algebraic_connectivity(_complete(4)) == pytest.approx(4.0)
    assert algebraic_connectivity(_star(10)) == pytest.approx(1.0)
    assert algebraic_connectivity(from_edges(4, [(0, 1), (2, 3)])) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        algebraic_connectivity(from_edges(1, []))


# ---------------------------------------------------------------------------
# sign convention
# ---------------------------------------------------------------------------


def test_fix_sign_convention():
    # the largest-magnitude entry, the lowest index on ties, is nonnegative
    assert list(_fix_sign(np.array([0.0, -1.0, 0.5]))) == [0.0, 1.0, -0.5]
    assert list(_fix_sign(np.array([-0.5, 0.5]))) == [0.5, -0.5]
    assert list(_fix_sign(np.array([0.5, -0.5]))) == [0.5, -0.5]


def test_eigen_smallest_sign_is_permutation_stable():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(2, 7)
        g = _random_connected(rng, n)
        v = fiedler_vector(g).vector
        assert v[int(np.argmax(np.abs(v)))] >= 0


def test_batched_lambda2_matches_single():
    rng = random.Random(5150)
    gs = [_random_connected(rng, 6) for _ in range(12)]
    stack = np.stack([laplacian(g) for g in gs])
    got = batched_lambda2(stack)
    want = [algebraic_connectivity(g) for g in gs]
    assert np.allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# fiedler vector
# ---------------------------------------------------------------------------


def test_fiedler_vector_contract():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randrange(2, 10)
        g = _random_connected(rng, n)
        res = fiedler_vector(g)
        L = laplacian(g)
        assert res.value == pytest.approx(algebraic_connectivity(g), abs=1e-9)
        assert np.linalg.norm(res.vector) == pytest.approx(1.0)
        assert abs(res.vector.sum()) <= 1e-9 * math.sqrt(n)
        assert np.linalg.norm(L @ res.vector - res.value * res.vector) <= 1e-8


def test_fiedler_path_is_monotone():
    # the path's Fiedler vector is cos(pi (2i+1) / (2n)): strictly monotone
    v = fiedler_vector(_path(9)).vector
    diffs = np.diff(v)
    assert np.all(diffs < 0) or np.all(diffs > 0)


# ---------------------------------------------------------------------------
# modified eigenvalue and quotients
# ---------------------------------------------------------------------------


def test_modified_lambda_small_oracles():
    # single vertex: L = [0], boosted diagonal gives eigenvalue 1
    assert modified_lambda(from_edges(1, []), 0) == pytest.approx(1.0)
    # one edge, boost at 0: eigenvalues of [[2,-1],[-1,1]] are (3 +- sqrt5)/2
    g = from_edges(2, [(0, 1)])
    assert modified_lambda(g, 0) == pytest.approx((3 - math.sqrt(5)) / 2)
    with pytest.raises(ValueError):
        modified_lambda(g, 2)


def test_modified_lambda_positive_connected():
    rng = random.Random(321)
    for _ in range(25):
        n = rng.randrange(1, 9)
        g = _random_connected(rng, n)
        r = rng.randrange(n)
        assert modified_lambda(g, r) > 1e-9


def test_modified_rayleigh_dominates_modified_lambda():
    rng = random.Random(777)
    for _ in range(40):
        n = rng.randrange(1, 9)
        g = _random_connected(rng, n)
        r = rng.randrange(n)
        x = np.array([rng.gauss(0, 1) for _ in range(n)])
        if np.linalg.norm(x) < 1e-12:
            continue
        q = modified_rayleigh_quotient(g, r, x)
        assert q >= modified_lambda(g, r) - 1e-9


def test_rayleigh_mean_zero_dominates_lambda2():
    rng = random.Random(888)
    for _ in range(40):
        n = rng.randrange(2, 10)
        g = _random_connected(rng, n)
        x = np.array([rng.gauss(0, 1) for _ in range(n)])
        x -= x.mean()
        if np.linalg.norm(x) < 1e-9:
            continue
        assert rayleigh_quotient(g, x) >= algebraic_connectivity(g) - 1e-9


def test_rayleigh_attained_by_fiedler_vector():
    g = _cycle(9)
    v = fiedler_vector(g).vector
    assert rayleigh_quotient(g, v) == pytest.approx(algebraic_connectivity(g))


def test_quotients_reject_zero_vector():
    g = _path(3)
    with pytest.raises(ValueError):
        rayleigh_quotient(g, np.zeros(3))
    with pytest.raises(ValueError):
        modified_rayleigh_quotient(g, 0, np.zeros(3))


# ---------------------------------------------------------------------------
# consensus decay
# ---------------------------------------------------------------------------


def test_consensus_rate_matches_lambda2():
    rng = np.random.default_rng(42)
    for g in (_cycle(8), _path(6), _complete_bipartite(2, 5)):
        lam2 = algebraic_connectivity(g)
        u0 = rng.standard_normal(g.n) + 3.0
        dt = 0.08 / (2 * max(g.degree(v) for v in range(g.n)))
        fit = consensus_decay_rate(g, u0, t_end=10.0 / lam2, dt=dt)
        assert fit.rate == pytest.approx(lam2, rel=0.02)
        assert fit.rel_err < 0.05


def test_consensus_rejects_bad_input():
    g = _path(4)
    u0 = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        consensus_decay_rate(g, u0, t_end=0.0, dt=0.01)
    with pytest.raises(ValueError):
        consensus_decay_rate(g, u0, t_end=1.0, dt=1.0)  # unstable step
    with pytest.raises(ValueError):
        consensus_decay_rate(g, np.ones(4), t_end=1.0, dt=0.01)
    for t_end in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            consensus_decay_rate(g, u0, t_end=t_end, dt=0.01)
    with pytest.raises(ValueError, match="positive and finite"):
        consensus_decay_rate(g, u0, t_end=1.0, dt=math.nan)
    # a billion steps: rejected before their norms are allocated
    with pytest.raises(ValueError, match="too fine"):
        consensus_decay_rate(g, u0, t_end=1.0, dt=1e-9)
    # 1e15 steps at a stable dt: 8 PB of norms cannot be allocated,
    # 1e302 steps are past numpy's largest array, and 1e308 / 0.01 is past
    # the largest float; the count reads in .3g
    for t_end, count in ((1e13, "1e+15"), (1e300, "1e+302"), (1e308, "inf")):
        with pytest.raises(ValueError, match="too many to store") as err:
            consensus_decay_rate(g, u0, t_end=t_end, dt=0.01)
        assert f" {count} RK4 steps" in str(err.value)
        assert len(str(err.value)) < 80
    with pytest.raises(ValueError):
        consensus_decay_rate(
            from_edges(4, [(0, 1), (2, 3)]), u0, t_end=1.0, dt=0.01
        )


def test_consensus_default_step_accepted_on_long_path(monkeypatch):
    # the consensus command's defaults, t_end = 10 / lambda2 and
    # dt = 0.08 / (2 * maxdeg), ask P_200 for about two million steps: every
    # check passes and the norms are allocated; the Laplacian comes last
    g = _path(200)
    t_end = 10.0 / algebraic_connectivity(g)
    dt = 0.08 / 4
    assert 2_000_000 < math.ceil(t_end / dt) < 2_100_000

    class Reached(Exception):
        pass

    def reached(_):
        raise Reached

    monkeypatch.setattr("algconn.spectral.laplacian", reached)
    with pytest.raises(Reached):
        consensus_decay_rate(g, np.arange(200.0), t_end=t_end, dt=dt)


def test_deep_balanced_tree_connectivity_pinned(eigenvalues_below):
    # 22-vertex balanced degree-3 tree of depth 3.  An exact Sylvester-inertia
    # count on the integer Laplacian puts one eigenvalue below lo and three
    # below hi, so the second eigenvalue lies in [lo, hi); the solver must
    # land inside.
    from algconn.families import bethe_tree

    tree = bethe_tree(3, 3)
    lo, hi = Fraction("0.096788074088"), Fraction("0.096788074089")
    assert eigenvalues_below(tree, lo) == 1
    assert eigenvalues_below(tree, hi) == 3
    lam2 = algebraic_connectivity(tree)
    assert lo <= Fraction(lam2) < hi


def test_exact_eigenvalue_count_matches_spectra(eigenvalues_below):
    # the exact inertia count behind the pinned values above, against
    # spectra known in closed form, probed at rationals between eigenvalues
    star = _star(6)  # 0, 1 (x4), 6
    assert [eigenvalues_below(star, t) for t in ("1/2", "3/2", "7")] == [1, 5, 6]
    path = _path(5)  # 2 - 2 cos(pi k / 5)
    for t in (Fraction(2 * k + 1, 14) for k in range(28)):
        want = sum(2 - 2 * math.cos(math.pi * k / 5) < t for k in range(5))
        assert eigenvalues_below(path, t) == want
    with pytest.raises(ZeroDivisionError):
        eigenvalues_below(star, 0)  # a connected Laplacian is singular
