"""Bound formulas: exact rational values, attainment, and soundness."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from algconn import _kernels
from algconn.bounds import (
    _path_bound,
    basic_diameter_bound,
    bound_report,
    conjectured_tree_bound,
    girth_bound,
    lamtilde_test_vector,
    min_degree_bound,
    nilli_bound,
    precise_lamtilde_bound,
    tk_bound,
    tk_matrix,
    tree_bound_asymptotic,
    tree_bound_precise,
)
from algconn.families import (
    bethe_tree,
    complete,
    named,
    path,
    random_regular,
    random_tree,
    star,
)
from algconn.graphs import diameter, from_edges, girth, is_connected
from algconn.search import _layout_to_graph
from algconn.spectral import (
    algebraic_connectivity,
    modified_lambda,
    modified_rayleigh_quotient,
)
from algconn.treetools import split_spectral_bound


def _branch(d, K):
    # full layered branch: root with d-1 children, every interior vertex
    # d-1 children, K layers total (sizes 1, d-1, ..., (d-1)^(K-1))
    edges = []
    level = [0]
    nxt = 1
    for _ in range(K - 1):
        new = []
        for v in level:
            for _ in range(d - 1):
                edges.append((v, nxt))
                new.append(nxt)
                nxt += 1
        level = new
    return from_edges(nxt, edges)


# ---------------------------------------------------------------------------
# layered test vector and its quotient
# ---------------------------------------------------------------------------


def _path_layers(n, d):
    # (value, count) of each run of equal entries in the test vector of the
    # path rooted at its end, whose breadth-first order is its index order
    x = lamtilde_test_vector(path(n), 0, d)
    return [(v, len(list(run))) for v, run in itertools.groupby(x.tolist())]


def _layer_values(d, count):
    return [1.0 - (d - 1.0) ** (-k) for k in range(1, count + 1)]


def test_test_vector_layer_sizes_known():
    for n, d, sizes in (
        (1, 3, [1]),
        (3, 3, [1, 2]),
        (4, 3, [1, 2, 1]),
        (6, 3, [1, 2, 3]),
        (7, 3, [1, 2, 4]),
        (100, 3, [1, 2, 4, 8, 16, 32, 37]),
        (5, 4, [1, 3, 1]),
    ):
        layers = _path_layers(n, d)
        assert [c for _, c in layers] == sizes, (n, d)
        assert [v for v, _ in layers] == _layer_values(d, len(sizes))


def test_test_vector_layer_sizes_invariants():
    # full layers of 1, d-1, (d-1)^2, ... and then one nonempty layer that
    # is at most full, each at its own value (n stays within a Graph's 4096)
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 4097)
        d = rng.randrange(3, 9)
        layers = _path_layers(n, d)
        sizes = [c for _, c in layers]
        K = len(sizes) - 1
        assert sum(sizes) == n
        assert sizes[:K] == [(d - 1) ** k for k in range(K)]
        assert 1 <= sizes[K] <= (d - 1) ** K
        assert [v for v, _ in layers] == _layer_values(d, K + 1)


def test_test_vector_layer_values():
    g = _branch(3, 3)  # 7 vertices: 1 + 2 + 4
    x = lamtilde_test_vector(g, 0, 3)
    assert x[0] == pytest.approx(0.5)
    assert x[1] == x[2] == pytest.approx(0.75)
    assert np.allclose(x[3:], 0.875)


def test_test_vector_quotient_hand_values():
    # K=2, d=3 branch: quotient (1/4 + 2/16) / (1/4 + 9/8) = 3/11
    g = _branch(3, 2)
    x = lamtilde_test_vector(g, 0, 3)
    assert modified_rayleigh_quotient(g, 0, x) == pytest.approx(3 / 11)
    # K=3: (1/4 + 2/16 + 4/64) / (1/4 + 9/8 + 49/16) = 7/71
    g = _branch(3, 3)
    x = lamtilde_test_vector(g, 0, 3)
    assert modified_rayleigh_quotient(g, 0, x) == pytest.approx(7 / 71)


def test_test_vector_quotient_below_precise_bound():
    # the closed-form bound absorbs the quotient of the full branch
    for d in (3, 4):
        for K in range(2, 6):
            g = _branch(d, K)
            x = lamtilde_test_vector(g, 0, d)
            q = modified_rayleigh_quotient(g, 0, x)
            assert q <= float(precise_lamtilde_bound(d, K)) + 1e-12
            assert modified_lambda(g, 0) <= q + 1e-12


# ---------------------------------------------------------------------------
# precise closed-form bound
# ---------------------------------------------------------------------------


def test_precise_bound_exact_values():
    # d=3, K=2: numerator (1/2)^3 (1 - 1/2) = 1/16,
    # denominator 1 - 1/2 - 7/16 - 1/32 = 1/32; ratio exactly 2
    assert precise_lamtilde_bound(3, 2) == Fraction(2)
    # d=3, K=3: (1/16)(3/4) / (1 - 1/2 - 7/32 - 1/128) = (3/64)/(35/128)
    assert precise_lamtilde_bound(3, 3) == Fraction(6, 35)
    # d=3, K=4: (1/32)(7/8) / (263/512)
    assert precise_lamtilde_bound(3, 4) == Fraction(14, 263)
    with pytest.raises(ValueError):
        precise_lamtilde_bound(3, 1)
    with pytest.raises(ValueError):
        precise_lamtilde_bound(2, 3)


def test_precise_bound_decreasing_in_depth():
    for d in (3, 4, 5):
        vals = [precise_lamtilde_bound(d, K) for K in range(2, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0


def test_tree_bound_precise_values():
    assert tree_bound_precise(100, 3) == Fraction(14, 263)
    assert tree_bound_precise(14, 3) == Fraction(2)  # first n with K = 2
    with pytest.raises(ValueError):
        tree_bound_precise(13, 3)  # K would be 1
    # n=1000: K=7; numerator (1/2)^8 (63/64) = 63/16384, denominator
    # 1 - 12/128 - 7/512 - 1/32768 = 29247/32768, ratio 126/29247
    assert tree_bound_precise(1000, 3) == Fraction(42, 9749)


def test_tree_bound_precise_sound_on_samples():
    rng = random.Random(17)
    for n in (14, 20, 40, 64):
        cap = float(tree_bound_precise(n, 3))
        for _ in range(10):
            t = random_tree(n, 3, rng.randrange(10**6))
            assert algebraic_connectivity(t) <= cap + 1e-9


def test_reference_asymptotics():
    assert tree_bound_asymptotic(100, 3) == pytest.approx(0.02)
    assert conjectured_tree_bound(100, 3) == pytest.approx(0.015)
    # conjectured value sits below the proven asymptotic form
    for n in (50, 500):
        for d in (3, 4, 6):
            assert conjectured_tree_bound(n, d) < tree_bound_asymptotic(n, d)


def test_tree_bounds_on_balanced_trees():
    # the balanced (Bethe) trees past the enumerable sizes, up to 766
    # vertices: n * lambda2 falls toward d(d-2)/(d-1) from above, so the
    # conjectured constant lies below every one of them, while the split
    # bound and the precise bound stay above lambda2
    pinned = {(3, 4): 1.85433, (3, 8): 1.53889, (4, 4): 2.81907, (5, 4): 3.82748}
    for d, K_max in ((3, 8), (4, 5), (5, 4), (6, 3), (7, 3)):
        scaled = []
        for K in range(1, K_max + 1):
            t = bethe_tree(d, K)
            lam2 = algebraic_connectivity(t)
            assert split_spectral_bound(t) >= lam2 - 1e-9, (d, K)
            if t.n >= (22, 53, 106, 187, 302)[d - 3]:
                assert tree_bound_precise(t.n, d) >= lam2, (d, K)
            else:  # no guaranteed depth-2 branch yet
                with pytest.raises(ValueError):
                    tree_bound_precise(t.n, d)
            assert conjectured_tree_bound(t.n, d) < lam2, (d, K)
            scaled.append(t.n * lam2)
            if (d, K) in pinned:
                assert t.n * lam2 == pytest.approx(pinned[d, K], abs=1e-4)
        assert all(a > b for a, b in zip(scaled, scaled[1:])), d


# ---------------------------------------------------------------------------
# cubic bounds
# ---------------------------------------------------------------------------


def test_tk_bound_table():
    assert tk_bound(2) == pytest.approx(3.0)
    assert tk_bound(3) == pytest.approx(3.0 - math.sqrt(2.0))
    assert tk_bound(3) == pytest.approx(1.58578, abs=1e-5)
    assert tk_bound(4) == pytest.approx(1.0)
    assert tk_bound(5) == pytest.approx(0.71175, abs=5e-6)
    assert tk_bound(6) == pytest.approx(0.55051, abs=5e-6)
    assert tk_bound(7) == pytest.approx(0.451675, abs=5e-7)
    with pytest.raises(ValueError):
        tk_bound(0)


def test_tk_matrix_smallest_eigenvalue_is_the_bound():
    for K in range(2, 11):
        vals = np.linalg.eigvalsh(tk_matrix(K))
        assert vals[0] == pytest.approx(tk_bound(K), abs=1e-10)


def test_tk_matrix_full_spectrum():
    # spectrum is 3 - 2 sqrt(2) cos(pi j / K) for j = 1..K-1, plus simple 6:
    # the matrix is the path comparison operator with boundary rows 4 and 5,
    # and the boundary condition factors so that only K-1 cosine modes
    # survive, the last eigenvector being supported on the endpoint
    for K in range(2, 12):
        want = sorted(
            [3 - 2 * math.sqrt(2) * math.cos(math.pi * j / K) for j in range(1, K)]
            + [6.0]
        )
        got = np.linalg.eigvalsh(tk_matrix(K))
        assert np.allclose(got, want, atol=1e-9)


def test_girth_bound_attained_by_cages():
    h = named("heawood")
    assert girth_bound(girth(h)) == pytest.approx(
        algebraic_connectivity(h), abs=1e-9
    )
    t = named("tutte_coxeter")
    assert girth_bound(girth(t)) == pytest.approx(1.0)
    assert girth_bound(girth(t)) == pytest.approx(
        algebraic_connectivity(t), abs=1e-9
    )


def test_cubic_bounds_sound_on_samples():
    rng = random.Random(23)
    found = 0
    while found < 12:
        g = random_regular(14, 3, rng.randrange(10**6))
        if not is_connected(g):
            continue
        found += 1
        lam2 = algebraic_connectivity(g)
        assert lam2 <= girth_bound(girth(g)) + 1e-9
        D = diameter(g)
        if D >= 2:
            assert lam2 <= nilli_bound(D) + 1e-9


def test_nilli_bound_values():
    assert nilli_bound(2) == pytest.approx(3 + 2 * math.sqrt(2))
    assert nilli_bound(6) == pytest.approx(3 - math.sqrt(2))
    with pytest.raises(ValueError):
        nilli_bound(1)


def test_min_degree_bound_attained():
    assert min_degree_bound(complete(6)) == pytest.approx(6.0)
    assert algebraic_connectivity(complete(6)) == pytest.approx(6.0)
    assert min_degree_bound(path(2)) == pytest.approx(2.0)
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randrange(2, 10)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        g = from_edges(n, edges)
        assert algebraic_connectivity(g) <= min_degree_bound(g) + 1e-9


def test_diameter_bound_attained_by_paths_and_stars():
    p = path(9)
    assert basic_diameter_bound(p) == pytest.approx(algebraic_connectivity(p))
    s = star(7)
    assert basic_diameter_bound(s) == pytest.approx(1.0)
    assert algebraic_connectivity(s) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        basic_diameter_bound(complete(4))


def test_walk_height_caps_the_diameter_and_lambda2():
    # the premise of the tree maximizer's height cap: every layout is rooted
    # at a centre, so height h means diameter 2h - 1 or 2h, and the path on
    # 2h vertices inside the tree bounds its connectivity
    for n in range(1, 15):
        for d in sorted({3, n}):
            for layout in _kernels.free_tree_layouts(n, d, n):
                h = max(layout)
                g = _layout_to_graph(layout)
                assert diameter(g) in (2 * h - 1, 2 * h), layout
                if n > 1:
                    assert algebraic_connectivity(g) <= _path_bound(2 * h - 1) + 1e-12


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


def test_bound_report_heawood():
    rep = bound_report(named("heawood"))
    assert rep.lambda2 == pytest.approx(3 - math.sqrt(2))
    by_name = {e.name: e for e in rep.entries}
    assert by_name["girth_cubic"].attained
    assert by_name["girth_cubic"].certified
    assert by_name["nilli_cubic"].applicable
    assert not by_name["tree_layered"].applicable
    assert by_name["min_degree"].value == pytest.approx(14 / 13 * 3)


def test_bound_report_tree():
    rep = bound_report(bethe_tree(3, 3))
    by_name = {e.name: e for e in rep.entries}
    assert by_name["tree_layered"].applicable
    assert by_name["tree_layered"].value == pytest.approx(2.0)  # n=22: K=2
    assert rep.lambda2 <= by_name["tree_layered"].value
    rep46 = bound_report(bethe_tree(3, 4))
    by_name46 = {e.name: e for e in rep46.entries}
    assert by_name46["tree_layered"].value == pytest.approx(6 / 35)  # n=46: K=3
    assert rep46.lambda2 <= by_name46["tree_layered"].value
    assert by_name["tree_asymptotic"].applicable
    assert not by_name["tree_asymptotic"].certified
    assert by_name["girth_cubic"].applicable is False
    rep = bound_report(path(10))
    by_name = {e.name: e for e in rep.entries}
    assert by_name["diameter_path"].attained
    assert not by_name["tree_layered"].applicable  # max degree 2


def test_bound_report_takes_the_diameter_once(monkeypatch):
    import algconn.bounds

    calls = []

    def counted(g):
        calls.append(g)
        return diameter(g)

    monkeypatch.setattr(algconn.bounds, "diameter", counted)
    for g in (bethe_tree(3, 3), path(7), named("heawood")):
        calls.clear()
        bound_report(g)
        assert calls == [g]


def test_bound_report_certified_entries_are_sound():
    rng = random.Random(31)
    graphs = [bethe_tree(3, 2), star(9), path(13), named("petersen")]
    for _ in range(6):
        graphs.append(random_tree(18, 3, rng.randrange(10**6)))
    for g in graphs:
        rep = bound_report(g)
        for e in rep.entries:
            if e.applicable and e.certified:
                assert rep.lambda2 <= e.value + 1e-9, (g, e)
