"""End-to-end acceptance checks, one test per shipped criterion.

Each test states its tolerance and time budget inline and checks exactly
what the criterion promises; the conftest hook prints a PASS/FAIL line per
criterion at the end of the run.  Two criteria assert values that differ
from the figures printed in the source, each backed by an exact
certificate:

* criterion 2: the comparison matrix has the K-1 cosine modes
  3 - 2*sqrt(2)*cos(pi*j/K), j = 1..K-1, plus a simple eigenvalue that is
  exactly 6 (its characteristic polynomial vanishes there in integer
  arithmetic), not the closed form at j = K.
* criterion 6: the depth-3 balanced degree-3 tree has connectivity
  0.096788074088(4), bracketed by an exact Sylvester-inertia count on its
  integer Laplacian, not the printed 0.0936.
"""

import math
import time

import numpy as np
import pytest

from algconn import _kernels
from algconn.augment import compare_families, edge_augmentation
from algconn.bounds import girth_bound, nilli_bound, tk_matrix, tree_bound_precise
from algconn.families import (
    bethe_tree,
    complete_bipartite,
    named,
    path,
    random_regular,
    random_tree,
    star,
)
from algconn.graphs import (
    canonical_form,
    canonical_key,
    girth,
    graph6_decode,
    graph6_encode,
    is_connected,
)
from algconn.search import (
    count_trees,
    enumerate_cubic,
    enumerate_graphs,
    enumerate_trees,
    maximize_lambda2,
    maximize_trees,
    verify_conjecture_k2,
)
from algconn.spectral import (
    algebraic_connectivity,
    batched_lambda2,
    consensus_decay_rate,
    laplacian,
)
from algconn.treetools import split_spectral_bound

TOL = 1e-9


def _lam2_family(graphs):
    graphs = list(graphs)
    stack = np.stack([laplacian(g) for g in graphs])
    return graphs, batched_lambda2(stack)


def test_criterion_01_closed_form_spectra():
    # budget: < 1 s
    t0 = time.perf_counter()
    for n in range(3, 51):
        assert abs(algebraic_connectivity(star(n)) - 1.0) <= TOL
    for n in range(2, 51):
        expect = 2.0 - 2.0 * math.cos(math.pi / n)
        assert abs(algebraic_connectivity(path(n)) - expect) <= TOL
    for b in range(2, 6):
        for n in range(10, 21):
            assert abs(algebraic_connectivity(complete_bipartite(n, b)) - b) <= TOL
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_comparison_matrix_closed_form():
    # budget: < 1 s.  The spectrum is the K-1 cosine modes
    # 3 - 2 sqrt(2) cos(pi j / K), j = 1..K-1, plus a simple eigenvalue 6
    # (eigenvector alternates sign down the chain), which lies above every
    # cosine mode.  The bounds only ever use the smallest eigenvalue.  The 6
    # is certified exactly: with diagonal a = (4, 3, ..., 3, 5) and
    # off-diagonal products 2, the characteristic polynomial follows
    # p_k(x) = (a_k - x) p_{k-1}(x) - 2 p_{k-2}(x), integer arithmetic at
    # x = 6.  The full spectrum is also pinned by
    # test_bounds.py::test_tk_matrix_full_spectrum.
    t0 = time.perf_counter()
    violations = []
    for K in range(2, 13):
        M = tk_matrix(K)
        diag = [4] + [3] * (K - 2) + [5]
        assert np.diag(M).tolist() == diag
        assert np.diag(M, 1) == pytest.approx(-math.sqrt(2.0), abs=TOL)
        assert np.count_nonzero(M) == 3 * K - 2
        p_prev, p = 0, 1
        for a in diag:
            p_prev, p = p, (a - 6) * p - 2 * p_prev
        assert p == 0, f"6 is not an eigenvalue at K={K}: p_K(6) = {p}"

        eigs = np.linalg.eigvalsh(M)
        want = [
            3.0 - 2.0 * math.sqrt(2.0) * math.cos(math.pi * j / K)
            for j in range(1, K)
        ] + [6.0]
        for got, expect in zip(eigs, want, strict=True):
            if abs(got - expect) > TOL:
                violations.append((K, float(got), expect))
    assert time.perf_counter() - t0 < 1.0
    assert not violations, f"spectrum misses at (K, actual, expected): {violations[:4]}"


def test_criterion_03_cubic_table_desk_scale():
    # budget: < 10 min for the n=14 census plus eigensolves
    t0 = time.perf_counter()
    small = maximize_lambda2(enumerate_cubic(6))
    assert abs(small.best_lambda2 - 3.0) <= TOL
    assert len(small.maximizers) == 1
    assert girth(graph6_decode(small.maximizers[0])) == 4

    big = maximize_lambda2(enumerate_cubic(14), threads=2)
    assert abs(big.best_lambda2 - 1.58578) <= 1e-5
    assert len(big.maximizers) == 1
    winner = graph6_decode(big.maximizers[0])
    assert canonical_key(winner) == canonical_key(named("heawood"))

    assert abs(algebraic_connectivity(named("tutte_coxeter")) - 1.0) <= 1e-6
    assert time.perf_counter() - t0 < 600.0


def test_criterion_04_girth_bound_soundness():
    # budget: < 15 min.  The comparison against the diameter formula is
    # asserted where that formula is defined (floor(girth/2) >= 2; at girth
    # 3 its argument falls below the formula's own domain, where it bounds
    # nothing: lambda2(K_4) = 4 > 0.17).
    t0 = time.perf_counter()

    def check(g):
        gg = girth(g)
        assert gg is not None
        bound = girth_bound(gg)
        assert algebraic_connectivity(g) <= bound + TOL
        if gg // 2 >= 2:
            assert bound <= nilli_bound(gg // 2)

    for n in range(4, 15, 2):
        for g in enumerate_cubic(n):
            check(g)

    count = 0
    for n in range(10, 201, 10):
        for seed in range(5):
            g = random_regular(n, 3, seed)
            attempt = seed
            while not is_connected(g):
                attempt += 1000
                g = random_regular(n, 3, attempt)
            check(g)
            count += 1
    assert count == 100
    assert time.perf_counter() - t0 < 900.0


def test_criterion_05_tree_bound_soundness():
    # budget: < 5 min.  tree_bound_precise(n, 3) needs two full layers,
    # i.e. n >= 14; the split-vertex pipeline bound applies to every tree
    # on >= 3 vertices.
    t0 = time.perf_counter()

    def check(t):
        lam2 = algebraic_connectivity(t)
        if t.n >= 14:
            assert lam2 <= float(tree_bound_precise(t.n, 3)) + TOL
        if t.n >= 3:
            assert lam2 <= split_spectral_bound(t) + TOL

    for n in range(3, 15):
        for t in enumerate_trees(n, 3):
            check(t)

    count = 0
    sizes = list(range(3, 41))
    for i in range(1000):
        n = sizes[i % len(sizes)]
        check(random_tree(n, 3, seed=i))
        count += 1
    assert count == 1000
    assert time.perf_counter() - t0 < 300.0


def test_criterion_06_balanced_tree_maximizers(eigenvalues_below):
    # budget: < 30 min for the n=22/23 sweeps.  The value clause rests on an
    # exact inertia count on the integer Laplacian: exactly one eigenvalue
    # (the zero) lies below lo and three lie below hi, so lambda2 = lambda3
    # (threefold symmetry at the root) lies in [lo, hi).  This excludes the
    # printed 0.0936 +- 5e-5.
    t0 = time.perf_counter()
    for K in (2, 3):
        ref = bethe_tree(3, K)
        outcome = maximize_trees(ref.n, 3, threads=2)
        assert outcome.enumerated == count_trees(ref.n, 3)
        assert len(outcome.maximizers) == 1, f"tie at n={ref.n}"
        winner = graph6_decode(outcome.maximizers[0])
        assert canonical_key(winner) == canonical_key(ref), (
            f"maximizer at n={ref.n} is not the balanced tree"
        )

    # the census walks every layout, with no height cap
    assert count_trees(23, 3) == 565734
    assert sum(1 for _ in _kernels.free_tree_layouts(23, 3, 23)) == 565734

    tree = bethe_tree(3, 3)
    lo, hi = "0.096788074088", "0.096788074089"
    assert eigenvalues_below(tree, lo) == 1
    assert eigenvalues_below(tree, hi) == 3
    lam2 = algebraic_connectivity(tree)
    assert abs(lam2 - 0.0967880740884) <= TOL, (
        f"lambda2 of the balanced 22-vertex tree is {lam2:.12g}, "
        "not 0.0967880740884 +- 1e-9"
    )
    assert time.perf_counter() - t0 < 1800.0


def test_criterion_07_k2_conjecture_desk_scale():
    # budget: < 30 min
    t0 = time.perf_counter()
    for n in range(5, 10):
        m = 2 * (n - 2)
        outcome = maximize_lambda2(enumerate_graphs(n, m, min_degree=2), threads=2)
        assert abs(outcome.best_lambda2 - 2.0) <= TOL
        ref_key = canonical_key(complete_bipartite(n, 2))
        winner_keys = {
            canonical_key(graph6_decode(s)) for s in outcome.maximizers
        }
        assert ref_key in winner_keys
        if n >= 8:
            # Fiedler's lambda2 <= min degree: past K_(2,n-2) only the
            # minimum-degree-3 members can matter
            reduced = maximize_lambda2(enumerate_graphs(n, m, min_degree=3))
            ref_val = algebraic_connectivity(complete_bipartite(n, 2))
            expect = max(ref_val, reduced.best_lambda2)
            assert abs(outcome.best_lambda2 - expect) <= TOL

    assert abs(algebraic_connectivity(complete_bipartite(10, 2)) - 2.0) <= TOL
    rep = verify_conjecture_k2(10)
    assert rep.exhaustive and rep.passed
    assert rep.checked == 357
    ref_key = canonical_key(complete_bipartite(10, 2))
    assert ref_key in {canonical_key(graph6_decode(s)) for s in rep.witnesses}
    assert time.perf_counter() - t0 < 1800.0


def test_criterion_08_augmentation_thresholds():
    # budget: < 10 min (600 eigensolves at n=100)
    t0 = time.perf_counter()
    trace = edge_augmentation(100, 600)
    assert trace.steps[-1][1] > 6.0

    degs = sorted(trace.final.degree(v) for v in range(100))
    median = float(np.median(degs))
    assert degs[-1] >= 3 * median, "no degree outlier in the augmented graph"

    cmp = compare_families(100, [99, 196, 291, 384])
    for row in cmp.rows:
        assert row.bipartite_b <= 4
        assert row.bipartite >= row.augmented - TOL
    assert time.perf_counter() - t0 < 600.0


def test_criterion_09_consensus_decay():
    # budget: < 1 min; tolerance 2%
    t0 = time.perf_counter()
    cases = [named("petersen"), named("heawood"), star(20), bethe_tree(3, 3)]
    for i, g in enumerate(cases):
        lam2 = algebraic_connectivity(g)
        max_deg = max(g.degree(v) for v in range(g.n))
        rng = np.random.default_rng(11 + i)
        fit = consensus_decay_rate(
            g,
            rng.standard_normal(g.n),
            t_end=10.0 / lam2,
            dt=0.08 / (2.0 * max_deg),
        )
        assert abs(fit.rate - lam2) / lam2 <= 0.02
    assert time.perf_counter() - t0 < 60.0


def test_criterion_10_infrastructure_properties():
    # budget: < 5 min
    t0 = time.perf_counter()

    # graph6 round-trip on everything the enumerators emit at n <= 12
    fams = [
        enumerate_trees(12, 11),
        enumerate_trees(10, 3),
        enumerate_cubic(12),
        enumerate_graphs(6, 8, 2),
        enumerate_graphs(7, 8, 1),
    ]
    for fam in fams:
        for g in fam:
            assert graph6_decode(graph6_encode(g)) == g

    # canonical form invariant under 100 random relabelings of 50 graphs
    import random

    rng = random.Random(2024)
    pool = list(enumerate_cubic(10)) + list(enumerate_trees(12, 3))[:28]
    pool += [named(s) for s in ("petersen", "heawood", "tutte_coxeter")]
    pool = pool[:50]
    assert len(pool) == 50
    for g in pool:
        ref = canonical_form(g).bytes
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            rows = [0] * g.n
            for i, j in g.edges():
                rows[perm[i]] |= 1 << perm[j]
                rows[perm[j]] |= 1 << perm[i]
            h = type(g)(g.n, tuple(rows))
            assert canonical_form(h).bytes == ref

    # search outcome independent of worker count
    outcomes = [
        maximize_lambda2(enumerate_cubic(10), threads=k) for k in (1, 2, 8)
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert time.perf_counter() - t0 < 300.0
