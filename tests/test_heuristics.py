"""Greedy spectral edge augmentation and the family comparison table."""

import numpy as np
import pytest

from algconn.augment import (
    AugmentationTrace,
    FamilyComparison,
    compare_families,
    edge_augmentation,
    largest_bipartite_part,
)
from algconn.graphs import is_connected
from algconn.spectral import algebraic_connectivity


def test_trivial_trace():
    tr = edge_augmentation(2, 1)
    assert isinstance(tr, AugmentationTrace)
    assert tr.steps == (((0, 1), 2.0),)
    assert tr.final.n == 2 and tr.final.m == 1


def test_augments_to_complete_graph():
    tr = edge_augmentation(4, 6)
    assert len(tr.steps) == 6
    assert tr.final.m == 6
    assert tr.steps[-1][1] == pytest.approx(4.0)  # K_4


def test_recorded_values_match_replay():
    tr = edge_augmentation(8, 16)
    from algconn.graphs import from_edges

    edges = []
    for (i, j), val in tr.steps:
        edges.append((i, j))
        assert val == pytest.approx(
            algebraic_connectivity(from_edges(8, edges)), abs=1e-9
        )
    assert from_edges(8, edges) == tr.final


def test_connectivity_arrives_at_tree_size_then_monotone():
    n, m = 12, 30
    tr = edge_augmentation(n, m)
    vals = [v for _, v in tr.steps]
    # the first n-2 additions leave the graph disconnected, the (n-1)th
    # completes a spanning tree
    assert all(abs(v) <= 1e-9 for v in vals[: n - 2])
    assert vals[n - 2] > 1e-9
    for a, b in zip(vals[n - 2 :], vals[n - 1 :]):
        assert b >= a - 1e-9
    assert is_connected(tr.final)


def _joins_two_components(n, steps):
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for (i, j), _ in steps:
        a, b = find(i), find(j)
        if a == b:
            return False
        root[a] = b
    return True


def test_first_steps_join_two_components():
    # the solver tells disconnected steps by the edge count alone: each of
    # the first n - 1 greedy edges must join two components
    for n in [*range(2, 41), 120]:
        assert _joins_two_components(n, edge_augmentation(n, n - 1).steps), n


def test_first_steps_join_two_components_whatever_the_kernel_basis(monkeypatch):
    # an eigensolver whose kernel vector comes out near-constant: the second
    # column is 1/sqrt(n) plus 1e-12 of seeded noise, so |v_i - v_j| no
    # longer tells components apart and only the component labels do
    rng = np.random.default_rng(31)
    eigh = np.linalg.eigh

    def near_constant(a):
        vals, vecs = eigh(a)
        k = len(a)
        vecs[:, 1] = 1 / np.sqrt(k) + 1e-12 * rng.standard_normal(k)
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", near_constant)
    for n in (3, 4, 7, 12, 30, 60):
        steps = edge_augmentation(n, n - 1).steps
        assert _joins_two_components(n, steps), n
        assert [lam2 for _, lam2 in steps[:-1]] == [0.0] * (n - 2)
        assert steps[-1][1] > 0


def _count_solves(monkeypatch, n=None):
    # eigh on an n x n matrix is a dense solve; the warm solver's
    # Rayleigh-Ritz problems, at most (n - 1) x (n - 1), count as "ritz";
    # "inv" counts the inverses it builds
    calls = {"eigh": 0, "eigvalsh": 0, "ritz": 0, "inv": 0}
    for name in ("eigh", "eigvalsh", "inv"):

        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            small = _name == "eigh" and n is not None and len(a) < n
            calls["ritz" if small else _name] += 1
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_one_eigendecomposition_per_step(monkeypatch):
    # n dense solves while the graph is disconnected, the last of them on
    # the step that connects it; after that the warm solver needs none
    calls = _count_solves(monkeypatch, n=12)
    edge_augmentation(12, 30)
    assert calls["eigh"] == 12 and calls["eigvalsh"] == 0
    assert calls["ritz"] >= 30 - 11  # at least one iteration per warm step


@pytest.mark.parametrize("n", [3, 12, 30])
def test_warm_solver_seeds_lazily(monkeypatch, n):
    # the connecting step's eigh seeds M^-1 only when the next edge comes
    calls = _count_solves(monkeypatch, n=n)
    edge_augmentation(n, n - 1)
    assert calls["eigh"] == n and calls["inv"] == 0
    edge_augmentation(n, n)
    assert calls["eigh"] == 2 * n and calls["inv"] == 1


def _replay(n, steps):
    """Check a trace against dense eigh on every prefix.

    A row with fewer than n - 1 edges reports 0.0; any other agrees with
    dense eigh to 1e-11 relative.  Where lambda_3 - lambda_2 > 1e-6 the next
    pair is within 1e-9 of the largest |v_i - v_j| over the non-edges.
    """
    L = np.zeros((n, n))
    for k, ((i, j), lam) in enumerate(steps):
        L[i, j] = L[j, i] = -1.0
        L[i, i] += 1.0
        L[j, j] += 1.0
        vals, vecs = np.linalg.eigh(L)
        if k < n - 2:
            assert lam == 0.0 and abs(vals[1]) <= 1e-9
        else:
            assert abs(lam - vals[1]) <= 1e-11 * vals[1], (k, lam, vals[1])
        if k + 1 == len(steps) or vals[2] - vals[1] <= 1e-6:
            continue
        v = vecs[:, 1]
        diff = np.abs(v[:, None] - v[None, :])
        diff[np.tril_indices(n)] = -1.0
        diff[L < 0] = -1.0
        a, b = steps[k + 1][0]
        assert diff[a, b] >= diff.max() - 1e-9, (k, (a, b))


@pytest.mark.parametrize(
    "n, m", [(2, 1), (4, 6), (5, 10), (12, 30), (30, 120), (60, 300)]
)
def test_warm_trace_replays_against_dense_eigh(monkeypatch, n, m):
    # below n = 17 the Krylov basis would pass n - 1 columns; it is cut to
    # fit, so every Rayleigh-Ritz problem stays smaller than n
    calls = _count_solves(monkeypatch, n=n)
    tr = edge_augmentation(n, m)
    assert calls["eigh"] == n  # no rescue
    monkeypatch.undo()
    _replay(n, tr.steps)


def test_warm_solver_rescue(monkeypatch):
    # the first certificate fails: that step takes a dense eigh instead, and
    # the warm solver starts again from it
    n, m = 30, 120
    cholesky = np.linalg.cholesky
    failed = []

    def fail_once(a):
        if not failed:
            failed.append(len(a))
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a)

    calls = _count_solves(monkeypatch, n=n)
    monkeypatch.setattr(np.linalg, "cholesky", fail_once)
    tr = edge_augmentation(n, m)
    assert failed == [n] and calls["eigh"] == n + 1
    monkeypatch.undo()
    _replay(n, tr.steps)


def test_no_duplicate_edges_and_determinism():
    tr1 = edge_augmentation(10, 25)
    tr2 = edge_augmentation(10, 25)
    assert tr1 == tr2
    pairs = [e for e, _ in tr1.steps]
    assert len(pairs) == len(set(pairs)) == 25
    assert all(0 <= i < j < 10 for i, j in pairs)


def test_degree_concentration():
    # the greedy rule keeps gluing the far ends of the second eigenvector
    # onto a hub, producing a star-like core
    tr = edge_augmentation(30, 120)
    degs = sorted(tr.final.degree(v) for v in range(30))
    assert degs[-1] >= 3 * float(np.median(degs))


def test_augmentation_rejects_bad_input(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError):
        edge_augmentation(1, 0)
    with pytest.raises(ValueError):
        edge_augmentation(4, 7)
    # past MAX_VERTICES the call fails before any Laplacian is built or solved
    for n, m in ((4097, 0), (100000, 1)):
        with pytest.raises(ValueError, match="vertex count"):
            edge_augmentation(n, m)
    with pytest.raises(ValueError, match="vertex count"):
        compare_families(4097, [4096])
    assert calls == {"eigh": 0, "eigvalsh": 0, "ritz": 0, "inv": 0}


def test_largest_bipartite_part():
    assert largest_bipartite_part(10, 24) == 4  # 4*6 = 24, 5*5 = 25 > 24
    assert largest_bipartite_part(10, 25) == 5
    assert largest_bipartite_part(10, 9) == 1
    assert largest_bipartite_part(2, 1) == 1
    with pytest.raises(ValueError):
        largest_bipartite_part(10, 8)


def test_compare_families_rows():
    cmp = compare_families(20, [40, 64])
    assert isinstance(cmp, FamilyComparison) and cmp.n == 20
    r40, r64 = cmp.rows
    # m = 40: 2m/n = 4 is an integer, so the regular column is populated
    assert r40.m == 40 and r40.regular_d == 4
    assert r40.regular_reference == pytest.approx(4 - 2 * np.sqrt(3))
    assert r40.regular_min <= r40.regular_mean <= r40.regular_max
    assert r40.bipartite_b == 2 and r40.bipartite == 2.0
    assert r40.note == ""
    # m = 64: 2m/n = 6.4 is not, so it is skipped and flagged
    assert r64.regular_d is None and r64.regular_mean is None
    assert "not an integer" in r64.note
    assert r64.bipartite_b == 4 and r64.bipartite == 4.0
    assert r64.augmented > 0


def test_compare_families_reads_one_trace(monkeypatch):
    # the trace to m edges is a prefix of the trace to the largest budget,
    # so one trace, with its n dense solves, answers every budget
    n, budgets = 14, [20, 13, 28, 21]
    calls = _count_solves(monkeypatch, n=n)
    cmp = compare_families(n, budgets)
    assert calls["eigh"] == n
    for row in cmp.rows:
        alone = edge_augmentation(n, row.m).steps[-1][1]
        assert row.augmented.hex() == alone.hex()


def test_compare_families_skips_dense_regular():
    # the column stops at d = 6 for every n: from n = 15 on, d = 7 draws a
    # 7-regular graph, which the pairing model restarts about e^12 times
    for n, m in ((9, 36), (10, 40)):
        (row,) = compare_families(n, [m]).rows
        assert row.regular_d is None and row.regular_mean is None
        assert row.note == "2m/n >= 7; regular column skipped"
    (row,) = compare_families(9, [27]).rows  # d = 6 is still sampled
    assert row.regular_d == 6 and row.note == ""


def test_compare_families_reports_disconnected_draws_as_zero():
    # seeds 5 and 7 of random_regular(10, 2, seed) are disconnected; their
    # lambda_2 is 0.0, not the eigensolver's -6.4e-17
    (row,) = compare_families(10, [10]).rows
    assert row.regular_d == 2
    assert row.regular_min == 0.0
    assert row.regular_min.hex() == "0x0.0p+0"


def test_compare_families_rejects_bad_budgets():
    with pytest.raises(ValueError):
        compare_families(20, [18])  # cannot connect 20 vertices
    with pytest.raises(ValueError):
        compare_families(5, [11])
    with pytest.raises(ValueError):
        compare_families(1, [0])
