"""Shared fixtures, and one PASS/FAIL line per acceptance criterion after the run."""

import os
from fractions import Fraction
from pathlib import Path

import pytest

import algconn

_TITLES = {
    1: "closed-form spectra (star, path, complete bipartite)",
    2: "comparison-matrix spectrum: cosine modes plus exact 6",
    3: "cubic maximizers at n=6 and n=14; 8-cage value",
    4: "girth-bound soundness; diameter-formula comparison",
    5: "tree-bound soundness, exhaustive and random",
    6: "balanced-tree maximizers; certified value; n=23 census",
    7: "K_{2,n-2} optimality, exhaustive n<=10 (Fiedler-reduced at 10)",
    8: "augmentation thresholds and degree outlier",
    9: "consensus decay matches lambda2 within 2%",
    10: "round-trip, canonical invariance, thread invariance",
}


def _laplacian_eigenvalues_below(g, t):
    """Exact number of Laplacian eigenvalues of g strictly below t.

    Sylvester's law of inertia: if L - tI = P D P^T with P unit lower
    triangular, D has as many negative entries as L has eigenvalues below
    t.  The elimination runs without pivoting in Fraction arithmetic on the
    integer Laplacian, so the count is a proof, not an estimate.  A zero
    pivot leaves the count undecided and raises ZeroDivisionError.
    """
    t = Fraction(t)
    n = g.n
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, j in g.edges():
        a[i][j] = a[j][i] = Fraction(-1)
        a[i][i] += 1
        a[j][j] += 1
    for i in range(n):
        a[i][i] -= t
    negative = 0
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            raise ZeroDivisionError(f"zero pivot at row {k} for t = {t}")
        negative += pivot < 0
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / pivot
                for j in range(k + 1, n):
                    if a[k][j]:
                        a[i][j] -= f * a[k][j]
    return negative


@pytest.fixture
def eigenvalues_below():
    """count(g, t): exact number of Laplacian eigenvalues of g below t."""
    return _laplacian_eigenvalues_below


def _unpruned_by_degrees(n, sequences, expanded):
    """The degree-sequence generator with none of its labeling cuts, the
    tail included.

    It closes the same vertex as the generator, written out here on its
    own: the open vertex whose degree in the sequence (remaining capacity
    plus neighbours) is largest, the lowest-labeled one on ties.  Every
    viable partner set among the other open non-neighbours is labeled,
    twins included; a child with at most three open vertices is labeled
    and expanded like any other, not completed in closed form; and every
    final child is labeled with its all-zero capacities, pushed and popped
    like any state.  Each non-final key it expands is appended to
    ``expanded``; the return value is the sorted family.  It calls
    ``_kernels.canon_key`` at run time, so a patched kernel sees its
    inputs.
    """
    import itertools

    from algconn import _kernels, search
    from algconn.graphs import Graph, _decode_key

    finals = []
    for degrees in sequences:
        start = _kernels.canon_key(n, (0,) * n, degrees)
        seen = {start}
        stack = [start]
        while stack:
            key = stack.pop()
            rows, caps = _decode_key(key)
            u, top = None, 0
            for v in range(n):
                degree = caps[v] + bin(rows[v]).count("1")
                if caps[v] and degree > top:
                    u, top = v, degree
            if u is None:
                finals.append(key)
                continue
            expanded.append(key)
            open_others = [
                v for v in range(n) if caps[v] and v != u and not (rows[u] >> v) & 1
            ]
            for partners in itertools.combinations(open_others, caps[u]):
                new_rows = list(rows)
                new_caps = list(caps)
                for p in partners:
                    new_rows[u] |= 1 << p
                    new_rows[p] |= 1 << u
                    new_caps[p] -= 1
                new_caps[u] = 0
                if not search._state_viable(n, new_rows, new_caps):
                    continue
                child = _kernels.canon_key(n, new_rows, new_caps)
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
    return [Graph(n, _decode_key(key)[0]) for key in sorted(finals)]


@pytest.fixture(scope="session")
def unpruned_by_degrees():
    """The reference generator loop: ``f(n, sequences, expanded)``."""
    return _unpruned_by_degrees


@pytest.fixture
def package_pythonpath():
    """PYTHONPATH for a subprocess: the imported package's directory first."""
    src = str(Path(algconn.__file__).resolve().parent.parent)
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                num = int(nodeid.split("test_criterion_")[1][:2])
                rows[num] = "PASS" if outcome == "passed" else "FAIL"
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(rows):
            terminalreporter.write_line(
                f"criterion {num:2d}: {rows[num]}  {_TITLES.get(num, '')}"
            )
