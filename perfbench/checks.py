"""Checks on the output of each benchmark workload.

Every check here rests on networkx, numpy, OEIS counts or a property the
method must have (the paper's girth bound, monotone augmentation, the greedy
choice).  None of it imports algconn, and none compares against a stored copy
of algconn's output.  The seed picks the random samples the checks draw; the
workload commands themselves are fixed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import networkx as nx
import numpy as np

from workloads import AUGMENT_STEPS, CUBIC_N14, K2_N9, TREES_N20_D3

TOL = 1e-9


class CheckFailed(Exception):
    """The workload's output is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _graph6(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.encode("ascii"))


def _laplacian(g: nx.Graph) -> np.ndarray:
    a = nx.to_numpy_array(g, nodelist=sorted(g))
    return np.diag(a.sum(axis=1)) - a


def _lambda2(g: nx.Graph) -> float:
    return float(np.linalg.eigvalsh(_laplacian(g))[1])


def _json_results(out: bytes) -> dict:
    lines = out.decode("ascii").splitlines()
    _require(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])["results"]


# ---------------------------------------------------------------------------
# trees-n20-d3
# ---------------------------------------------------------------------------


def _random_tree_laplacians(rng: random.Random, n: int, d: int, k: int) -> np.ndarray:
    """k random trees on n vertices with degrees <= d, as Laplacian stack.

    Vertex v joins a uniformly chosen earlier vertex that still has room, so
    the sample covers paths, caterpillars and bushy trees alike.
    """
    out = np.zeros((k, n, n))
    for t in range(k):
        deg = [0] * n
        for v in range(1, n):
            u = rng.choice([w for w in range(v) if deg[w] < d])
            deg[u] += 1
            deg[v] += 1
            out[t, u, v] = out[t, v, u] = -1.0
        out[t][np.diag_indices(n)] = deg
    return out


def check_trees(out: bytes, code: int, seed: int) -> None:
    n, d = 20, 3
    res = _json_results(out)
    _require(res["enumerated"] == TREES_N20_D3, f"enumerated {res['enumerated']}")
    best = res["best_lambda2"]
    _require(len(res["maximizers"]) >= 1, "no maximizer")
    for s in res["maximizers"]:
        g = _graph6(s)
        _require(g.number_of_nodes() == n and nx.is_tree(g), f"{s} is not a tree on {n}")
        _require(max(dict(g.degree).values()) <= d, f"{s} has degree > {d}")
        lam = _lambda2(g)
        _require(abs(lam - best) <= TOL, f"{s}: lambda2 {lam} vs best {best}")
    sample = np.linalg.eigvalsh(_random_tree_laplacians(random.Random(seed), n, d, 3000))
    worst = float(sample[:, 1].max())
    _require(worst <= best + TOL, f"a random tree has lambda2 {worst} > {best}")


# ---------------------------------------------------------------------------
# cubic-n14
# ---------------------------------------------------------------------------


def girth_bound(g: int) -> float:
    """The paper's bound 3 - 2^(3/2) cos(pi / floor(g/2)) for cubic graphs."""
    return 3.0 - 2.0**1.5 * math.cos(math.pi / (g // 2))


def check_cubic(out: bytes, code: int, seed: int) -> None:
    n = 14
    lines = out.decode("ascii").splitlines()
    _require(len(lines) == CUBIC_N14, f"{len(lines)} graphs, expected {CUBIC_N14}")
    graphs = [_graph6(s) for s in lines]
    buckets: dict[tuple, list[nx.Graph]] = {}
    attainers = []
    for s, g in zip(lines, graphs):
        _require(g.number_of_nodes() == n, f"{s}: {g.number_of_nodes()} vertices")
        _require(set(dict(g.degree).values()) == {3}, f"{s} is not 3-regular")
        _require(nx.is_connected(g), f"{s} is disconnected")
        spec = np.linalg.eigvalsh(_laplacian(g))
        # the Laplacian spectrum separates all but a few cospectral pairs
        buckets.setdefault(tuple(np.round(spec, 6)), []).append(g)
        margin = spec[1] - girth_bound(nx.girth(g))
        _require(margin <= TOL, f"{s} exceeds the girth bound by {margin}")
        if abs(margin) <= TOL:
            attainers.append(g)
    for group in buckets.values():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                _require(not nx.is_isomorphic(group[a], group[b]), "duplicate graph")
    _require(len(attainers) == 1, f"{len(attainers)} graphs attain the bound")
    _require(nx.is_isomorphic(attainers[0], nx.heawood_graph()), "attainer is not Heawood")


# ---------------------------------------------------------------------------
# k2-n9
# ---------------------------------------------------------------------------


def check_k2(out: bytes, code: int, seed: int) -> None:
    n, m = 9, 14
    _require(code == 0, f"exit code {code}")
    res = _json_results(out)
    _require(res["passed"] is True and res["exhaustive"] is True, "not an exhaustive PASS")
    _require(res["checked"] == K2_N9, f"checked {res['checked']}, expected {K2_N9}")
    k2 = nx.complete_bipartite_graph(2, n - 2)
    hits = 0
    for s in res["witnesses"]:
        g = _graph6(s)
        _require(g.number_of_nodes() == n and g.number_of_edges() == m, f"{s}: wrong size")
        _require(nx.is_connected(g) and min(dict(g.degree).values()) >= 2, f"{s}: not in the family")
        lam = _lambda2(g)
        _require(abs(lam - 2.0) <= TOL, f"{s}: lambda2 {lam} is not 2")
        hits += nx.is_isomorphic(g, k2)
    _require(hits == 1, f"{hits} witnesses are K_(2,{n - 2})")


# ---------------------------------------------------------------------------
# augment-n200
# ---------------------------------------------------------------------------


def check_augment(out: bytes, code: int, seed: int) -> None:
    n, m = 200, AUGMENT_STEPS
    rows = list(csv.reader(io.StringIO(out.decode("ascii"))))
    _require(rows[0] == ["step", "i", "j", "lambda2"], f"header {rows[0]}")
    rows = rows[1:]
    _require(len(rows) == m, f"{len(rows)} rows, expected {m}")
    pairs = [(int(i), int(j)) for _, i, j, _ in rows]
    texts = [r[3] for r in rows]
    lam = [float(t) for t in texts]
    _require([int(r[0]) for r in rows] == list(range(1, m + 1)), "steps are not 1..m")
    _require(all(0 <= i < j < n for i, j in pairs), "pair out of range")
    _require(len(set(pairs)) == m, "a pair repeats")
    for k in range(1, m):
        if lam[k - 1] > TOL:
            _require(lam[k] >= lam[k - 1] - TOL, f"lambda2 drops at step {k + 1}")
    connected = [k for k in range(m) if lam[k] > 1e-6]
    _require(bool(connected), "the graph never becomes connected")
    rng = random.Random(seed)
    # prefix lengths: the final graph and a few seeded ones after connection
    for k in sorted({m} | {rng.choice(connected) + 1 for _ in range(4)}):
        L = np.zeros((n, n))
        for i, j in pairs[:k]:
            L[i, j] = L[j, i] = -1.0
            L[i, i] += 1.0
            L[j, j] += 1.0
        vals, vecs = np.linalg.eigh(L)
        got = lam[k - 1]
        _require(abs(vals[1] - got) <= 1e-11 * abs(got), f"step {k}: {vals[1]!r} vs {texts[k - 1]}")
        if k == m or vals[2] - vals[1] <= 1e-6:
            continue
        # greedy choice: the next pair maximizes |v_i - v_j| over non-edges
        v = vecs[:, 1]
        diff = np.abs(v[:, None] - v[None, :])
        diff[np.tril_indices(n)] = -1.0
        diff[L < 0] = -1.0
        i, j = pairs[k]
        _require(diff[i, j] >= diff.max() - TOL, f"step {k + 1} is not the greedy pair")


CHECKS = {
    "trees-n20-d3": check_trees,
    "cubic-n14": check_cubic,
    "k2-n9": check_k2,
    "augment-n200": check_augment,
}
