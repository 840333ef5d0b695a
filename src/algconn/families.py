"""Deterministic graph families, named graphs, and seeded random models."""

from __future__ import annotations

import itertools
import random

from .graphs import (
    MAX_VERTICES,
    Graph,
    degree_sequence,
    from_edges,
    girth,
    is_connected,
)


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Center 0 joined to n-1 leaves."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return from_edges(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(n: int, b: int) -> Graph:
    """K_{b, n-b} with parts {0..b-1} and {b..n-1}."""
    if not 1 <= b < n:
        raise ValueError("complete_bipartite needs 1 <= b < n")
    return from_edges(n, [(i, j) for i in range(b) for j in range(b, n)])


def bethe_tree(d: int, K: int) -> Graph:
    """Rooted tree: root of degree d, K generations, every interior vertex
    of degree d.  Leaves sit at distance K from the root;
    n = 1 + d ((d-1)^K - 1) / (d - 2)."""
    if d < 3:
        raise ValueError("bethe_tree needs d >= 3")
    if K < 1:
        raise ValueError("bethe_tree needs K >= 1")
    n, width = 1, d
    for _ in range(K):  # count the levels before building any
        n += width
        if n > MAX_VERTICES:
            raise ValueError(f"bethe_tree({d}, {K}) exceeds {MAX_VERTICES} vertices")
        width *= d - 1
    edges = []
    level = [0]
    nxt_id = 1
    for depth in range(K):
        width = d if depth == 0 else d - 1
        new_level = []
        for v in level:
            for _ in range(width):
                edges.append((v, nxt_id))
                new_level.append(nxt_id)
                nxt_id += 1
        level = new_level
    return from_edges(nxt_id, edges)


def double_binary_tree(K: int) -> Graph:
    """Two complete binary trees of height K-1 (2^K - 1 vertices each) with
    their roots joined by an edge; n = 2^(K+1) - 2."""
    if K < 1:
        raise ValueError("double_binary_tree needs K >= 1")
    half = (1 << K) - 1
    edges = [(0, half)]
    for off in (0, half):
        for i in range(half):
            for c in (2 * i + 1, 2 * i + 2):
                if c < half:
                    edges.append((off + i, off + c))
    return from_edges(2 * half, edges)


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------


def _petersen() -> Graph:
    # Kneser graph K(5,2): 2-subsets of a 5-set, adjacent when disjoint
    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (idx[p], idx[q])
        for p, q in itertools.combinations(pairs, 2)
        if not set(p) & set(q)
    ]
    return from_edges(10, edges)


def _heawood() -> Graph:
    # incidence graph of the Fano plane with lines {i, i+1, i+3} mod 7:
    # vertices 0..6 are points, 7..13 are lines
    edges = []
    for line in range(7):
        for off in (0, 1, 3):
            edges.append(((line + off) % 7, 7 + line))
    return from_edges(14, edges)


def _tutte_coxeter() -> Graph:
    # incidence graph of duads vs synthemes on 6 symbols: vertices 0..14 are
    # the 2-subsets, 15..29 the perfect matchings of K_6, joined by containment
    duads = list(itertools.combinations(range(6), 2))
    idx = {d: i for i, d in enumerate(duads)}

    # matchings of an even symbol set: pair off the smallest symbol, recurse
    def matchings(symbols):
        if not symbols:
            yield ()
            return
        first = symbols[0]
        for j in range(1, len(symbols)):
            pair = (first, symbols[j])
            rest = symbols[1:j] + symbols[j + 1 :]
            for tail in matchings(rest):
                yield (pair,) + tail

    synthemes = list(matchings(tuple(range(6))))
    edges = []
    for s, syn in enumerate(synthemes):
        for pair in syn:
            edges.append((idx[pair], 15 + s))
    return from_edges(30, edges)


# name -> (builder, n, m, regular degree, girth)
_NAMED = {
    "petersen": (_petersen, 10, 15, 3, 5),
    "heawood": (_heawood, 14, 21, 3, 6),
    "tutte_coxeter": (_tutte_coxeter, 30, 45, 3, 8),
}

_named_cache: dict[str, Graph] = {}


def named(name: str) -> Graph:
    """One of the named graphs: petersen, heawood, tutte_coxeter."""
    if name not in _NAMED:
        raise ValueError(
            f"unknown graph {name!r}; known: {', '.join(sorted(_NAMED))}"
        )
    if name not in _named_cache:
        builder, n, m, deg, g6 = _NAMED[name]
        g = builder()
        if (
            g.n != n
            or g.m != m
            or degree_sequence(g) != (deg,) * n
            or not is_connected(g)
            or girth(g) != g6
        ):
            raise AssertionError(f"construction of {name} violates its invariants")
        _named_cache[name] = g
    return _named_cache[name]


def named_graph_names() -> tuple[str, ...]:
    return tuple(sorted(_NAMED))


# ---------------------------------------------------------------------------
# seeded random models
# ---------------------------------------------------------------------------


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform d-regular graph by the pairing model, drawn on the sparse side.

    d stubs per vertex are shuffled and paired; any self-loop or repeated
    edge triggers a full restart, so the result is exactly d-regular.  When
    2d > n - 1 the (n - 1 - d)-regular graph of the same seed is drawn
    instead and its complement returned: complementing is a bijection
    between the labeled graphs of the two degrees, so the draw stays
    uniform, and the pairing model restarts far less often on the sparse
    side (about e^((k^2 - 1) / 4) times a graph of degree k; Bender &
    Canfield, 1978).
    A dense draw (2d >= n) is always connected; a sparse one may not be
    (rare for d >= 3).  Deterministic in the seed.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    if d >= n:
        raise ValueError("degree must be below n")
    if (n * d) % 2:
        raise ValueError("n * d must be even")
    if 2 * d > n - 1:
        sparse = random_regular(n, n - 1 - d, seed)
        full = (1 << n) - 1
        return Graph(n, (full ^ row ^ (1 << v) for v, row in enumerate(sparse.rows)))
    rng = random.Random(seed)
    stubs0 = [v for v in range(n) for _ in range(d)]
    while True:
        stubs = stubs0[:]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b:
                ok = False
                break
            key = (a, b) if a < b else (b, a)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            return from_edges(n, sorted(edges))


def random_tree(n: int, d_max: int, seed: int) -> Graph:
    """Random labeled tree grown by attachment, respecting a degree cap."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n >= 3 and d_max < 2:
        raise ValueError("d_max >= 2 required once n >= 3")
    rng = random.Random(seed)
    deg = [0] * n
    edges = []
    for v in range(1, n):
        candidates = [u for u in range(v) if deg[u] < d_max]
        if not candidates:
            raise ValueError("degree cap too tight to grow the tree")
        u = rng.choice(candidates)
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return from_edges(n, edges)
