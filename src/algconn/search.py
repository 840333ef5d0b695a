"""Exhaustive enumeration and connectivity maximization over graph families.

Trees come from a constant-amortized-time successor over canonical level
sequences.  Cubic graphs and fixed-edge-count graphs are generated by
closing one vertex (resp. adding one edge) at a time.  A partial state is
held as its canonical key (``canon_key`` bytes, with the remaining-capacity
counts as colours for cubic states): the key's tail is the canonically
relabeled adjacency, so one canonical labeling per candidate both
deduplicates the state and gives the rows it is expanded from, and each
isomorphism class of partial states is expanded once.  Keys of one family
have fixed-width big-endian rows, so sorting keys sorts the graphs by their
canonical rows.

One sweep serves every check: the maximizer, the exhaustive and sampled
conjecture checks and the cubic attainment check all take their lambda2
values from ``_sweep``, which solves a family chunk by chunk through the
batched eigensolver and yields the values in family order.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import _kernels
from .bounds import tk_bound
from .families import bethe_tree, complete_bipartite, named, random_tree
from .graphs import (
    Graph,
    _bits,
    _canonical_graph,
    _components,
    _decode_key,
    from_edges,
    graph6_decode,
    graph6_encode,
    is_connected,
)
from .spectral import algebraic_connectivity, batched_lambda2, laplacian_stack
from .treetools import is_well_balanced

TREE_MAX_N = 24
CUBIC_MAX_N = 14
GRAPH_MAX_N = 10

_CHUNK = 1024

# draws of a sampled conjecture check, for the library and the CLI alike
DEFAULT_SAMPLES = 200


@dataclass(frozen=True)
class SearchOutcome:
    """Result of maximizing connectivity over a finite family."""

    family: str
    enumerated: int
    best_lambda2: float
    maximizers: tuple[str, ...]  # canonical graph6, sorted


@dataclass(frozen=True)
class ConjectureReport:
    """One verification run: what was checked, over what, and the verdict.

    witnesses holds canonical graph6 strings: the maximizers/attainers on
    PASS, the violating graphs on FAIL.
    """

    name: str
    params: dict
    exhaustive: bool
    checked: int
    passed: bool
    detail: str
    witnesses: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# tree enumeration
# ---------------------------------------------------------------------------


def _layout_to_graph(layout: tuple[int, ...]) -> Graph:
    # level sequence -> tree: each vertex attaches to the latest shallower one
    n = len(layout)
    rows = [0] * n
    stack = [0]
    for i in range(1, n):
        lev = layout[i]
        parent = stack[lev - 1]
        rows[parent] |= 1 << i
        rows[i] |= 1 << parent
        if lev == len(stack):
            stack.append(i)
        else:
            stack[lev] = i
    return Graph(n, rows)


def _tree_family_nonempty(n: int, d_max: int) -> bool:
    # the argument check of enumerate_trees and count_trees
    if not 1 <= n <= TREE_MAX_N:
        raise ValueError(f"tree enumeration supports 1 <= n <= {TREE_MAX_N}")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    return n <= 2 or d_max >= 2


def enumerate_trees(n: int, d_max: int) -> Iterator[Graph]:
    """All unlabeled trees on n vertices with maximum degree <= d_max."""
    if _tree_family_nonempty(n, d_max):
        for layout in _kernels.free_tree_layouts(n, d_max):
            yield _layout_to_graph(layout)


def count_trees(n: int, d_max: int) -> int:
    """Number of unlabeled trees on n vertices with max degree <= d_max."""
    if _tree_family_nonempty(n, d_max):
        return _kernels.count_free_trees(n, d_max)
    return 0


# ---------------------------------------------------------------------------
# cubic graph enumeration
# ---------------------------------------------------------------------------


def _cubic_state_viable(n: int, rows, caps) -> bool:
    # every open vertex needs enough open non-neighbors to finish
    open_mask = 0
    for v in range(n):
        if caps[v]:
            open_mask |= 1 << v
    for v in range(n):
        c = caps[v]
        if c and (open_mask & ~rows[v] & ~(1 << v)).bit_count() < c:
            return False
    # components must either be open or be the whole graph, and there must
    # be enough capacity left to merge them all
    comps = _components(rows, (1 << n) - 1)
    if len(comps) > 1:
        total_open = 0
        for comp in comps:
            comp_cap = sum(caps[v] for v in range(n) if (comp >> v) & 1)
            if comp_cap == 0:
                return False
            total_open += comp_cap
        if total_open < 2 * (len(comps) - 1):
            return False
    return True


def enumerate_cubic(n: int) -> Iterator[Graph]:
    """All connected 3-regular graphs on n vertices, canonically ordered.

    Partial states carry a per-vertex remaining-degree count; expanding a
    state closes its first open vertex against every viable set of partners.
    A state is its canon_key with the capacity counts as colours: the key's
    colour bytes are the canonical capacities and its tail the canonical
    rows, so isomorphic partials collapse and each final graph appears
    exactly once.
    """
    if n % 2 or not 4 <= n <= CUBIC_MAX_N:
        raise ValueError(f"cubic enumeration supports even 4 <= n <= {CUBIC_MAX_N}")
    start = _kernels.canon_key(n, (0,) * n, (3,) * n)
    seen = {start}
    stack = [start]
    finals = []
    while stack:
        key = stack.pop()
        rows, caps = _decode_key(key)
        u = next((v for v in range(n) if caps[v]), -1)
        if u < 0:
            if is_connected(Graph(n, rows)):
                finals.append(key)
            continue
        open_others = [
            v
            for v in range(n)
            if v != u and caps[v] and not (rows[u] >> v) & 1
        ]
        for partners in itertools.combinations(open_others, caps[u]):
            new_rows = list(rows)
            new_caps = list(caps)
            for p in partners:
                new_rows[u] |= 1 << p
                new_rows[p] |= 1 << u
                new_caps[p] -= 1
            new_caps[u] = 0
            if not _cubic_state_viable(n, new_rows, new_caps):
                continue
            child = _kernels.canon_key(n, new_rows, new_caps)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    for key in sorted(finals):
        yield Graph(n, _decode_key(key)[0])


# ---------------------------------------------------------------------------
# general graph enumeration by edge count
# ---------------------------------------------------------------------------


def enumerate_graphs(n: int, m: int, min_degree: int = 0) -> Iterator[Graph]:
    """All connected graphs with n vertices, m edges, degrees >= min_degree.

    Edges are added one level at a time; each level is the set of canon_keys
    of the partial graphs that can still reach the degree floor and
    connectivity with the edges left.
    """
    if not 1 <= n <= GRAPH_MAX_N:
        raise ValueError(f"graph enumeration supports 1 <= n <= {GRAPH_MAX_N}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError("edge count out of range")
    if min_degree < 0 or (min_degree > 0 and m * 2 < n * min_degree):
        raise ValueError("degree floor infeasible for this edge count")
    full = (1 << n) - 1
    level = {_kernels.canon_key(n, (0,) * n)}
    for k in range(m):
        remaining = m - k - 1
        nxt = set()
        for key in level:
            rows, _ = _decode_key(key)
            # an edge lowers the degree deficit by one at each short end,
            # and the component count by one when it joins two components
            short = [r.bit_count() < min_degree for r in rows]
            deficit = sum(max(0, min_degree - r.bit_count()) for r in rows)
            comps = _components(rows, full)
            comp_of = [0] * n
            for comp in comps:
                for v in _bits(comp):
                    comp_of[v] = comp
            for i in range(n):
                for j in range(i + 1, n):
                    if (rows[i] >> j) & 1:
                        continue
                    if deficit - short[i] - short[j] > 2 * remaining:
                        continue
                    joins = not (comp_of[i] >> j) & 1
                    if len(comps) - joins - 1 > remaining:
                        continue
                    new_rows = list(rows)
                    new_rows[i] |= 1 << j
                    new_rows[j] |= 1 << i
                    nxt.add(_kernels.canon_key(n, new_rows))
        level = nxt
    for key in sorted(level):
        g = Graph(n, _decode_key(key)[0])
        if is_connected(g) and all(r.bit_count() >= min_degree for r in g.rows):
            yield g


# ---------------------------------------------------------------------------
# maximization
# ---------------------------------------------------------------------------


def resolve_threads(threads: Optional[int] = None) -> int:
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return threads
    env = os.environ.get("ALGCONN_THREADS")
    if env:
        val = int(env)
        if val < 1:
            raise ValueError("ALGCONN_THREADS must be >= 1")
        return val
    return 1


_TIE_TOL = 1e-9


def _sweep(family: Iterable[Graph], threads: int) -> Iterator[tuple[float, Graph]]:
    """(lambda2, graph) for every graph of the family, in family order.

    Graphs are solved in fixed-size chunks through the batched eigensolver,
    one stacked solve per vertex count in a chunk.  Chunks may be solved on
    worker threads; at most threads + 1 are in flight at once, so the
    family is never held in memory whole, and results come back in
    submission order.
    """
    it = iter(family)

    def solve(block):
        if any(g.n < 2 for g in block):
            raise ValueError("lambda2 needs graphs with n >= 2")
        # batch per vertex count: the stacked solver needs equal shapes
        vals = [0.0] * len(block)
        groups: dict[int, list[int]] = {}
        for k, g in enumerate(block):
            groups.setdefault(g.n, []).append(k)
        for idx in groups.values():
            lam2 = batched_lambda2(laplacian_stack([block[k] for k in idx]))
            for k, val in zip(idx, lam2.tolist()):
                vals[k] = val
        return list(zip(vals, block))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        while block := list(itertools.islice(it, _CHUNK)):
            pending.append(pool.submit(solve, block))
            if len(pending) > threads:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()


def maximize_lambda2(
    family: Iterable[Graph], threads: Optional[int] = None, family_name: str = ""
) -> SearchOutcome:
    """Largest algebraic connectivity over a family, with all maximizers.

    The family goes through ``_sweep``.  Ties are resolved by value within
    1e-9 and then by canonical graph6 string, so the outcome is independent
    of thread count.
    """
    total = 0
    best = -math.inf
    candidates = []  # (lambda2, graph) within 1e-9 of the running best
    for val, g in _sweep(family, resolve_threads(threads)):
        total += 1
        if val > best:
            best = val
            candidates = [c for c in candidates if c[0] >= best - _TIE_TOL]
        if val >= best - _TIE_TOL:
            candidates.append((val, g))
    if not total:
        raise ValueError("empty family")
    maximizers = sorted({graph6_encode(_canonical_graph(g)) for _, g in candidates})
    return SearchOutcome(
        family=family_name,
        enumerated=total,
        best_lambda2=best,
        maximizers=tuple(maximizers),
    )


def _sampled_check(
    draws: Iterator[Graph], samples: int, ref_val: float, threads: Optional[int]
) -> tuple[int, float, list[str]]:
    """Sweep the first `samples` draws against a reference value.

    Returns how many graphs were checked, their largest lambda2, and the
    canonical graph6 of every draw that beats ref_val by more than 1e-9.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    checked, top, bad = 0, -math.inf, []
    for val, g in _sweep(itertools.islice(draws, samples), resolve_threads(threads)):
        checked += 1
        top = max(top, val)
        if val > ref_val + _TIE_TOL:
            bad.append(graph6_encode(_canonical_graph(g)))
    return checked, top, bad


# ---------------------------------------------------------------------------
# conjecture verification
# ---------------------------------------------------------------------------


def verify_conjecture_k2(
    n: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: Optional[int] = None,
) -> ConjectureReport:
    """K_{2,n-2} maximizes connectivity among connected graphs with
    m = 2(n-2) edges and minimum degree 2.

    Exhaustive for n <= 9.  At n = 10 the family is too large for the
    enumeration cap, so the check degrades to: the reference value 2 is
    achieved by both K_{2,8} and the Petersen graph, and no seeded random
    member of the family beats it.
    """
    if not 5 <= n <= 10:
        raise ValueError("supported range is 5 <= n <= 10")
    m = 2 * (n - 2)
    ref = complete_bipartite(n, 2)
    ref_val = algebraic_connectivity(ref)  # = 2 for n >= 4
    ref_g6 = graph6_encode(_canonical_graph(ref))
    if n <= 9:
        outcome = maximize_lambda2(
            enumerate_graphs(n, m, min_degree=2),
            threads=threads,
            family_name=f"graphs(n={n}, m={m}, min_degree=2)",
        )
        sound = outcome.best_lambda2 <= ref_val + _TIE_TOL
        hit = ref_g6 in outcome.maximizers
        passed = sound and hit
        witnesses = outcome.maximizers
        detail = (
            f"max lambda2 = {outcome.best_lambda2:.12g} over "
            f"{outcome.enumerated} graphs; reference {ref_val:.12g}; "
            f"K_(2,{n - 2}) among maximizers: {hit}"
        )
        return ConjectureReport(
            name="conjecture_k2",
            params={"n": n, "m": m, "min_degree": 2},
            exhaustive=True,
            checked=outcome.enumerated,
            passed=passed,
            detail=detail,
            witnesses=witnesses,
        )
    # n == 10: sampled mode
    pet = named("petersen")
    pet_val = algebraic_connectivity(pet)
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def draws():
        # rejection sampling: random m-edge graphs, kept when in the family
        while True:
            g = from_edges(n, rng.sample(pairs, m))
            if min(r.bit_count() for r in g.rows) >= 2 and is_connected(g):
                yield g

    checked, top, bad = _sampled_check(draws(), samples, ref_val, threads)
    passed = (
        abs(ref_val - 2.0) <= _TIE_TOL
        and abs(pet_val - 2.0) <= _TIE_TOL
        and not bad
    )
    detail = (
        f"sampled, not exhaustive: {checked} seeded members; sample max "
        f"{top:.12g}; K_(2,8) value {ref_val:.12g}; "
        f"girth-5 cubic value {pet_val:.12g}"
    )
    return ConjectureReport(
        name="conjecture_k2",
        params={"n": n, "m": m, "min_degree": 2, "samples": samples, "seed": seed},
        exhaustive=False,
        checked=checked,
        passed=passed,
        detail=detail,
        witnesses=tuple(bad) if bad else (ref_g6, graph6_encode(_canonical_graph(pet))),
    )


def verify_conjecture_tree2(
    d: int,
    K: int,
    exhaustive: Optional[bool] = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: Optional[int] = None,
) -> ConjectureReport:
    """The balanced d-regular tree of depth K uniquely maximizes
    connectivity among trees of its size with degrees <= d.

    Exhaustive by default for d=3, K<=2 (n=10); at d=3, K=3 (n=22) the
    family of 2.5e5 trees is still enumerable and exhaustive mode may be
    requested explicitly, the default there being a seeded sample.
    """
    ref = bethe_tree(d, K)
    n = ref.n
    if exhaustive is None:
        exhaustive = d == 3 and K <= 2
    if exhaustive and n > TREE_MAX_N:
        raise ValueError(f"exhaustive mode needs n <= {TREE_MAX_N}, got n={n}")
    ref_val = algebraic_connectivity(ref)
    ref_g6 = graph6_encode(_canonical_graph(ref))
    if exhaustive:
        outcome = maximize_lambda2(
            enumerate_trees(n, d),
            threads=threads,
            family_name=f"trees(n={n}, d<={d})",
        )
        unique_bethe = outcome.maximizers == (ref_g6,)
        sound = outcome.best_lambda2 <= ref_val + _TIE_TOL
        balanced = all(
            is_well_balanced(graph6_decode(s)) for s in outcome.maximizers
        )
        passed = sound and unique_bethe and balanced
        detail = (
            f"max lambda2 = {outcome.best_lambda2:.12g} over "
            f"{outcome.enumerated} trees; balanced-tree value {ref_val:.12g}; "
            f"unique maximizer is the balanced tree: {unique_bethe}; "
            f"maximizers well-balanced: {balanced}"
        )
        return ConjectureReport(
            name="conjecture_tree2",
            params={"d": d, "K": K, "n": n},
            exhaustive=True,
            checked=outcome.enumerated,
            passed=passed,
            detail=detail,
            witnesses=outcome.maximizers,
        )
    rng = random.Random(seed)
    draws = (random_tree(n, d, rng.randrange(10**9)) for _ in itertools.count())
    checked, top, bad = _sampled_check(draws, samples, ref_val, threads)
    passed = not bad
    detail = (
        f"sampled, not exhaustive: {checked} seeded trees; sample max "
        f"{top:.12g}; balanced-tree value {ref_val:.12g}"
    )
    return ConjectureReport(
        name="conjecture_tree2",
        params={"d": d, "K": K, "n": n, "samples": samples, "seed": seed},
        exhaustive=False,
        checked=checked,
        passed=passed,
        detail=detail,
        witnesses=tuple(sorted(set(bad))) if bad else (ref_g6,),
    )


def verify_conjecture_cubic(K: int) -> ConjectureReport:
    """The bound 3 - 2 sqrt(2) cos(pi/K) is attained by exactly one cubic
    graph on n = 2^(K+1) - 2 vertices, and no such graph exceeds it."""
    if K not in (2, 3):
        raise ValueError("supported levels are K = 2 and K = 3 (n <= 14)")
    n = 2 ** (K + 1) - 2
    bound = tk_bound(K)
    checked = 0
    attainers = []
    violations = []
    for val, g in _sweep(enumerate_cubic(n), threads=1):
        checked += 1
        if val > bound + _TIE_TOL:
            violations.append(graph6_encode(g))
        elif abs(val - bound) <= 1e-6:
            attainers.append(graph6_encode(g))
    passed = not violations and len(attainers) == 1
    detail = (
        f"{checked} connected cubic graphs on {n} vertices; bound "
        f"{bound:.12g}; attainers: {len(attainers)}; violations: "
        f"{len(violations)}"
    )
    return ConjectureReport(
        name="conjecture_cubic",
        params={"K": K, "n": n},
        exhaustive=True,
        checked=checked,
        passed=passed,
        detail=detail,
        witnesses=tuple(violations) if violations else tuple(attainers),
    )
