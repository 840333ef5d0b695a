"""Exhaustive enumeration and connectivity maximization over graph families.

Trees come from a constant-amortized-time successor over canonical level
sequences; ``count_trees`` counts them with Otter's recurrence instead of
that walk.  Cubic graphs and fixed-edge-count graphs come from one
generator that closes one vertex at a time against a degree sequence: the
cubic family is the sequence (3,)*n, and a fixed-edge-count family is the
union over every degree sequence the edge count and degree floor allow.
Like Havel-Hakimi realization (Hakimi, J. SIAM 10, 1962), it closes the
open vertex of largest degree first, which reaches about half as many
partial states as closing the one with the fewest edges left to place.  A
partial state is held as its canonical key (``canon_key`` bytes, with the
remaining-capacity counts as colours): the key's tail is the canonically
relabeled adjacency, so one canonical labeling per candidate both
deduplicates the state and gives the rows it is expanded from, and each
isomorphism class of partial states is expanded once.  Final keys have
all-zero colours and fixed-width big-endian rows, so sorting them sorts the
graphs by their canonical rows, across degree sequences too.  Each child
with more than three open vertices is labeled once, checked once against
the keys seen and pushed; any other child is finished and filed as a final.
Three exact cuts skip labelings whose outcome is known (McKay & Piperno,
"Practical graph isomorphism, II", 2014; McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): partner sets that differ only by a
swap of twin vertices are tried once; a child with at most three open
vertices has at most one completion, only edges among those vertices being
left, so it is completed in closed form and only the final is labeled; and
a finished regular graph is first labeled with a cheap vertex invariant as
colours, so only a new graph pays for the labeling from one cell.  None
changes a stream.

One sweep serves every check: the maximizer, the exhaustive conjecture
checks, the sampled tree check and the cubic attainment check all take their
lambda2 values from ``_sweep``, which cuts a family into chunks of one vertex
count, solves each chunk with one stacked call of the batched eigensolver,
and yields the values in family order.  ``_sweep``
turns a ``threads`` argument into a worker count through
``resolve_threads``, and every entry point passes its argument on
unchanged; the CLI checks ``--threads`` through the same function when it
parses the option, so the range of a count has one owner.
Each check's range comes from the limit of the family it enumerates: the
tree check sweeps exactly where the tree family is enumerable (n <=
``TREE_MAX_N``) and samples past it, and the K_{2,n-2} and cubic checks stop
at ``GRAPH_MAX_N`` and ``CUBIC_MAX_N``.

Tree maximization solves only the trees that can win.  Each layout of the
tree walk is rooted at a centre, so its height bounds the tree's diameter
from below and the path bound caps its lambda2; ``maximize_trees`` walks
the heights in order and stops at the first one past which no taller tree
can reach the best so far (2,056 of the 52,233 trees at n = 20, d <= 3).
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from . import _kernels
from .bounds import ATTAINED_TOL, _path_bound, tk_bound
from .families import bethe_tree, complete_bipartite, random_tree
from .graphs import (
    CANON_MAX_VERTICES,
    Graph,
    _canonical_graph,
    _components,
    _decode_key,
    graph6_decode,
    graph6_encode,
)
from .spectral import algebraic_connectivity, batched_lambda2, laplacian_stack
from .treetools import canonical_tree, is_well_balanced

TREE_MAX_N = 24
CUBIC_MAX_N = 14
GRAPH_MAX_N = 10

_CHUNK = 1024
# a chunk of more than one graph holds at most this many Laplacian entries,
# those of 1,024 graphs on 64 vertices (32 MiB); graphs past 64 vertices
# come fewer to a chunk
_CHUNK_ENTRIES = _CHUNK * 64 * 64

# draws of a sampled conjecture check, for the library and the CLI alike
DEFAULT_SAMPLES = 200


@dataclass(frozen=True)
class SearchOutcome:
    """Result of maximizing connectivity over a finite family."""

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


def _check_tree_args(n: int, d_max: int) -> None:
    # the argument check of enumerate_trees, count_trees and maximize_trees
    if not 1 <= n <= TREE_MAX_N:
        raise ValueError(f"tree enumeration supports 1 <= n <= {TREE_MAX_N}")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")


def enumerate_trees(n: int, d_max: int) -> Iterator[Graph]:
    """All unlabeled trees on n vertices with maximum degree <= d_max."""
    _check_tree_args(n, d_max)
    return map(_layout_to_graph, _kernels.free_tree_layouts(n, d_max))


def count_trees(n: int, d_max: int) -> int:
    """Number of unlabeled trees on n vertices with max degree <= d_max.

    Otter's count (Ann. Math. 49, 1948; OEIS A000672), with no walk: a tree
    rooted at its one centroid has at most d_max branches of at most (n-1)/2
    vertices, whose vertices have at most d_max-1 children; a tree with two
    centroids is an unordered pair of such branches on n/2 vertices.
    """
    _check_tree_args(n, d_max)
    # forests[s][k]: multisets of k branches on s vertices in all, over the
    # branch sizes folded in so far; j >= 1 of r kinds of branch make
    # C(r+j-1, j), held at picks[j - 1]
    kmax = min(d_max, n - 1)
    forests = [[1] + [0] * kmax] + [[0] * (kmax + 1) for _ in range(n - 1)]
    for t in range(1, (n + 1) // 2):
        rooted = sum(forests[t - 1][:d_max])  # branches on t vertices
        picks = [math.comb(rooted + j - 1, j) for j in range(1, kmax + 1)]
        for s in range(n - 1, t - 1, -1):
            for k in range(kmax, 0, -1):
                for j in range(1, min(k, s // t) + 1):
                    forests[s][k] += forests[s - j * t][k - j] * picks[j - 1]
    free = sum(forests[n - 1])  # one centroid
    if n % 2 == 0:  # two centroids
        free += math.comb(sum(forests[n // 2 - 1][:d_max]) + 1, 2)
    return free


# ---------------------------------------------------------------------------
# graphs with a given degree sequence: cubic graphs and graphs by edge count
# ---------------------------------------------------------------------------


def _state_viable(n: int, rows, caps) -> bool:
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
    return len(comps) == 1 or (
        all(comp & open_mask for comp in comps) and sum(caps) >= 2 * (len(comps) - 1)
    )


def _complete_tail(n: int, rows, caps) -> Optional[list[int]]:
    # the rows of the one completion of a state with one to three open
    # vertices, or None if it has none.  Only edges among the open vertices
    # are left: with three, a, b and c, edge ab is placed
    # (c_a + c_b - c_c) / 2 times, which must be 0, or 1 on a non-edge, and
    # then every cap is used up; with two, the same sum without c_c leaves
    # only caps (1, 1) on a non-edge; one open vertex has no partner
    ends = [v for v in range(n) if caps[v]]
    if len(ends) < 2:
        return None
    total = sum(caps)
    out = list(rows)
    for a, b in itertools.combinations(ends, 2):
        twice = 2 * (caps[a] + caps[b]) - total
        if twice == 2 and not (rows[a] >> b) & 1:
            out[a] |= 1 << b
            out[b] |= 1 << a
        elif twice:
            return None
    return out


def _twin_predecessors(rows, caps, vertices) -> dict:
    # each vertex's predecessor in its twin class among ``vertices``: twins
    # have equal caps and equal rows apart from each other, so swapping two
    # of them is an automorphism of the coloured state
    before = {}
    latest = []  # the last member of each class so far
    for v in vertices:
        for k, w in enumerate(latest):
            if caps[w] == caps[v] and rows[w] & ~(1 << v) == rows[v] & ~(1 << w):
                before[v] = w
                latest[k] = v
                break
        else:
            latest.append(v)
    return before


def _local_colours(n: int, rows) -> tuple[int, ...]:
    # each vertex's rank, from 1, by the size of its radius-2 ball and the
    # triangles through it (each counted twice), both from one pass over
    # its neighbours: a label-free invariant.  Rank 0 is left out, so no
    # such key is ever a final's key
    inv = []
    for v in range(n):
        row = rows[v]
        ball = row | (1 << v)
        triangles = 0
        rest = row
        while rest:
            low = rest & -rest
            w = rows[low.bit_length() - 1]
            ball |= w
            triangles += (w & row).bit_count()
            rest ^= low
        inv.append((ball.bit_count(), triangles))
    rank = {x: k for k, x in enumerate(sorted(set(inv)), 1)}
    return tuple(rank[x] for x in inv)


def _enumerate_by_degrees(
    n: int, sequences: Iterable[tuple[int, ...]]
) -> Iterator[Graph]:
    """The connected graphs of these degree sequences, canonically labeled
    and sorted by canonical rows.

    Partial states carry a per-vertex remaining-degree count; expanding a
    state closes one open vertex u against every viable set of partners.
    A state is its canon_key with the capacity counts as colours: the key's
    colour bytes are the canonical capacities and its tail the canonical
    rows, so isomorphic partials collapse and each final graph appears
    exactly once.  The colours come in ascending order, so the open vertices
    come last.  u is the open vertex of largest degree in the sequence
    (remaining capacity plus neighbours), the first in canonical order on
    ties.  That is a function of the canonical state, so it does not depend
    on labels.  Closing any one vertex against every viable partner set
    reaches every completion, so the family does not depend on the choice,
    only the states on the way do.  u's partners are the other open
    vertices that are not yet its neighbours, on either side of it.  In a
    regular sequence every open vertex has the same degree, so u is the
    first open vertex, the one of smallest remaining capacity.

    Each sequence has its own ``seen`` set.  Each viable child with more
    than three open vertices is keyed once, checked once against ``seen``
    and pushed if new.  Any other viable child is a final, with no edges
    left to place, or stands for its completion (below); the final is
    keyed, checked against ``seen`` and filed in ``finals`` if new.  No
    final is pushed.  Finals have all-zero colours, and with all colours
    equal the canonical labeling is that of the uncoloured graph, so the
    keys of different degree sequences sort together by canonical rows.

    Three cuts skip labelings whose result is known, and change no stream.
    Twin partners (equal caps, equal rows apart from each other) may be
    swapped by an automorphism that fixes the closed vertex, since neither
    twin is u or a neighbour of u.  So a partner set is tried only when it
    takes a prefix of each twin class: the lexicographically first set of
    its orbit, which is the one the full loop would have kept, so the kept
    children come in the same order.

    A child with one to three open vertices has at most one completion, so
    labeling it dedupes nothing that its final's key does not.  Only edges
    among the open vertices are left, and their caps fix each of them: with
    open vertices a, b and c, edge ab is placed (c_a + c_b - c_c) / 2
    times, which must be 0, or 1 on a non-edge.  With two, viability
    already forces caps (1, 1) on a non-edge, and one open vertex is never
    viable.  ``_complete_tail`` places those edges, and the completion is
    keyed and filed as a final; a child with no completion is dropped.  The
    completion is connected with no second viability check: a viable child
    is connected or has at most three components, each holding an open
    vertex, and the edges placed join them, one edge between two open
    vertices, or at least two among three (each cap is at least 1 and the
    caps' sum is even), which form a path through all three.  A state with
    at most three open vertices pushes none with more, so the states with
    more are expanded in the order the full loop expands them.

    And a final of a regular sequence is keyed by its pre-key, the key
    with ``_local_colours`` as colours, which starts refinement from a
    finer partition than one cell; equal pre-keys mean isomorphic graphs,
    so only a new one gets the uncoloured labeling it is filed under.
    Pre-keys share ``seen`` with the state keys, and no state key equals
    one: a pre-key's colours are all at least 1 and its rows d-regular,
    while a state whose colours are all at least 1 has every vertex open,
    so every row of degree below d.
    """
    finals = []
    zeros = (0,) * n
    for degrees in sequences:
        regular = min(degrees) == max(degrees)
        start = _kernels.canon_key(n, zeros, degrees)
        seen = {start}
        stack = [start]
        while stack:
            rows, caps = _decode_key(stack.pop())
            first = caps.count(0)
            u = first
            if not regular:
                # the open vertex of largest degree, the first of them on ties
                degree = [caps[v] + rows[v].bit_count() for v in range(first, n)]
                u += degree.index(max(degree))
            open_others = [
                v for v in range(first, n) if v != u and not (rows[u] >> v) & 1
            ]
            before = _twin_predecessors(rows, caps, open_others)
            for partners in itertools.combinations(open_others, caps[u]):
                if before and any(before.get(p, p) not in partners for p in partners):
                    continue
                new_rows = list(rows)
                new_caps = list(caps)
                for p in partners:
                    new_rows[u] |= 1 << p
                    new_rows[p] |= 1 << u
                    new_caps[p] -= 1
                new_caps[u] = 0
                if not _state_viable(n, new_rows, new_caps):
                    continue
                left = n - new_caps.count(0)
                if left > 3:
                    child = _kernels.canon_key(n, new_rows, new_caps)
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
                    continue
                if left:  # the one completion stands in for the child
                    new_rows = _complete_tail(n, new_rows, new_caps)
                    if new_rows is None:
                        continue
                colours = _local_colours(n, new_rows) if regular else zeros
                child = _kernels.canon_key(n, new_rows, colours)
                if child in seen:
                    continue
                seen.add(child)
                # connected: _state_viable lets no closed component through
                # unless it is the whole graph, and a completion joins the
                # open vertices' components.  A regular final was keyed by
                # its pre-key, so it is filed under its uncoloured key
                if regular:
                    child = _kernels.canon_key(n, new_rows, zeros)
                finals.append(child)
    for key in sorted(finals):
        yield Graph(n, _decode_key(key)[0])


def enumerate_cubic(n: int) -> Iterator[Graph]:
    """All connected 3-regular graphs on n vertices, canonically ordered:
    the degree sequence (3,)*n through ``_enumerate_by_degrees``."""
    if n % 2 or not 4 <= n <= CUBIC_MAX_N:
        raise ValueError(f"cubic enumeration supports even 4 <= n <= {CUBIC_MAX_N}")
    return _enumerate_by_degrees(n, [(3,) * n])


def enumerate_graphs(n: int, m: int, min_degree: int = 0) -> Iterator[Graph]:
    """All connected graphs with n vertices, m edges, degrees >= min_degree.

    Every non-increasing degree sequence with sum 2m and entries in
    [max(min_degree, 1), n - 1] goes through ``_enumerate_by_degrees``.
    Different sequences give non-isomorphic graphs, so each graph comes
    once, canonically labeled, and the union is sorted by canonical rows.
    """
    if not 1 <= n <= GRAPH_MAX_N:
        raise ValueError(f"graph enumeration supports 1 <= n <= {GRAPH_MAX_N}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError("edge count out of range")
    if min_degree < 0 or (min_degree > 0 and m * 2 < n * min_degree):
        raise ValueError("degree floor infeasible for this edge count")
    if n == 1:
        return iter((Graph(1, (0,)),))
    entries = range(n - 1, max(min_degree, 1) - 1, -1)
    sequences = itertools.combinations_with_replacement(entries, n)
    return _enumerate_by_degrees(n, (s for s in sequences if sum(s) == 2 * m))


# ---------------------------------------------------------------------------
# maximization
# ---------------------------------------------------------------------------


# chunks come from one GIL-bound thread and threads + 1 are in flight, so
# more workers would sit idle and hold more of the family in memory
MAX_THREADS = 64


def resolve_threads(threads: Optional[int] = None) -> int:
    """Worker threads for a sweep: the argument, else one per CPU, at most
    ``MAX_THREADS`` either way."""
    if threads is None:
        return min(os.cpu_count() or 1, MAX_THREADS)
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be in 1..{MAX_THREADS}")
    return threads


_TIE_TOL = 1e-9


def _sweep(
    family: Iterable[Graph], threads: Optional[int] = None
) -> Iterator[tuple[float, Graph]]:
    """(lambda2, graph) for every graph of the family, in family order.

    Graphs are solved in chunks, one ``laplacian_stack`` and one
    ``batched_lambda2`` call each.  A chunk holds graphs of one vertex
    count, as the stacked solver needs equal shapes; it ends where the count
    changes, at ``_CHUNK`` graphs, or at the last graph that keeps its
    Laplacians within ``_CHUNK_ENTRIES`` entries (a lone larger graph is a
    chunk by itself).  Chunks may be solved on worker threads, as many as
    ``resolve_threads(threads)`` gives; at most one more chunk than that is
    in flight at once, so the family is never held in memory whole, and
    results come back in submission order.
    """
    threads = resolve_threads(threads)

    def chunks():
        for n, graphs in itertools.groupby(family, key=lambda g: g.n):
            size = max(1, min(_CHUNK, _CHUNK_ENTRIES // (n * n)))
            while block := list(itertools.islice(graphs, size)):
                yield block

    def solve(block):
        if block[0].n < 2:
            raise ValueError("lambda2 needs graphs with n >= 2")
        return list(zip(batched_lambda2(laplacian_stack(block)).tolist(), block))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for block in chunks():
            pending.append(pool.submit(solve, block))
            if len(pending) > threads:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()


def maximize_lambda2(
    family: Iterable[Graph], threads: Optional[int] = None
) -> SearchOutcome:
    """Largest algebraic connectivity over a family, with all maximizers.

    The family goes through ``_sweep``.  Ties are resolved by value within
    1e-9 and then by canonical graph6 string, so the outcome is independent
    of thread count.
    """
    return _best_of(_sweep(family, threads))


def _best_of(solved: Iterable[tuple[float, Graph]]) -> SearchOutcome:
    # the maximizers are every graph within 1e-9 of the final best, in
    # whatever order the pairs arrive
    total = 0
    best = -math.inf
    candidates = []  # (lambda2, graph) within 1e-9 of the running best
    for val, g in solved:
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
        enumerated=total, best_lambda2=best, maximizers=tuple(maximizers)
    )


# below the best so far by this much, a tree cannot tie the best; far wider
# than _TIE_TOL and than the error of a computed lambda2
_HEIGHT_CAP_MARGIN = 1e-6


def maximize_trees(n: int, d_max: int, threads: Optional[int] = None) -> SearchOutcome:
    """``maximize_lambda2(enumerate_trees(n, d_max))``, solving only the
    trees that can reach the maximum.

    A layout of height h is rooted at a centre of its tree, so the tree has
    diameter at least 2h - 1 and lambda2 <= 2 - 2 cos(pi / 2h), the value
    of the path it contains (Grone, Merris & Sunder, SIAM J. Matrix Anal.
    Appl. 11, 1990).  The heights are swept in order, 0, 1, 2, ..., the
    trees of each through one ``_sweep``, and the sweep stops after the
    first height h whose ``_path_bound(2h + 1)``, which bounds every taller
    tree, is below the best so far less ``_HEIGHT_CAP_MARGIN``.  No taller
    tree can be a maximizer or tie one, so the outcome is the full sweep's,
    with ``enumerated`` taken from ``count_trees``.
    """
    _check_tree_args(n, d_max)

    def solved():
        best = -math.inf
        for height in range(n):
            layouts = _kernels.free_tree_layouts(n, d_max, height)
            trees = (_layout_to_graph(t) for t in layouts if max(t) == height)
            for val, g in _sweep(trees, threads):
                best = max(best, val)
                yield val, g
            if _path_bound(2 * height + 1) < best - _HEIGHT_CAP_MARGIN:
                return

    outcome = _best_of(solved())
    return replace(outcome, enumerated=count_trees(n, d_max))


# ---------------------------------------------------------------------------
# conjecture verification
# ---------------------------------------------------------------------------


def verify_conjecture_k2(n: int, threads: Optional[int] = None) -> ConjectureReport:
    """K_{2,n-2} maximizes connectivity among connected graphs with
    m = 2(n-2) edges and minimum degree 2.

    Exhaustive for every supported n.  For n <= 9 the whole family is
    solved (5,553 graphs at n = 9).  At n = 10 the family has 77,898
    graphs, but for a non-complete graph lambda2 <= vertex connectivity <=
    minimum degree (M. Fiedler, "Algebraic connectivity of graphs", Czech.
    Math. J. 23, 1973), so no member of minimum degree 2 exceeds
    lambda2(K_{2,8}) = 2.  Only the members of minimum degree >= 3 are
    solved there, with K_{2,8} beside them.  The witnesses are then K_{2,8}
    and the minimum-degree-3 graphs that tie it; members of minimum degree 2
    that also reach 2 are not listed.
    """
    if not 5 <= n <= GRAPH_MAX_N:
        raise ValueError(f"supported range is 5 <= n <= {GRAPH_MAX_N}")
    m = 2 * (n - 2)
    floor = 2 if n <= 9 else 3
    ref = complete_bipartite(n, 2)
    ref_val = algebraic_connectivity(ref)  # = 2 for n >= 4
    ref_g6 = graph6_encode(_canonical_graph(ref))
    # above a floor of 2 the reference is not a member: sweep it beside them
    extra = [ref] if floor > 2 else []
    family = itertools.chain(extra, enumerate_graphs(n, m, floor))
    outcome = maximize_lambda2(family, threads=threads)
    checked = outcome.enumerated - len(extra)
    sound = outcome.best_lambda2 <= ref_val + _TIE_TOL
    hit = ref_g6 in outcome.maximizers
    over = f"{checked} graphs"
    if floor > 2:
        over = (
            f"K_(2,{n - 2}) and the {checked} members of minimum degree >= 3 "
            f"(Fiedler: lambda2 <= minimum degree, so no member of minimum "
            f"degree 2 exceeds 2)"
        )
    detail = (
        f"max lambda2 = {outcome.best_lambda2:.12g} over {over}; "
        f"reference {ref_val:.12g}; K_(2,{n - 2}) among maximizers: {hit}"
    )
    return ConjectureReport(
        name="conjecture_k2",
        params={"n": n, "m": m, "min_degree": floor},
        exhaustive=True,
        checked=checked,
        passed=sound and hit,
        detail=detail,
        witnesses=outcome.maximizers,
    )


def _tree_g6(t: Graph) -> str:
    # canonical graph6 of a tree of any size the families build
    if t.n > CANON_MAX_VERTICES:
        return graph6_encode(canonical_tree(t))
    return graph6_encode(_canonical_graph(t))


def verify_conjecture_tree2(
    d: int,
    K: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: Optional[int] = None,
) -> ConjectureReport:
    """The balanced d-regular tree of depth K uniquely maximizes
    connectivity among trees of its size with degrees <= d.

    Exhaustive wherever the tree family is enumerable (n <= TREE_MAX_N:
    the stars up to d = 23, and (d, K) = (3, 2), (4, 2) and (3, 3), the
    last over 254,371 trees); past it, a seeded sample of ``samples``
    random trees.  ``samples`` must be at least 1 in either mode.  The
    witnesses are canonical graph6, past ``CANON_MAX_VERTICES`` in the
    centre-rooted order of ``canonical_tree``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ref = bethe_tree(d, K)
    n = ref.n
    ref_g6 = _tree_g6(ref)
    ref_val = algebraic_connectivity(ref)
    params = {"d": d, "K": K, "n": n}
    exhaustive = n <= TREE_MAX_N
    if exhaustive:
        outcome = maximize_trees(n, d, threads=threads)
        checked, witnesses = outcome.enumerated, outcome.maximizers
        unique_bethe = witnesses == (ref_g6,)
        sound = outcome.best_lambda2 <= ref_val + _TIE_TOL
        balanced = all(is_well_balanced(graph6_decode(s)) for s in witnesses)
        passed = sound and unique_bethe and balanced
        detail = (
            f"max lambda2 = {outcome.best_lambda2:.12g} over "
            f"{checked} trees; balanced-tree value {ref_val:.12g}; "
            f"unique maximizer is the balanced tree: {unique_bethe}; "
            f"maximizers well-balanced: {balanced}"
        )
    else:
        rng = random.Random(seed)
        draws = (random_tree(n, d, rng.randrange(10**9)) for _ in range(samples))
        checked, top, bad = 0, -math.inf, set()
        for val, g in _sweep(draws, threads):
            checked += 1
            top = max(top, val)
            if val > ref_val + _TIE_TOL:
                bad.add(_tree_g6(g))
        witnesses = tuple(sorted(bad)) or (ref_g6,)
        passed = not bad
        detail = (
            f"sampled, not exhaustive: {checked} seeded trees; sample max "
            f"{top:.12g}; balanced-tree value {ref_val:.12g}"
        )
        params.update(samples=samples, seed=seed)
    return ConjectureReport(
        name="conjecture_tree2",
        params=params,
        exhaustive=exhaustive,
        checked=checked,
        passed=passed,
        detail=detail,
        witnesses=witnesses,
    )


def verify_conjecture_cubic(K: int) -> ConjectureReport:
    """The bound 3 - 2 sqrt(2) cos(pi/K) is attained by exactly one cubic
    graph on n = 2^(K+1) - 2 vertices, and no such graph exceeds it."""
    # K is bounded before the power is taken
    if not 2 <= K <= CUBIC_MAX_N or (n := 2 ** (K + 1) - 2) > CUBIC_MAX_N:
        raise ValueError(f"supported levels are K = 2 and K = 3 (n <= {CUBIC_MAX_N})")
    bound = tk_bound(K)
    checked = 0
    attainers = []
    violations = []
    for val, g in _sweep(enumerate_cubic(n)):
        checked += 1
        if val > bound + _TIE_TOL:
            violations.append(graph6_encode(g))
        elif abs(val - bound) <= ATTAINED_TOL:
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
