"""Compiled kernels must agree with the pure reference, bit for bit.

The compiled side is the committed ``_speedups.c``, compiled into a
temporary directory and loaded from there, so the cross-checks run wherever
a C compiler and the Python headers are present, and never against a stale
in-tree build.  Two pure kernels are also checked against reference
versions kept here, with no compiler needed: the free-tree walk, which
prunes by degree and height prefix, against the unpruned walk, and the
canonical labeling, which skips stable splitters and splits by one- and
two-vertex splitters with mask operations, against the refinement that
re-tests every splitter after each split and counts every vertex on its
own, call by call and by the orders it leads to.  Golden hashes of streams,
and of the canonical orders of graphs made of twin cells and of
vertex-transitive graphs, pin the canonical order itself, which the
cross-checks cannot see change when both kernels change alike.
"""

import hashlib
import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from algconn._kernels import _pure, backend

MODULE = "algconn._kernels._speedups"

try:
    IN_TREE = importlib.import_module(MODULE)
except ImportError:
    IN_TREE = None


@pytest.fixture(scope="module")
def sp(tmp_path_factory):
    cc = shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if cc is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or no Python.h to build the extension")
    source = Path(_pure.__file__).with_name("_speedups.c")
    target = tmp_path_factory.mktemp("speedups") / (
        "_speedups" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    proc = subprocess.run(
        [cc, "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC", f"-I{include}"]
        + [str(source), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        pytest.fail(f"compiling {source.name} failed:\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location(MODULE, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension registers itself in sys.modules under its package name;
    # it is a test object here, not part of the package
    sys.modules.pop(MODULE, None)
    return module


def _random_rows(rng, n, p):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _relabel(rows, perm):
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if (row >> j) & 1:
                out[perm[i]] |= 1 << perm[j]
    return out


def _star(n):
    return [(1 << n) - 2] + [1] * (n - 1)


@pytest.fixture(scope="module")
def generator_inputs(unpruned_by_degrees):
    # every canon_key input of two generator runs, first through the loop
    # without twin pruning, which labels the symmetric partial states the
    # generator skips, then through the generator, which adds its finals
    # coloured by the local invariant: partial states coloured by remaining
    # capacity, the input the graph searches send
    from algconn import _kernels, search

    calls = {}
    real = _kernels.canon_key

    def record(n, rows, colors=None):
        calls[(n, tuple(rows), colors if colors is None else tuple(colors))] = None
        return real(n, rows, colors)

    def runs():
        list(search.enumerate_cubic(10))
        list(search.enumerate_graphs(8, 12, 2))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "canon_key", record)
        with pytest.MonkeyPatch.context() as unpruned:
            unpruned.setattr(
                search,
                "_enumerate_by_degrees",
                lambda n, sequences: unpruned_by_degrees(n, sequences, []),
            )
            runs()
        runs()
    return list(calls)


def test_canon_agrees_on_random_graphs(sp):
    rng = random.Random(99)
    for trial in range(600):
        n = rng.randint(1, 16)
        rows = _random_rows(rng, n, rng.choice([0.15, 0.4, 0.7]))
        colors = None
        if trial % 3 == 0 and n > 1:
            colors = [rng.randint(0, 2) for _ in range(n)]
        assert _pure.canon_perm(n, rows, colors) == sp.canon_perm(n, rows, colors)
        assert _pure.canon_key(n, rows, colors) == sp.canon_key(n, rows, colors)


def test_canon_agrees_on_relabelings_of_named_graphs(sp):
    from algconn.families import named

    rng = random.Random(5)
    for name in ("petersen", "heawood", "tutte_coxeter"):
        g = named(name)
        ref = sp.canon_key(g.n, g.rows)
        assert ref == _pure.canon_key(g.n, g.rows)
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            rows = _relabel(g.rows, perm)
            assert sp.canon_key(g.n, rows) == ref
            assert _pure.canon_key(g.n, rows) == ref


def test_canon_agrees_on_generator_states(sp, generator_inputs):
    assert len(generator_inputs) > 1000
    for n, rows, colors in generator_inputs:
        assert _pure.canon_perm(n, rows, colors) == sp.canon_perm(n, rows, colors)
        assert _pure.canon_key(n, rows, colors) == sp.canon_key(n, rows, colors)


def test_canon_agrees_on_stars_and_empty_graphs(sp):
    for n in (20, 22, 24, 32, 40):
        for rows in (_star(n), [0] * n):
            assert _pure.canon_perm(n, rows) == sp.canon_perm(n, rows)


def test_pure_canon_of_highly_symmetric_graphs(sp):
    # K1,31, the empty graph on 32 vertices and K1,39 have 31!, 32! and 39!
    # automorphisms; with a cap on the stored ones, orbit pruning collapses
    # and the search takes exponential time
    rng = random.Random(3)
    for rows in (_star(32), [0] * 32, _star(40)):
        n = len(rows)
        perm = list(range(n))
        rng.shuffle(perm)
        for kernel in (_pure, sp):
            assert kernel.canon_key(n, _relabel(rows, perm)) == kernel.canon_key(n, rows)


def _restart_refine(adj, cells, stable):
    # refinement before stable splitters: after every split, every splitter
    # is tried again from the first cell; ``stable`` is ignored.  Cells are
    # vertex bitmasks, as in ``_pure._refine``, and every splitter, one
    # vertex or more, splits a cell by the count of each vertex on its own
    n = len(adj)
    while True:
        changed = False
        for splitter in cells:
            new_cells = []
            for cell in cells:
                groups = {}
                for v in range(n):
                    if cell >> v & 1:
                        k = (adj[v] & splitter).bit_count()
                        groups[k] = groups.get(k, 0) | 1 << v
                changed |= len(groups) > 1
                new_cells += [groups[k] for k in sorted(groups)]
            if changed:
                cells = new_cells
                break
        if not changed:
            return cells


def test_stable_splitters_match_the_full_scan(monkeypatch, generator_inputs):
    # call by call: every partition the search refines, with the stable set
    # it holds there, refines to the full scan's partition, so the search
    # takes the same path with either
    from algconn.families import named

    rng = random.Random(17)
    cases = list(generator_inputs)
    for trial in range(300):
        n = rng.randint(1, 14)
        rows = _random_rows(rng, n, rng.choice([0.15, 0.4, 0.7]))
        colors = [rng.randint(0, 2) for _ in range(n)] if trial % 2 else None
        cases.append((n, rows, colors))
    for name in ("petersen", "heawood", "tutte_coxeter"):
        g = named(name)
        perm = list(range(g.n))
        rng.shuffle(perm)
        cases.append((g.n, _relabel(g.rows, perm), None))
    refine = _pure._refine
    calls = {"refines": 0}

    def checked(adj, cells, stable):
        out = refine(adj, cells, stable)
        assert out == _restart_refine(adj, cells, stable)
        calls["refines"] += 1
        return out

    monkeypatch.setattr(_pure, "_refine", checked)
    for case in cases:
        _pure.canon_perm(*case)
    assert calls["refines"] > len(cases)


def _edges(n, pairs):
    rows = [0] * n
    for u, v in pairs:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _mask(*vertices):
    return sum(1 << v for v in vertices)


def test_refine_by_one_vertex_puts_non_neighbours_first():
    # {0} splits {1, 2, 3, 4} into its non-neighbours {2, 4} and then its
    # neighbours {1, 3}, though 1 is the smallest vertex
    adj = _edges(5, [(0, 1), (0, 3)])
    cells = [_mask(0), _mask(1, 2, 3, 4)]
    expect = [_mask(0), _mask(2, 4), _mask(1, 3)]
    stable = set()
    assert _pure._refine(adj, cells, stable) == expect
    assert stable == set(expect)
    assert _restart_refine(adj, cells, set()) == expect


def test_refine_by_two_vertices_orders_pieces_by_count():
    # {0, 1} splits {2, 3, 4, 5} by counts 2, 1, 1 and 0 into {5}, then
    # {3, 4}, then {2}; after that every cell is uniform against every cell
    adj = _edges(6, [(2, 0), (2, 1), (3, 1), (4, 0)])
    cells = [_mask(0, 1), _mask(2, 3, 4, 5)]
    expect = [_mask(0, 1), _mask(5), _mask(3, 4), _mask(2)]
    stable = set()
    assert _pure._refine(adj, cells, stable) == expect
    assert stable == set(expect)
    assert _restart_refine(adj, cells, set()) == expect


def test_refine_orders_pieces_by_ascending_count():
    # {0, 1, 2} splits {3, 4, 5, 6} by counts 3, 2, 1 and 0 into the pieces
    # {6}, {5}, {4}, {3}; {5} and then {4} split {0, 1, 2} into singletons,
    # non-neighbours first
    adj = _edges(7, [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (5, 0)])
    cells = [_mask(0, 1, 2), _mask(3, 4, 5, 6)]
    expect = [1 << v for v in (2, 1, 0, 6, 5, 4, 3)]
    assert _pure._refine(adj, cells, set()) == expect
    assert _restart_refine(adj, cells, set()) == expect


def test_refine_keeps_a_cell_the_splitter_misses():
    # {0} meets {3, 4, 5} and splits it, and misses {1, 2}, which stays whole
    # in first place; {3, 4} is uniform against {0} once split off
    adj = _edges(6, [(1, 2), (0, 3), (0, 4)])
    cells = [_mask(1, 2), _mask(0), _mask(3, 4, 5)]
    expect = [_mask(1, 2), _mask(0), _mask(5), _mask(3, 4)]
    stable = set()
    assert _pure._refine(adj, cells, stable) == expect
    assert stable == set(expect)
    assert _restart_refine(adj, cells, set()) == expect


# generator, arguments, count of graph6 lines, and the sha256 of the lines,
# each followed by a newline
GOLDEN_STREAMS = [
    ("enumerate_cubic", (12,), 85,
     "26ec8f225fcb555cf830bb069bf67ffb964e2b46bc623feae502ade380d36309"),
    ("enumerate_graphs", (8, 12, 2), 513,
     "b697dfa050a396d92a7d3bebf103929a74b2c3ac06eff60431eebc90f0c1d02b"),
    # families with a regular sequence among mixed ones: (2,)*7, whose one
    # graph is C_7, and (3,)*8
    ("enumerate_graphs", (7, 7, 0), 33,
     "cbdf5ec98ca533cf93277005d9a0810d090e1b9b3b6be1707f705576f624a121"),
    ("enumerate_graphs", (8, 12, 0), 1169,
     "994e4eb1c1a8a2720ebca1be39fe1d3c6a716ca41d4238ee0a819aaf077b74ed"),
    # the family of the K_{2,n-2} check at n = 9
    ("enumerate_graphs", (9, 14, 2), 5553,
     "a4e8a650c4f6c79ffba600f2b1a74b13e164f5b6f129a7fd6ac967c0cebe3eaf"),
]


@pytest.mark.parametrize("kernel", ["pure", "compiled"])
def test_golden_streams(kernel, request, monkeypatch):
    from algconn import _kernels, search
    from algconn.graphs import graph6_encode

    module = _pure if kernel == "pure" else request.getfixturevalue("sp")
    monkeypatch.setattr(_kernels, "canon_key", module.canon_key)
    for name, args, count, digest in GOLDEN_STREAMS:
        lines = [graph6_encode(g) + "\n" for g in getattr(search, name)(*args)]
        assert len(lines) == count, name
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest, name


def _twin_heavy_graphs():
    # (n, rows, colors) of graphs made of twin classes, each relabeled at
    # random: complete multipartite graphs, disjoint cliques, stars with
    # coloured leaves, and random graphs with vertices duplicated as twins
    # that are adjacent (a clique) or not (a coclique).  Near misses too:
    # random graphs with vertices blown up into cycles, whose vertices share
    # their outside neighbours but are neither a clique nor a coclique, and
    # cycles with and without random chords, where the neighbours of one
    # vertex form a coclique whose vertices differ outside it
    rng = random.Random(14)
    graphs = []
    for trial in range(40):
        parts = [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
        n = sum(parts)
        part = [k for k, size in enumerate(parts) for _ in range(size)]
        multipartite = [0] * n
        cliques = [0] * n
        for u in range(n):
            for v in range(n):
                if u != v:
                    if part[u] != part[v]:
                        multipartite[u] |= 1 << v
                    else:
                        cliques[u] |= 1 << v
        for rows in (multipartite, cliques):
            colors = [rng.randint(0, 1) for _ in range(n)] if trial % 4 == 0 else None
            graphs.append((n, rows, colors))
    for n in range(2, 25, 2):
        graphs.append((n, _star(n), [0] + [rng.randint(1, 3) for _ in range(n - 1)]))
    for trial in range(80):
        n = rng.randint(2, 9)
        rows = _random_rows(rng, n, rng.choice([0.2, 0.4, 0.6]))
        for _ in range(rng.randint(1, 8)):
            v = rng.randrange(n)
            clique = rng.random() < 0.5
            rows.append(rows[v] | (1 << v if clique else 0))
            for u in range(n):
                if rows[u] >> v & 1 or (clique and u == v):
                    rows[u] |= 1 << n
            n += 1
        colors = [rng.randint(0, 1) for _ in range(n)] if trial % 3 == 0 else None
        graphs.append((n, rows, colors))
    for trial in range(30):
        base = _random_rows(rng, rng.randint(2, 5), 0.5)
        sizes = [rng.choice([1, 4, 5, 6]) for _ in base]
        first = [sum(sizes[:b]) for b in range(len(base))]
        rows = []
        for b, size in enumerate(sizes):
            outside = 0
            for c in range(len(base)):
                if base[b] >> c & 1:
                    outside |= ((1 << sizes[c]) - 1) << first[c]
            for i in range(size):
                ring = 1 << (i + 1) % size | 1 << (i - 1) % size if size > 1 else 0
                rows.append(outside | ring << first[b])
        graphs.append((len(rows), rows, None))
    for n in range(5, 17):
        cycle = [1 << (i + 1) % n | 1 << (i - 1) % n for i in range(n)]
        graphs.append((n, cycle, None))
        rows = list(cycle)
        ends = list(range(n))
        rng.shuffle(ends)
        for u, v in zip(ends[::2], ends[1::2]):
            if not cycle[u] >> v & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        graphs.append((n, rows, None))
    out = []
    for n, rows, colors in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        if colors is not None:
            colors = [colors[perm.index(v)] for v in range(n)]
        out.append((n, _relabel(rows, perm), colors))
    return out


# sha256 of the canon_perm orders of _twin_heavy_graphs(), one line each of
# the vertices separated by spaces, as the search gave them before it
# pruned twin cells
TWIN_ORDERS_SHA256 = "edfb2c49b74954c2900ef532b78882aba9bf678de92b11a6c4120bfa83788311"


@pytest.mark.parametrize("kernel", ["pure", "compiled"])
def test_golden_twin_orders(kernel, request):
    module = _pure if kernel == "pure" else request.getfixturevalue("sp")
    graphs = _twin_heavy_graphs()
    assert len(graphs) == 226
    text = "".join(
        " ".join(map(str, module.canon_perm(n, rows, colors))) + "\n"
        for n, rows, colors in graphs
    )
    assert hashlib.sha256(text.encode()).hexdigest() == TWIN_ORDERS_SHA256


def _vertex_transitive_graphs():
    # (n, rows) of vertex-transitive graphs without twin cells, each
    # relabeled at random: the hypercubes Q3-Q6, cycles, the Paley graphs
    # P(13), P(37) and P(61), tori C_a x C_b, and the Petersen, Heawood and
    # Tutte-Coxeter graphs.  Their searches reach many leaves with equal
    # codes, so the orders rest on the automorphisms stored there and on the
    # orbit closure that prunes by them
    from algconn.families import named

    graphs = []
    for d in range(3, 7):
        n = 1 << d
        graphs.append((n, [sum(1 << (v ^ 1 << i) for i in range(d)) for v in range(n)]))
    for n in (5, 7, 8, 12, 17, 24, 32, 45, 64):
        graphs.append((n, [1 << (i + 1) % n | 1 << (i - 1) % n for i in range(n)]))
    for q in (13, 37, 61):
        squares = {x * x % q for x in range(1, q)}
        rows = [sum(1 << j for j in range(q) if (i - j) % q in squares) for i in range(q)]
        graphs.append((q, rows))
    for a, b in ((3, 3), (3, 5), (4, 4), (4, 6), (5, 5), (6, 6), (7, 7), (8, 8)):
        rows = []
        for i in range(a):
            for j in range(b):
                steps = ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
                rows.append(sum(1 << (x % a * b + y % b) for x, y in steps))
        graphs.append((a * b, rows))
    for name in ("petersen", "heawood", "tutte_coxeter"):
        g = named(name)
        graphs.append((g.n, list(g.rows)))
    rng = random.Random(15)
    out = []
    for n, rows in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((n, _relabel(rows, perm)))
    return out


# sha256 of the canon_perm orders of _vertex_transitive_graphs(), one line
# each of the vertices separated by spaces, as both kernels gave them before
# the search wrote its best chunk path in place
TRANSITIVE_ORDERS_SHA256 = "50eb4bc50cc9eacbc15bffbd03aac2158a8bd1b076f7fd0fd3db82531fd4e9eb"


@pytest.mark.parametrize("kernel", ["pure", "compiled"])
def test_golden_vertex_transitive_orders(kernel, request):
    module = _pure if kernel == "pure" else request.getfixturevalue("sp")
    graphs = _vertex_transitive_graphs()
    assert len(graphs) == 27
    text = "".join(
        " ".join(map(str, module.canon_perm(n, rows))) + "\n" for n, rows in graphs
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == TRANSITIVE_ORDERS_SHA256


def _count_refines(monkeypatch):
    # calls of the pure refinement, one per node of the search
    calls = {"refines": 0}
    refine = _pure._refine

    def counting(adj, cells, stable):
        calls["refines"] += 1
        return refine(adj, cells, stable)

    monkeypatch.setattr(_pure, "_refine", counting)
    return calls


def test_twin_cells_bound_the_search(monkeypatch):
    # the empty graph and the star are one twin cell each after the first
    # refinement, so the search is one path of at most n nodes; without the
    # twin rule it makes 10,700 and 9,919 calls on n = 40.  K20,20 is one
    # cell that is not twins, but both its sides are twin cells once a
    # vertex is individualized: the root tries vertices 0, 1 and 20, and the
    # transpositions stored below the first two put the rest in their orbits
    # (115 calls; 799 without the transpositions, 6,347 without the rule)
    calls = _count_refines(monkeypatch)
    for rows in ([0] * 40, _star(40)):
        calls["refines"] = 0
        _pure.canon_perm(40, rows)
        assert calls["refines"] <= 40
    calls["refines"] = 0
    _pure.canon_perm(40, [(1 << 40) - (1 << 20)] * 20 + [(1 << 20) - 1] * 20)
    assert calls["refines"] <= 3 * 40


def test_orbit_closure_bounds_the_search(monkeypatch):
    # a child is skipped when the automorphisms stored so far put it in the
    # orbit of an earlier child; the orbit must be closed under all of them,
    # as closing it from the latest child alone misses images of earlier
    # children (733 and 3,023 calls then)
    calls = _count_refines(monkeypatch)
    for graphs, bound in (
        (_vertex_transitive_graphs(), 731),
        (_twin_heavy_graphs(), 2995),
    ):
        calls["refines"] = 0
        for graph in graphs:
            _pure.canon_perm(*graph)
        assert calls["refines"] <= bound


def test_key_byte_layout(sp):
    # triangle: [n] then one relabeled adjacency row per byte
    rows = [0b110, 0b101, 0b011]
    expect = bytes([3, 6, 5, 3])
    assert _pure.canon_key(3, rows) == expect
    assert sp.canon_key(3, rows) == expect


def _unpruned_tree_layouts(n, dmax):
    # the walk before degree pruning: every free tree, filtered afterwards.
    # The walk starts from two root children, so the smallest cases are
    # stated here: the single vertex and the edge, of maximum degree n - 1,
    # and no tree on three or more vertices has maximum degree below 2
    if n <= 2 or dmax < 2:
        if n <= 2 and n - 1 <= dmax:
            yield tuple(range(n))
        return
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _check_or_skip(layout)
        if layout is None:
            return
        if _max_degree(layout) <= dmax:
            yield tuple(layout)
        layout = _pure._next_rooted_tree(layout)


# The unpruned walk's own free-canonical rule and check-or-skip successor,
# written out apart from the kernel's helpers, so that a change to those
# cannot move the reference too.


def _split(layout):
    # (first subtree, rest of tree), split at the second depth-1 vertex
    ones = [i for i, lev in enumerate(layout) if lev == 1]
    m = ones[1] if len(ones) > 1 else len(layout)
    return [lev - 1 for lev in layout[1:m]], [0, *layout[m:]]


def _free_canonical(layout):
    left, rest = _split(layout)
    left_height = max(left) if left else 0  # n = 1 has no first subtree
    rest_height = max(rest)
    if rest_height < left_height:
        return False
    if rest_height == left_height:
        if len(left) > len(rest):
            return False
        if len(left) == len(rest) and left > rest:
            return False
    return True


def _check_or_skip(candidate):
    # the candidate itself if free-canonical, else the successor scheme's
    # skip target, unchecked: from the sequences this walk visits, the
    # target is free-canonical
    if _free_canonical(candidate):
        return candidate
    p = len(_split(candidate)[0])
    new_candidate = _pure._next_rooted_tree(candidate, p)
    if new_candidate is None:
        return None
    if candidate[p] > 2:
        suffix = list(range(1, max(_split(new_candidate)[0]) + 2))
        new_candidate[-len(suffix) :] = suffix
    return new_candidate


def _max_degree(layout):
    deg = [0] * len(layout)
    last = {}
    for i, lev in enumerate(layout):
        if lev:
            deg[last[lev - 1]] += 1
            deg[i] += 1
        last[lev] = i
    return max(deg)


def test_pruned_tree_walk_matches_unpruned():
    # with no cap and with every height cap, n <= 2, dmax < 2 and negative
    # caps included: the walk has no special case for any of them
    for n in range(1, 17):
        for dmax in sorted({0, 1, 2, 3, 4, 5, n}):
            unpruned = list(_unpruned_tree_layouts(n, dmax))
            assert list(_pure.free_tree_layouts(n, dmax)) == unpruned, (n, dmax)
            for h in (-5, -1, *range(n + 1)):
                capped = list(_pure.free_tree_layouts(n, dmax, h))
                assert capped == [t for t in unpruned if max(t) <= h], (n, dmax, h)


def _count_steps(monkeypatch):
    # rooted steps (successors, jumps and skips) and free-canonical tests
    calls = {"steps": 0, "tests": 0}
    step, test = _pure._next_rooted_tree, _pure._is_free_canonical

    def counted_step(*args):
        calls["steps"] += 1
        return step(*args)

    def counted_test(*args):
        calls["tests"] += 1
        return test(*args)

    monkeypatch.setattr(_pure, "_next_rooted_tree", counted_step)
    monkeypatch.setattr(_pure, "_is_free_canonical", counted_test)
    return calls


def test_pruned_tree_walk_work_bound(monkeypatch):
    # the unpruned walk visits 19,320 free trees at n = 16 to keep 2,410;
    # the walk reaches them in about 5,500 steps, and tests each candidate
    # a step reaches for free-canonicity at most once
    calls = _count_steps(monkeypatch)
    trees = sum(1 for _ in _pure.free_tree_layouts(16, 3))
    assert trees == 2410
    assert calls["steps"] <= 3 * trees
    assert calls["tests"] <= calls["steps"]


def test_height_capped_walk_work_bound(monkeypatch):
    # 2,056 of the 52,233 trees at n = 20, d <= 3 have height <= 4; the walk
    # reaches them in about 10,500 steps
    calls = _count_steps(monkeypatch)
    trees = sum(1 for _ in _pure.free_tree_layouts(20, 3, 4))
    assert trees == 2056
    assert calls["steps"] <= 6 * trees
    assert calls["tests"] <= calls["steps"]


def test_tree_layouts_identical(sp):
    # at each height cap the compiled walk must give the pure walk's
    # layouts, which the test above shows are the uncapped ones filtered by
    # height; n <= 2, dmax < 2 and negative caps included
    for n in range(1, 19):
        for dmax in sorted({0, 1, 2, 3, 4, n}):
            a = list(_pure.free_tree_layouts(n, dmax))
            b = list(sp.free_tree_layouts(n, dmax))
            assert a == b, (n, dmax)
            # every cap above the tallest layout keeps them all
            heights = [max(t) for t in a]
            for h in (-5, -1, *range(max(heights, default=0) + 2)):
                expect = [t for t, th in zip(a, heights) if th <= h]
                assert list(sp.free_tree_layouts(n, dmax, h)) == expect, (n, dmax, h)


def test_compiled_guards_size(sp):
    # the C kernel reads nothing past what it is given, and both kernels
    # refuse the same inputs, each walk at the call
    for module in (_pure, sp):
        for n in (0, 65):
            for kernel in (module.canon_perm, module.canon_key):
                with pytest.raises(ValueError, match="support 1 <= n <= 64"):
                    kernel(n, [0] * n)
            with pytest.raises(ValueError, match="support 1 <= n <= 64"):
                module.free_tree_layouts(n, 3)
        for kernel in (module.canon_perm, module.canon_key):
            with pytest.raises(IndexError):
                kernel(4, [0] * 3)
            with pytest.raises(IndexError):
                kernel(4, [0] * 4, [0] * 3)
            with pytest.raises(IndexError):
                kernel(3, [0b1000, 0, 0])  # a neighbour outside the graph
        with pytest.raises(ValueError):
            module.canon_key(3, [0] * 3, [0, 256, 0])
    for kernel in (sp.canon_perm, sp.canon_key):
        with pytest.raises(OverflowError):
            kernel(4, [0, 0, 0, 1 << 64])
    # a walk abandoned half-way is freed (python -X dev reports a bad free)
    walk = sp.free_tree_layouts(12, 3, 4)
    assert next(walk) == next(iter(_pure.free_tree_layouts(12, 3, 4)))
    del walk


def test_backend_reports_compiled():
    if IN_TREE is None:
        pytest.skip("no in-tree extension build")
    if os.environ.get("ALGCONN_PURE"):
        pytest.skip("pure fallback forced via ALGCONN_PURE")
    assert backend() == "compiled"


def test_pure_env_forces_fallback(package_pythonpath):
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from algconn._kernels import backend; print(backend())",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "ALGCONN_PURE": "1", "PYTHONPATH": package_pythonpath},
    )
    assert out.stdout.strip() == "pure"
