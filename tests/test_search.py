"""Enumeration counts vs independent oracles; maximization invariants."""

import inspect
import itertools
import os
import random

import numpy as np
import pytest

from algconn import _kernels, search
from algconn._kernels import _pure
from algconn.families import (
    bethe_tree,
    complete,
    complete_bipartite,
    cycle,
    named,
    path,
    random_tree,
    star,
)
from algconn.graphs import (
    CANON_MAX_VERTICES,
    Graph,
    _canonical_graph,
    _decode_key,
    canonical_form,
    canonical_key,
    from_edges,
    girth,
    graph6_decode,
    graph6_encode,
    is_connected,
    max_degree,
)
from algconn.search import (
    MAX_THREADS,
    TREE_MAX_N,
    ConjectureReport,
    _sweep,
    count_trees,
    enumerate_cubic,
    enumerate_graphs,
    enumerate_trees,
    maximize_lambda2,
    maximize_trees,
    resolve_threads,
    verify_conjecture_cubic,
    verify_conjecture_k2,
    verify_conjecture_tree2,
)
from algconn.spectral import algebraic_connectivity
from algconn.treetools import canonical_tree

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _prufer_decode(n, seq):
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if deg[v] == 1)
    seq = list(seq)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1:
            import bisect

            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return edges


def _tree_code(n, edges):
    # AHU encoding rooted at the centre; a bicentral tree takes the smaller
    # of its two rootings, so isomorphic trees get equal codes
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    deg = [len(nbrs) for nbrs in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    left = n
    while left > 2:  # peel the leaves until the centre or bicentre is left
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    peeled.append(w)
        layer = peeled

    def code(v, parent):
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


def _tree_classes_prufer(n, d_max):
    # every labeled tree once via its Prufer sequence, filtered by degree,
    # bucketed by a tree canonical form that shares no code with the kernels
    codes = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        deg = [1] * n
        ok = True
        for v in seq:
            deg[v] += 1
            if deg[v] > d_max:
                ok = False
                break
        if not ok:
            continue
        codes.add(_tree_code(n, _prufer_decode(n, seq)))
    return len(codes)


def _graph_classes_bitmask(n, m, min_degree):
    # every m-edge subset of the complete graph, filtered, bucketed
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = set()
    for combo in itertools.combinations(range(len(pairs)), m):
        g = from_edges(n, [pairs[k] for k in combo])
        if min(g.degree(v) for v in range(n)) < min_degree:
            continue
        if not is_connected(g):
            continue
        keys.add(canonical_key(g))
    return len(keys)


def _cubic_classes_labeled(n):
    # grow 3-regular labeled graphs by filling vertex 0..n-1 in order
    keys = set()

    def rec(rows, v):
        if v == n:
            g = from_edges(n, [])
            g = type(g)(n, rows)
            if is_connected(g):
                keys.add(canonical_key(g))
            return
        need = 3 - rows[v].bit_count()
        if need == 0:
            rec(rows, v + 1)
            return
        cands = [
            u
            for u in range(v + 1, n)
            if rows[u].bit_count() < 3 and not (rows[v] >> u) & 1
        ]
        for combo in itertools.combinations(cands, need):
            new = list(rows)
            for u in combo:
                new[v] |= 1 << u
                new[u] |= 1 << v
            rec(new, v + 1)

    rec([0] * n, 0)
    return len(keys)


# ---------------------------------------------------------------------------
# tree enumeration
# ---------------------------------------------------------------------------


def test_tree_counts_match_prufer_oracle():
    # unrestricted degrees (cap n-1 is no cap) and the cubic cap
    assert count_trees(7, 6) == _tree_classes_prufer(7, 6) == 11
    assert count_trees(8, 7) == _tree_classes_prufer(8, 7) == 23
    assert count_trees(8, 3) == _tree_classes_prufer(8, 3) == 11
    assert count_trees(8, 2) == 1  # the path


def test_tree_counts_small_series():
    # n = 1..8, unrestricted: 1, 1, 1, 2, 3, 6, 11, 23
    got = [count_trees(n, max(n - 1, 1)) for n in range(1, 9)]
    assert got == [1, 1, 1, 2, 3, 6, 11, 23]
    # published censuses: OEIS A000672 (degree <= 3), A000602 (degree <= 4)
    # and A000055 (unrestricted)
    assert count_trees(10, 3) == 37
    assert count_trees(12, 3) == 135
    assert count_trees(23, 3) == 565734
    assert count_trees(24, 3) == 1265579
    assert count_trees(20, 4) == 366319
    assert count_trees(24, 23) == 39299897


def test_tree_counts_match_the_walk():
    # the recurrence and the free-tree walk share no code
    for n in range(1, 17):
        for dmax in sorted({1, 2, 3, 4, 5, max(n - 1, 1), n}):
            walked = sum(1 for _ in _kernels.free_tree_layouts(n, dmax, n))
            assert count_trees(n, dmax) == walked, (n, dmax)


def test_enumerate_trees_yields_distinct_valid_trees():
    seen = set()
    total = 0
    for g in enumerate_trees(11, 3):
        total += 1
        assert g.n == 11 and g.m == 10 and is_connected(g)
        assert max_degree(g) <= 3
        key = canonical_key(g)
        assert key not in seen
        seen.add(key)
    assert total == count_trees(11, 3) == 66


def test_enumerate_trees_edge_cases():
    assert [g.n for g in enumerate_trees(1, 3)] == [1]
    assert [g.m for g in enumerate_trees(2, 3)] == [1]
    assert list(enumerate_trees(5, 1)) == []
    assert len(list(enumerate_trees(5, 2))) == 1
    with pytest.raises(ValueError):
        enumerate_trees(25, 3)
    with pytest.raises(ValueError):
        count_trees(0, 3)
    # no tree on 3 or more vertices has all degrees <= 1
    for n in range(3, TREE_MAX_N + 1):
        assert count_trees(n, 1) == 0, n


# ---------------------------------------------------------------------------
# cubic enumeration
# ---------------------------------------------------------------------------


def test_cubic_counts_match_labeled_oracle():
    assert len(list(enumerate_cubic(4))) == _cubic_classes_labeled(4) == 1
    assert len(list(enumerate_cubic(6))) == _cubic_classes_labeled(6) == 2
    assert len(list(enumerate_cubic(8))) == _cubic_classes_labeled(8) == 5


def test_cubic_counts_larger():
    # frozen from the oracle-validated generator; matches the published
    # census of connected cubic graphs
    assert len(list(enumerate_cubic(10))) == 19
    assert len(list(enumerate_cubic(12))) == 85


def test_cubic_output_is_valid_and_distinct():
    seen = set()
    for g in enumerate_cubic(10):
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(g.n))
        assert is_connected(g)
        key = canonical_key(g)
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize(
    "family",
    [
        lambda: enumerate_cubic(10),
        lambda: enumerate_graphs(6, 8, 2),
        lambda: enumerate_graphs(7, 9, 1),  # 107 graphs over many degree sequences
    ],
    ids=["cubic-10", "graphs-6-8-2", "graphs-7-9-1"],
)
def test_stream_is_canonical_rows_in_increasing_order(family):
    graphs = list(family())
    for g in graphs:
        assert g.rows == _decode_key(canonical_key(g))[0]
    rows = [g.rows for g in graphs]
    assert all(a < b for a, b in zip(rows, rows[1:]))


def test_cubic_includes_named_graphs():
    assert canonical_key(complete(4)) in {
        canonical_key(g) for g in enumerate_cubic(4)
    }
    pet = canonical_key(named("petersen"))
    assert pet in {canonical_key(g) for g in enumerate_cubic(10)}


def test_cubic_enumeration_work_bound(monkeypatch):
    # one labeling per viable child with more than three open vertices that
    # is not a twin copy, and two for a new final: 1,255 for the 85 graphs
    # (1,744 when the tail, the children with at most three open vertices,
    # is labeled too rather than completed in closed form, and 2,625 with
    # no cut at all).  The
    # largest-degree-first order does not move it: in a regular sequence
    # every open vertex has the same degree, so the first open vertex, the
    # one of smallest remaining capacity, is closed
    calls = _count_labelings(monkeypatch)
    assert sum(1 for _ in enumerate_cubic(12)) == 85
    assert calls["labelings"] <= 1255


def test_regular_family_labels_each_graph_once_uncoloured(monkeypatch):
    calls = []
    real = _kernels.canon_key

    def record(n, rows, colors):
        calls.append(colors)
        return real(n, rows, colors)

    monkeypatch.setattr(_kernels, "canon_key", record)
    assert sum(1 for _ in enumerate_cubic(12)) == 85
    assert sum(1 for c in calls if not any(c)) == 85


_GENERATOR_FAMILIES = [(enumerate_cubic, (n,)) for n in (4, 6, 8, 10, 12)] + [
    (enumerate_graphs, args) for args in ((7, 7, 0), (8, 12, 0), (8, 12, 2))
]


@pytest.mark.parametrize("family, args", _GENERATOR_FAMILIES)
def test_generator_expands_as_the_unpruned_loop(
    monkeypatch, unpruned_by_degrees, family, args
):
    # the twin cut, the final pre-keys and the tail skip only labelings:
    # the loop's expanded states with more than three open vertices are
    # expanded in the same order, and the same finals come out.  The order
    # holds because a state with at most three open vertices pushes none
    # with more
    expanded = []
    opened = []  # whether each decoded key has an open vertex
    real = search._decode_key

    def record(key):
        rows, caps = real(key)
        opened.append(any(caps))
        if any(caps):
            expanded.append(key)
        return rows, caps

    with monkeypatch.context() as mp:
        mp.setattr(search, "_decode_key", record)
        got = list(family(*args))
    want_expanded = []
    with monkeypatch.context() as mp:
        mp.setattr(
            search,
            "_enumerate_by_degrees",
            lambda n, sequences: unpruned_by_degrees(n, sequences, want_expanded),
        )
        want = list(family(*args))
    assert expanded == [k for k in want_expanded if _open_count(k) > 3]
    assert got == want
    # no final is pushed: each is decoded once, in the closing sort
    assert opened == [True] * len(expanded) + [False] * len(got)


def _open_count(key):
    return sum(1 for c in _decode_key(key)[1] if c)


def _tail_completions(n, rows, caps):
    # brute force: every set of new edges among the open vertices that uses
    # up each remaining capacity exactly
    ends = [v for v in range(n) if caps[v]]
    pairs = [(a, b) for a, b in itertools.combinations(ends, 2) if not rows[a] >> b & 1]
    found = []
    for k in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, k):
            left = list(caps)
            out = list(rows)
            for a, b in chosen:
                left[a] -= 1
                left[b] -= 1
                out[a] |= 1 << b
                out[b] |= 1 << a
            if not any(left):
                found.append(out)
    return found


def _small_tail_states():
    # every graph on at most 6 vertices, one per isomorphism class, with
    # every set of one to three open vertices and every cap from 1 to 3 on
    # each (a cap of 3 has no completion among three open vertices)
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        classes = {}
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            for k, (a, b) in enumerate(pairs):
                if mask >> k & 1:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
            classes.setdefault(_kernels.canon_key(n, rows, bytes(n)), rows)
        for rows in classes.values():
            for size in (1, 2, 3):
                for ends in itertools.combinations(range(n), size):
                    for values in itertools.product((1, 2, 3), repeat=size):
                        caps = [0] * n
                        for v, c in zip(ends, values):
                            caps[v] = c
                        yield n, rows, caps


def test_complete_tail_matches_brute_force(monkeypatch, unpruned_by_degrees):
    # the small states above, and every state with one to three open
    # vertices that the unpruned loop labels in two generator runs
    met = []
    real = _kernels.canon_key

    def record(n, rows, colors):
        if 1 <= sum(1 for c in colors if c) <= 3:
            met.append((n, list(rows), list(colors)))
        return real(n, rows, colors)

    with monkeypatch.context() as mp:
        mp.setattr(_kernels, "canon_key", record)
        mp.setattr(
            search,
            "_enumerate_by_degrees",
            lambda n, sequences: unpruned_by_degrees(n, sequences, []),
        )
        list(enumerate_cubic(10))
        list(enumerate_graphs(8, 12, 2))
    assert len(met) > 1000
    tally = {"none": 0, "one": 0, "viable": 0}
    for n, rows, caps in itertools.chain(_small_tail_states(), met):
        found = _tail_completions(n, rows, caps)
        assert len(found) <= 1, (n, rows, caps)
        got = search._complete_tail(n, rows, caps)
        assert got == (found[0] if found else None), (n, rows, caps)
        tally["one" if found else "none"] += 1
        if found and search._state_viable(n, rows, caps):
            tally["viable"] += 1
            assert is_connected(Graph(n, got)), (n, rows, caps)
    # both outcomes are met, and many completions are checked for
    # connectivity
    assert min(tally.values()) > 1000, tally


def test_cubic_rejects_bad_n():
    for bad in (3, 5, 2, 16):
        with pytest.raises(ValueError):
            enumerate_cubic(bad)


# ---------------------------------------------------------------------------
# general graph enumeration
# ---------------------------------------------------------------------------


def test_graph_counts_match_bitmask_oracle():
    assert len(list(enumerate_graphs(6, 8, 2))) == _graph_classes_bitmask(6, 8, 2)
    assert len(list(enumerate_graphs(5, 6, 2))) == _graph_classes_bitmask(5, 6, 2)
    assert len(list(enumerate_graphs(5, 5, 0))) == _graph_classes_bitmask(5, 5, 0)
    assert len(list(enumerate_graphs(4, 6, 2))) == 1  # K_4
    # families that span several degree sequences, with degree floors 0 and 1
    assert len(list(enumerate_graphs(6, 7, 1))) == _graph_classes_bitmask(6, 7, 1)
    assert len(list(enumerate_graphs(6, 6, 1))) == _graph_classes_bitmask(6, 6, 1)
    assert len(list(enumerate_graphs(5, 4, 0))) == _graph_classes_bitmask(5, 4, 0)
    assert list(enumerate_graphs(1, 0)) == [Graph(1, [0])]
    assert list(enumerate_graphs(2, 1)) == [path(2)]


def _count_labelings(monkeypatch):
    # the generator's canon_key calls on the pure kernel
    calls = {"labelings": 0}

    def counted(*args):
        calls["labelings"] += 1
        return _pure.canon_key(*args)

    monkeypatch.setattr(_kernels, "canon_key", counted)
    return calls


def test_graph_enumeration_work_bound(monkeypatch):
    # one labeling per viable child with more than three open vertices that
    # is not a twin copy, and one per completed final, closing the open
    # vertex of largest degree first: 1,642 calls here (2,481 when the tail
    # is labeled too, 3,696 with no cut at all, and 4,514 when the tail is
    # labeled too and the vertex of smallest remaining capacity is closed
    # first), a bound that a generator expanding more states breaks;
    # labeling every candidate edge of every partial graph takes 66 per graph
    calls = _count_labelings(monkeypatch)
    graphs = sum(1 for _ in enumerate_graphs(8, 12, 2))
    assert graphs == 513
    assert calls["labelings"] <= 16 * graphs
    assert calls["labelings"] <= 1642
    # every degree sequence of 8 vertices and 12 edges: 3,981 calls (5,859
    # when the tail is labeled too, 8,377 with no cut at all, and 9,522 when
    # the tail is labeled too and the smallest remaining capacity is closed
    # first)
    calls["labelings"] = 0
    assert sum(1 for _ in enumerate_graphs(8, 12, 0)) == 1169
    assert calls["labelings"] <= 3981


def test_graph_enumeration_contains_expected_members():
    keys = {canonical_key(g) for g in enumerate_graphs(5, 6, 2)}
    assert canonical_key(complete_bipartite(5, 2)) in keys
    for g in enumerate_graphs(6, 8, 2):
        assert g.m == 8 and is_connected(g)
        assert min(g.degree(v) for v in range(6)) >= 2


def test_graph_enumeration_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_graphs(11, 10, 0)
    with pytest.raises(ValueError):
        enumerate_graphs(5, 11, 0)
    with pytest.raises(ValueError):
        enumerate_graphs(5, 3, 2)  # degree floor infeasible
    with pytest.raises(ValueError):
        enumerate_graphs(1, 0, 1)


# ---------------------------------------------------------------------------
# maximization
# ---------------------------------------------------------------------------


def test_maximize_trees_n10():
    outcome = maximize_lambda2(enumerate_trees(10, 3))
    assert outcome.enumerated == 37
    ref = bethe_tree(3, 2)
    assert outcome.best_lambda2 == pytest.approx(algebraic_connectivity(ref))
    assert len(outcome.maximizers) == 1
    winner = graph6_decode(outcome.maximizers[0])
    assert canonical_key(winner) == canonical_key(ref)


def test_maximize_trees_matches_the_full_sweep():
    for n in range(2, 17):
        for d in sorted({2, 3, 4, n}):
            full = maximize_lambda2(enumerate_trees(n, d), threads=1)
            capped = maximize_trees(n, d, threads=1)
            assert capped.enumerated == full.enumerated == count_trees(n, d)
            assert capped.maximizers == full.maximizers, (n, d)
            assert capped.best_lambda2 == full.best_lambda2, (n, d)


def test_maximize_trees_cap(monkeypatch):
    # the heights are walked in order up to the first whose taller trees
    # the path bound puts below the best: at n = 20, d <= 3 the best comes
    # from height 3 and the walk stops after 4; at n = 24, d <= 24 the star
    # is the only tree of height <= 1
    walked = []
    walk = _kernels.free_tree_layouts

    def record(n, dmax, max_height):
        walked.append(max_height)
        return walk(n, dmax, max_height)

    monkeypatch.setattr(_kernels, "free_tree_layouts", record)
    assert maximize_trees(20, 3, threads=1).enumerated == 52233
    (star_g6,) = maximize_trees(24, 24, threads=1).maximizers
    assert max_degree(graph6_decode(star_g6)) == 23
    assert walked == [0, 1, 2, 3, 4, 0, 1]
    for n in range(2, 17):
        for d in sorted({2, 3, 4, n}):
            walked.clear()
            best = maximize_trees(n, d, threads=1).best_lambda2
            assert walked == list(range(len(walked))), (n, d)
            stop = next(
                h
                for h in itertools.count()
                if search._path_bound(2 * h + 1)
                < best - search._HEIGHT_CAP_MARGIN
            )
            assert walked[-1] == stop, (n, d)


def test_maximize_trees_solves_each_tree_once(monkeypatch):
    # 2,056 trees of height <= 4 at n = 20, d <= 3, the 3 of height 3 among
    # them: each height's walk solves only the trees of that height
    solved = []
    solve = search.batched_lambda2

    def record(stack):
        solved.append(len(stack))
        return solve(stack)

    monkeypatch.setattr(search, "batched_lambda2", record)
    maximize_trees(20, 3, threads=1)
    assert sum(solved) == 2056


def test_maximize_trees_thread_invariance():
    for n, d in ((16, 3), (14, 14), (20, 3)):
        assert maximize_trees(n, d, threads=1) == maximize_trees(n, d, threads=3)


def test_maximize_trees_errors_as_the_full_sweep(capsys):
    from algconn.cli import main

    for n, d in ((1, 1), (1, 3), (5, 1), (25, 3), (0, 3), (6, 0)):
        with pytest.raises(ValueError) as full:
            maximize_lambda2(enumerate_trees(n, d))
        with pytest.raises(ValueError) as capped:
            maximize_trees(n, d)
        assert str(capped.value) == str(full.value), (n, d)
    code = main(["enumerate", "trees", "-n", "1", "--max-lambda2"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == "error: lambda2 needs graphs with n >= 2\n"


def test_maximize_cubic_n6():
    outcome = maximize_lambda2(enumerate_cubic(6))
    assert outcome.enumerated == 2
    assert outcome.best_lambda2 == pytest.approx(3.0)
    assert len(outcome.maximizers) == 1
    assert girth(graph6_decode(outcome.maximizers[0])) == 4


def test_maximize_thread_invariance():
    results = [
        maximize_lambda2(enumerate_cubic(10), threads=k) for k in (1, 2, 8)
    ]
    assert results[0] == results[1] == results[2]


def test_maximize_reports_all_tied_maximizers():
    # C4, K2 and K_{2,3} all have connectivity exactly 2; the star does not
    fam = [cycle(4), path(2), complete_bipartite(5, 2), star(4)]
    outcome = maximize_lambda2(fam)
    assert outcome.enumerated == 4
    assert outcome.best_lambda2 == pytest.approx(2.0)
    assert len(outcome.maximizers) == 3
    assert list(outcome.maximizers) == sorted(outcome.maximizers)
    with pytest.raises(ValueError):
        maximize_lambda2([])


def test_sweep_matches_per_graph_solve_in_family_order():
    # a chunk ends where the vertex count changes: the mixed graphs are a
    # chunk each, and the trees come in runs of 400, 400 and 300 on 12, 13
    # and 14 vertices
    mixed = [cycle(4), path(2), complete_bipartite(5, 2), star(4)]
    trees = [random_tree(12 + s // 400, 3, s) for s in range(1100)]
    family = mixed + trees + mixed
    expect = [algebraic_connectivity(g) for g in family]
    for threads in (1, 3):
        swept = list(_sweep(iter(family), threads))
        assert [g for _, g in swept] == family
        assert [val for val, _ in swept] == expect  # bitwise equal
    with pytest.raises(ValueError):
        list(_sweep([path(3), Graph(1, [0])], 1))


def test_sweep_chunks_bound_the_laplacian_entries(monkeypatch):
    # 1,024 graphs of up to 64 vertices to a chunk, fewer past that, and a
    # chunk ends where the vertex count changes: 6 paths on 64 vertices,
    # then 419 on 100, the most whose entries stay within 64 * 64 * 1,024.
    # Only the chunking is checked, so no stack is built or solved
    chunks = []

    def record(graphs):
        chunks.append([g.n for g in graphs])
        return np.zeros((len(graphs), 2, 2))

    monkeypatch.setattr(search, "laplacian_stack", record)
    monkeypatch.setattr(search, "batched_lambda2", lambda stack: stack[:, 0, 0])

    def chunking(family):
        chunks.clear()
        assert [g for _, g in _sweep(family, 1)] == family
        for c in chunks:
            assert len(set(c)) == 1
            assert len(c) == 1 or len(c) * c[0] ** 2 <= search._CHUNK_ENTRIES
        return [(len(c), c[0]) for c in chunks]

    family = [path(64)] * 1030 + [path(100)] * 500
    assert chunking(family) == [(1024, 64), (6, 64), (419, 100), (81, 100)]
    # past 2,048 vertices one graph passes the bound, so it is a chunk alone
    family = [path(2049), path(2049), path(3), path(4), path(4)]
    assert chunking(family) == [(1, 2049), (1, 2049), (1, 3), (2, 4)]


def test_twin_predecessors_point_back_within_each_class():
    # 1 and 3 are twins (both joined to 0 only), 2 is not; 4 and 5 are
    # adjacent twins, and 6 has their rows but a different cap
    rows = [0b1010, 0b1, 0b0, 0b1, 0b1100000, 0b1010000, 0b110000]
    caps = [0, 1, 1, 1, 2, 2, 3]
    assert search._twin_predecessors(rows, caps, range(1, 7)) == {3: 1, 5: 4}


def test_resolve_threads_default(monkeypatch):
    assert resolve_threads(None) == min(os.cpu_count() or 1, MAX_THREADS)
    assert resolve_threads(4) == 4
    with pytest.raises(ValueError):
        resolve_threads(0)
    # the ceiling; no thread is started here, only the count is resolved
    monkeypatch.setattr(os, "cpu_count", lambda: 1000)
    assert resolve_threads(None) == MAX_THREADS == 64
    for k in range(1, 9):
        assert resolve_threads(k) == k
    assert resolve_threads(MAX_THREADS) == MAX_THREADS
    for k in (MAX_THREADS + 1, 100000):
        with pytest.raises(ValueError, match="threads must be in 1..64"):
            resolve_threads(k)
    # _sweep resolves the count before it draws a graph
    drawn = []
    family = (drawn.append(k) or path(3) for k in range(5))
    with pytest.raises(ValueError, match="threads must be in 1..64"):
        next(_sweep(family, MAX_THREADS + 1))
    assert drawn == []


# ---------------------------------------------------------------------------
# conjecture verification
# ---------------------------------------------------------------------------


def test_verify_k2_exhaustive_small():
    for n in (5, 6, 7):
        rep = verify_conjecture_k2(n)
        assert isinstance(rep, ConjectureReport)
        assert rep.exhaustive and rep.passed
        assert rep.params["m"] == 2 * (n - 2)
    # the range ends where the graph family does
    for n in (4, 11):
        with pytest.raises(ValueError, match=r"^supported range is 5 <= n <= 10$"):
            verify_conjecture_k2(n)


def test_verify_k2_exhaustive_n10():
    # Fiedler's lambda2 <= min degree leaves the 357 members of minimum
    # degree >= 3 to solve beside K_(2,8)
    rep = verify_conjecture_k2(10)
    assert rep.exhaustive and rep.passed
    assert rep.checked == 357
    assert rep.params == {"n": 10, "m": 16, "min_degree": 3}
    assert "Fiedler" in rep.detail
    # K_(2,8) and the one minimum-degree-3 graph that ties it
    assert rep.witnesses == ("I????B~~o", "I@OZCMgsG")
    k2_key = canonical_key(complete_bipartite(10, 2))
    assert canonical_key(graph6_decode(rep.witnesses[0])) == k2_key
    assert "samples" not in inspect.signature(verify_conjecture_k2).parameters


def test_verify_tree2_exhaustive():
    rep = verify_conjecture_tree2(3, 2)
    assert rep.exhaustive and rep.passed
    assert rep.checked == 37
    assert len(rep.witnesses) == 1
    # the 6 trees of the star's size
    rep = verify_conjecture_tree2(5, 1)
    assert rep.exhaustive and rep.passed
    assert rep.checked == 6


# every (d, K) whose balanced tree has n <= TREE_MAX_N, less (3, 3): criterion 6
# sweeps its 254,371 trees and tests/test_cli.py checks its verdict
_ENUMERABLE = [(d, 1) for d in range(3, 24)] + [(3, 2), (4, 2)]


@pytest.mark.parametrize("d, K", _ENUMERABLE)
def test_verify_tree2_exhaustive_wherever_enumerable(d, K):
    rep = verify_conjecture_tree2(d, K)
    assert rep.exhaustive and rep.passed
    assert rep.checked == count_trees(rep.params["n"], d)


def test_verify_tree2_sampled():
    # the smallest balanced trees past n = 24, at K = 2 and K = 1
    for d, K, n in ((5, 2, 26), (24, 1, 25)):
        rep = verify_conjecture_tree2(d, K, samples=25, seed=3)
        assert rep.params == {"d": d, "K": K, "n": n, "samples": 25, "seed": 3}
        assert not rep.exhaustive
        assert rep.passed and rep.checked == 25
        assert "sampled" in rep.detail


def test_verify_tree2_mode_follows_the_family_size():
    # every (d, K) whose balanced tree has a canonical form: the enumerable
    # ones are swept above, the rest sample
    enumerable = []
    for K in itertools.count(1):
        if bethe_tree(3, K).n > CANON_MAX_VERTICES:
            break
        for d in itertools.count(3):
            n = bethe_tree(d, K).n
            if n > CANON_MAX_VERTICES:
                # the first size past the limit samples too, and its witness
                # is graph6 in the centre-rooted tree order
                rep = verify_conjecture_tree2(d, K, samples=1)
                assert not rep.exhaustive and rep.checked == 1 and rep.passed
                assert rep.witnesses == (
                    graph6_encode(canonical_tree(bethe_tree(d, K))),
                )
                break
            if n <= TREE_MAX_N:
                enumerable.append((d, K))
                continue
            rep = verify_conjecture_tree2(d, K, samples=1)
            assert not rep.exhaustive and rep.checked == 1 and rep.passed
    assert sorted(enumerable) == sorted([*_ENUMERABLE, (3, 3)])


def test_verify_tree2_samples_past_the_canonical_form_limit():
    # n = 94; at n <= 64 the witness strings are those of canonical_form
    rep = verify_conjecture_tree2(3, 5, samples=20, seed=4)
    assert rep.params["n"] == 94
    assert not rep.exhaustive and rep.passed and rep.checked == 20
    assert rep.witnesses == (graph6_encode(canonical_tree(bethe_tree(3, 5))),)
    rep = verify_conjecture_tree2(3, 4, samples=1)
    assert rep.witnesses == (graph6_encode(_canonical_graph(bethe_tree(3, 4))),)


def test_sampled_checks_need_a_sample():
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            verify_conjecture_tree2(5, 2, samples=samples)
        # an exhaustive run rejects it too
        with pytest.raises(ValueError, match="samples must be >= 1"):
            verify_conjecture_tree2(3, 2, samples=samples)
    assert verify_conjecture_tree2(5, 2, samples=1).checked == 1


def test_verify_cubic_k2():
    rep = verify_conjecture_cubic(2)
    assert rep.exhaustive and rep.passed
    assert rep.checked == 2
    assert len(rep.witnesses) == 1
    assert girth(graph6_decode(rep.witnesses[0])) == 4
    # the levels end where the cubic family does
    message = r"^supported levels are K = 2 and K = 3 \(n <= 14\)$"
    for K in (1, 4):
        with pytest.raises(ValueError, match=message):
            verify_conjecture_cubic(K)


# ---------------------------------------------------------------------------
# cross-cutting enumeration invariants
# ---------------------------------------------------------------------------


def test_enumerations_roundtrip_graph6():
    fams = [enumerate_trees(9, 3), enumerate_cubic(8), enumerate_graphs(6, 7, 1)]
    for fam in fams:
        for g in fam:
            assert graph6_decode(graph6_encode(g)) == g


def test_no_two_emitted_graphs_isomorphic():
    forms = [canonical_form(g).bytes for g in enumerate_graphs(6, 8, 2)]
    assert len(forms) == len(set(forms))
