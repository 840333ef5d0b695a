"""Splitting vertex, guaranteed component sizes, split-based bounds."""

import math
import random
from fractions import Fraction

import pytest

from algconn.families import bethe_tree, double_binary_tree, path, random_tree, star
from algconn.graphs import (
    _canonical_graph,
    _components,
    from_edges,
    graph6_encode,
    max_degree,
    permute,
)
from algconn.spectral import algebraic_connectivity
from algconn.treetools import (
    SplitResult,
    _branches,
    canonical_tree,
    find_splitting_vertex,
    is_well_balanced,
    split_component_floor,
    split_spectral_bound,
)


def test_splitting_vertex_path():
    # odd path: the middle vertex, leaving two equal halves
    res = find_splitting_vertex(path(9))
    assert res.vertex == 4
    assert res.component_sizes == (4, 4)
    # even path: both central edge endpoints tie at n/2; lower index wins
    res = find_splitting_vertex(path(10))
    assert res.vertex == 4
    assert res.component_sizes == (5, 4)


def test_splitting_vertex_star_and_spider():
    res = find_splitting_vertex(star(6))
    assert res.vertex == 0
    assert res.component_sizes == (1, 1, 1, 1, 1)
    # three legs of length 3 from a hub: hub must be the splitting vertex
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)]
    res = find_splitting_vertex(from_edges(10, edges))
    assert res.vertex == 0
    assert res.component_sizes == (3, 3, 3)


def test_splitting_vertex_bethe():
    res = find_splitting_vertex(bethe_tree(3, 3))
    assert res.vertex == 0
    assert res.component_sizes == (7, 7, 7)


def test_splitting_vertex_rejects_non_trees():
    triangle = from_edges(3, [(0, 1), (1, 2), (2, 0)])
    for split in (find_splitting_vertex, split_spectral_bound):
        with pytest.raises(ValueError):
            split(triangle)
        with pytest.raises(ValueError):
            split(path(2))


def test_split_guarantee_random_trees():
    # at least two components of size >= (n-2)/(2(d-1)), exactly
    rng = random.Random(61)
    for _ in range(120):
        n = rng.randrange(3, 40)
        d_max = rng.randrange(2, 6)
        t = random_tree(n, d_max, rng.randrange(10**6))
        d = max(2, max_degree(t))
        res = find_splitting_vertex(t)
        floor = split_component_floor(n, d)
        big = [s for s in res.component_sizes if s >= floor]
        assert len(big) >= 2, (n, d, res)
        assert sum(res.component_sizes) == n - 1


def test_branches_match_component_scan():
    # the one rooted pass lists, for every vertex, the components its
    # removal leaves, each with the one neighbour inside it; the splitting
    # vertex is the one whose largest component is smallest, lowest first
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randrange(3, 40)
        t = random_tree(n, rng.randrange(2, 6), rng.randrange(10**6))
        perm = list(range(n))
        rng.shuffle(perm)
        t = permute(t, perm)
        largest = []
        for v, comps in enumerate(_branches(t)):
            masks = sorted(m for m, _ in comps)
            assert masks == sorted(_components(t.rows, ((1 << n) - 1) ^ (1 << v)))
            assert all(t.rows[v] & m == 1 << u for m, u in comps)
            largest.append(max(m.bit_count() for m in masks))
        assert find_splitting_vertex(t).vertex == largest.index(min(largest))


def test_split_component_floor_values():
    assert split_component_floor(22, 3) == Fraction(5)
    assert split_component_floor(10, 4) == Fraction(4, 3)
    with pytest.raises(ValueError):
        split_component_floor(2, 3)


def test_split_spectral_bound_dominates_lambda2():
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randrange(3, 34)
        t = random_tree(n, rng.randrange(2, 5), rng.randrange(10**6))
        bound = split_spectral_bound(t)
        assert algebraic_connectivity(t) <= bound + 1e-9, t


def test_split_spectral_bound_path_value():
    # P3 split at the middle: components are single vertices, quotient 1
    assert split_spectral_bound(path(3)) == pytest.approx(1.0)
    # long paths: bound far below the trivial 2 - 2cos(pi/3) scale but
    # above the true value
    t = path(30)
    assert algebraic_connectivity(t) < split_spectral_bound(t) < 0.5


def test_split_functions_build_the_branch_table_once(monkeypatch):
    import algconn.treetools

    calls = []

    def counted(t):
        calls.append(t)
        return _branches(t)

    monkeypatch.setattr(algconn.treetools, "_branches", counted)
    for t in (path(3), bethe_tree(3, 3), random_tree(40, 4, 5)):
        for split in (find_splitting_vertex, split_spectral_bound):
            calls.clear()
            split(t)
            assert calls == [t], split.__name__


def test_is_well_balanced():
    assert is_well_balanced(bethe_tree(3, 3))  # root leaves {7,7,7}, (n-1)/d = 7
    assert is_well_balanced(star(4))  # removing hub: {1,1,1} vs (n-1)/d = 1
    # spider with legs (1,1,2): every removal leaves at most one component
    # of size >= (n-1)/d = 4/3
    assert not is_well_balanced(from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]))
    with pytest.raises(ValueError):
        is_well_balanced(path(5))  # max degree 2
    with pytest.raises(ValueError):
        is_well_balanced(from_edges(3, [(0, 1), (1, 2), (2, 0)]))


def test_bethe_balanced_but_doubled_tree_is_not():
    # the root of a Bethe tree splits it into d equal parts, exactly meeting
    # the (n-1)/d threshold; a doubled binary tree's best split gives one
    # half and two quarters, and the quarters miss the threshold
    for K in (2, 3, 4):
        assert is_well_balanced(bethe_tree(3, K))
        assert not is_well_balanced(double_binary_tree(K))


def test_canonical_tree_is_a_canonical_form():
    # relabelings agree, and on trees within the kernels' limit the tree
    # order separates exactly the classes that canonical_form separates
    rng = random.Random(8)
    classes = {}
    for trial in range(1500):
        n = rng.randint(1, 12)
        t = random_tree(n, rng.choice([2, 3, 4]), rng.randrange(10**9))
        perm = list(range(n))
        rng.shuffle(perm)
        c = canonical_tree(t)
        assert canonical_tree(permute(t, perm)) == c
        assert sorted(map(c.degree, range(n))) == sorted(map(t.degree, range(n)))
        classes.setdefault(graph6_encode(_canonical_graph(t)), set()).add(c)
    assert all(len(forms) == 1 for forms in classes.values())
    assert len({next(iter(f)) for f in classes.values()}) == len(classes)
    # past 64 vertices: a bicentral path and a balanced tree on 94
    for t in (path(100), bethe_tree(3, 5)):
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert canonical_tree(permute(t, perm)) == canonical_tree(t)
    with pytest.raises(ValueError):
        canonical_tree(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
