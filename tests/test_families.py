"""Graph families: shapes, degrees, and known spectral values."""

import itertools
import math
import random

import pytest

from algconn.families import (
    bethe_tree,
    complete,
    complete_bipartite,
    cycle,
    double_binary_tree,
    named,
    named_graph_names,
    path,
    random_regular,
    random_tree,
    star,
)
from algconn.graphs import (
    canonical_key,
    degree_sequence,
    diameter,
    girth,
    is_connected,
    is_tree,
    max_degree,
)
from algconn.spectral import algebraic_connectivity


def test_basic_family_shapes():
    assert path(1).n == 1 and path(1).m == 0
    assert path(5).m == 4 and is_tree(path(5))
    assert cycle(5).m == 5 and girth(cycle(5)) == 5
    assert star(7).m == 6 and degree_sequence(star(7)) == (6, 1, 1, 1, 1, 1, 1)
    assert complete(6).m == 15
    g = complete_bipartite(10, 2)
    assert g.m == 16 and degree_sequence(g) == (8, 8) + (2,) * 8
    for fn, bad in ((path, 0), (cycle, 2), (star, 1), (complete, 0)):
        with pytest.raises(ValueError):
            fn(bad)
    with pytest.raises(ValueError):
        complete_bipartite(5, 5)


def test_bethe_tree_shape():
    # n = 1 + d ((d-1)^K - 1)/(d-2); all interior degrees d, leaves at depth K
    g = bethe_tree(3, 3)
    assert g.n == 22 and is_tree(g)
    assert degree_sequence(g) == (3,) * 10 + (1,) * 12
    assert diameter(g) == 6
    g = bethe_tree(4, 2)
    assert g.n == 1 + 4 * (3**2 - 1) // 2 == 17
    assert max_degree(g) == 4
    with pytest.raises(ValueError):
        bethe_tree(2, 3)
    # 3,070 vertices fit; the level count rejects 6,142 before building
    assert bethe_tree(3, 10).n == 3070
    with pytest.raises(ValueError, match="exceeds 4096 vertices"):
        bethe_tree(3, 11)


def test_double_binary_tree_shape():
    g = double_binary_tree(3)
    assert g.n == 14 and is_tree(g)
    # ends are leaves; the two roots have degree 3 (two children + bridge)
    assert degree_sequence(g) == (3,) * 6 + (1,) * 8
    assert diameter(g) == 5
    assert double_binary_tree(1).n == 2


def test_named_graphs_structure():
    assert named_graph_names() == ("heawood", "petersen", "tutte_coxeter")
    p = named("petersen")
    assert (p.n, p.m, girth(p), diameter(p)) == (10, 15, 5, 2)
    h = named("heawood")
    assert (h.n, h.m, girth(h), diameter(h)) == (14, 21, 6, 3)
    t = named("tutte_coxeter")
    assert (t.n, t.m, girth(t), diameter(t)) == (30, 45, 8, 4)
    for g in (p, h, t):
        assert degree_sequence(g) == (3,) * g.n
    with pytest.raises(ValueError):
        named("petersen_prime")


def test_named_graph_spectra():
    # Petersen Laplacian spectrum is {0, 2^5, 5^4}; Heawood lambda2 = 3 - sqrt2
    assert abs(algebraic_connectivity(named("petersen")) - 2.0) <= 1e-9
    assert algebraic_connectivity(named("heawood")) == pytest.approx(
        3.0 - math.sqrt(2.0)
    )
    # adjacency spectrum of the Tutte-Coxeter graph is {+-3, +-2, 0}
    assert algebraic_connectivity(named("tutte_coxeter")) == pytest.approx(1.0)


def test_random_regular_is_regular_and_seeded():
    for seed in range(6):
        g = random_regular(12, 3, seed)
        assert degree_sequence(g) == (3,) * 12
    assert random_regular(12, 3, 4) == random_regular(12, 3, 4)
    # K_4 is the only 3-regular graph on 4 vertices
    assert canonical_key(random_regular(4, 3, 0)) == canonical_key(complete(4))
    with pytest.raises(ValueError):
        random_regular(5, 3, 0)  # odd n*d
    with pytest.raises(ValueError):
        random_regular(4, 4, 0)


def test_random_regular_draws_the_sparse_side(monkeypatch):
    # 2d > n - 1: the complement of the (n - 1 - d)-regular draw of the same
    # seed.  Pairing the dense stubs directly restarts about 118,000 times a
    # graph at n = 9, d = 6; the ten sparse draws take 20 shuffles in all
    shuffles = []
    shuffle = random.Random.shuffle

    def record(self, x):
        shuffles.append(len(x))
        return shuffle(self, x)

    monkeypatch.setattr(random.Random, "shuffle", record)
    dense = [random_regular(9, 6, seed) for seed in range(10)]
    assert len(shuffles) <= 100
    for seed, g in enumerate(dense):
        assert degree_sequence(g) == (6,) * 9 and is_connected(g)
        sparse = random_regular(9, 2, seed)
        assert all(
            g.has_edge(u, v) != sparse.has_edge(u, v)
            for u, v in itertools.combinations(range(9), 2)
        )


def test_random_tree_respects_cap():
    for seed in range(8):
        g = random_tree(20, 3, seed)
        assert is_tree(g) and max_degree(g) <= 3
    assert random_tree(15, 4, 2) == random_tree(15, 4, 2)
    assert random_tree(1, 3, 0).n == 1
    with pytest.raises(ValueError):
        random_tree(4, 1, 0)
