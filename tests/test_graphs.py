"""Graph type, queries, graph6 codec, canonical forms."""

import itertools
import random

import pytest

from algconn import _kernels
from algconn.families import random_tree
from algconn.graphs import (
    CANON_MAX_VERTICES,
    Graph,
    GraphFormatError,
    _components,
    _decode_key,
    _layers,
    _reach,
    canonical_form,
    canonical_key,
    degree_sequence,
    diameter,
    from_edges,
    girth,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_tree,
    max_degree,
    min_degree,
    permute,
    read_graph6_file,
)
from algconn.search import enumerate_cubic


def _random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def _cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_from_edges_basic():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert list(g.neighbors(2)) == [1, 3]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [2, 0])  # asymmetric: 0~1 but not 1~0
    with pytest.raises(ValueError):
        Graph(3, [0, 1, 1])  # 1~0 and 2~0 one way only, below the diagonal


def test_graph_equality_and_hash():
    g1 = from_edges(3, [(0, 1)])
    g2 = from_edges(3, [(0, 1)])
    g3 = from_edges(3, [(0, 2)])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != g3


def test_permute_relabels_edges():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = permute(g, [3, 2, 1, 0])
    assert sorted(h.edges()) == [(0, 1), (1, 2), (2, 3)]
    i = permute(g, [1, 0, 2, 3])
    assert sorted(i.edges()) == [(0, 1), (0, 2), (2, 3)]
    with pytest.raises(ValueError):
        permute(g, [0, 0, 1, 2])


# ---------------------------------------------------------------------------
# queries: degrees, connectivity, diameter, girth
# ---------------------------------------------------------------------------


def test_degree_queries():
    g = from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    assert degree_sequence(g) == (3, 2, 1, 1, 1)
    assert max_degree(g) == 3
    assert min_degree(g) == 1


def test_connectivity():
    assert is_connected(_path(6))
    assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(from_edges(1, []))
    assert not is_connected(from_edges(2, []))
    # the frontier primitive under it: path 0-1-2-3-4 plus the edge 5-6
    g = from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
    assert list(_layers(g.rows, 1 << 2)) == [0b100, 0b1010, 0b10001]
    assert list(_layers(g.rows, 0b11, ~0b100)) == [0b11]  # vertex 2 walled off
    assert _reach(g.rows, 1 << 4, ~(1 << 1)) == 0b11100
    assert _components(g.rows, 0b1111111) == [0b11111, 0b1100000]
    # dropping vertex 2 splits the path; components come by lowest vertex
    assert _components(g.rows, 0b1111011) == [0b11, 0b11000, 0b1100000]
    assert _components(g.rows, 0) == []


def test_is_tree():
    assert is_tree(_path(7))
    assert not is_tree(_cycle(7))
    assert not is_tree(from_edges(4, [(0, 1), (2, 3)]))


def test_diameter_known_values():
    assert diameter(_path(6)) == 5
    assert diameter(_cycle(8)) == 4
    assert diameter(_complete(5)) == 1
    assert diameter(from_edges(1, [])) == 0
    with pytest.raises(ValueError):
        diameter(from_edges(3, [(0, 1)]))


def test_girth_known_values():
    assert girth(_cycle(3)) == 3
    assert girth(_cycle(9)) == 9
    assert girth(_complete(4)) == 3
    assert girth(_path(10)) is None
    assert girth(from_edges(1, [])) is None
    # two cycles sharing a path: 0-1-2-3-0 and 0-1-4-0
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 0)])
    assert girth(g) == 3


def _girth_brute(g):
    # reference: enumerate every simple cycle from its minimum vertex
    best = None
    for s in range(g.n):
        stack = [(s, 1 << s, 0)]
        while stack:
            v, mask, length = stack.pop()
            for u in g.neighbors(v):
                if u == s and length >= 2:
                    if best is None or length + 1 < best:
                        best = length + 1
                elif u > s and not (mask >> u) & 1:
                    stack.append((u, mask | (1 << u), length + 1))
    return best


def test_girth_matches_brute_force():
    rng = random.Random(20240817)
    graphs = [
        _random_graph(rng, rng.randrange(4, 9), p=rng.uniform(0.2, 0.6))
        for _ in range(60)
    ]
    graphs += list(enumerate_cubic(10))  # girth 3 to 5
    graphs += [random_tree(n, 3, seed) for seed, n in enumerate((1, 2, 7, 12))]
    for g in graphs:
        assert girth(g) == _girth_brute(g)


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------


def test_graph6_known_strings():
    # hand-packed references: column-major upper-triangle bits, 6 per char
    assert graph6_encode(_complete(4)) == "C~"
    assert graph6_encode(_path(4)) == "Ch"
    assert graph6_encode(from_edges(1, [])) == "@"
    assert graph6_encode(from_edges(2, [(0, 1)])) == "A_"
    assert graph6_encode(from_edges(2, [])) == "A?"


def test_graph6_decode_known_strings():
    g = graph6_decode("C~")
    assert g == _complete(4)
    # header form is tolerated
    assert graph6_decode(">>graph6<<Ch") == _path(4)


def test_graph6_roundtrip_random():
    rng = random.Random(71)
    for _ in range(120):
        n = rng.randrange(1, 14)
        g = _random_graph(rng, n, p=rng.random())
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_long_form_roundtrip():
    rng = random.Random(72)
    # 62 is the last short-form vertex count; n = 300 is dense
    for n, p in ((62, 0.05), (63, 0.05), (64, 0.05), (100, 0.05), (300, 0.9)):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = from_edges(n, edges)
        s = graph6_encode(g)
        assert s.startswith("~") == (n > 62)
        assert graph6_decode(s) == g
    assert not graph6_encode(_path(62)).startswith("~")


def test_graph6_rejects_malformed():
    with pytest.raises(GraphFormatError):
        graph6_decode("")
    with pytest.raises(GraphFormatError):
        graph6_decode("?")  # n = 0
    with pytest.raises(GraphFormatError):
        graph6_decode("C~~")  # extra characters
    with pytest.raises(GraphFormatError):
        graph6_decode("C")  # missing adjacency characters
    with pytest.raises(GraphFormatError):
        graph6_decode("A" + chr(62))  # character below the graph6 range
    with pytest.raises(GraphFormatError):
        graph6_decode("B" + chr(63 + 4))  # nonzero padding bits for n = 3
    with pytest.raises(GraphFormatError):
        graph6_decode("~??")  # truncated long-form prefix


def test_read_graph6_file(tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_text("C~\n\nCh\n")
    gs = read_graph6_file(str(p))
    assert gs == [_complete(4), _path(4)]


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _brute_isomorphic(g, h):
    if g.n != h.n or g.m != h.m:
        return False
    for perm in itertools.permutations(range(g.n)):
        if permute(g, perm) == h:
            return True
    return False


def test_canonical_key_invariance_and_separation():
    rng = random.Random(90210)
    for _ in range(80):
        n = rng.randrange(2, 8)
        g = _random_graph(rng, n, p=rng.uniform(0.2, 0.8))
        perm = list(range(n))
        rng.shuffle(perm)
        h = permute(g, perm)
        assert canonical_key(g) == canonical_key(h)
        assert canonical_form(g).bytes == canonical_form(h).bytes
        # perturb one edge slot: keys must separate non-isomorphic pairs
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        rows = list(g.rows)
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        g2 = Graph(n, rows)
        if not _brute_isomorphic(g, g2):
            assert canonical_key(g) != canonical_key(g2)


def test_canon_key_tail_is_the_canon_perm_relabeling():
    # the searches read canonical rows and colours straight out of the key
    rng = random.Random(2718)
    for trial in range(120):
        n = rng.randrange(1, 21)  # up to three bytes per row
        g = _random_graph(rng, n, p=rng.uniform(0.1, 0.7))
        colors = tuple(rng.randrange(3) for _ in range(n)) if trial % 2 else None
        order = _kernels.canon_perm(n, g.rows, colors)
        pos = [0] * n
        for k, v in enumerate(order):
            pos[v] = k
        rows, canon_colors = _decode_key(_kernels.canon_key(n, g.rows, colors))
        assert rows == permute(g, pos).rows
        assert canon_colors == (bytes(colors[v] for v in order) if colors else b"")


def test_canonical_form_is_a_graph6_relabeling():
    rng = random.Random(4096)
    for _ in range(40):
        n = rng.randrange(2, 9)
        g = _random_graph(rng, n)
        cf = canonical_form(g)
        h = graph6_decode(cf.bytes.decode("ascii"))
        assert _brute_isomorphic(g, h)


def test_orbit_counts_known_graphs():
    assert canonical_form(_complete(5)).orbit_count == 1
    assert canonical_form(_cycle(6)).orbit_count == 1
    assert canonical_form(_path(5)).orbit_count == 3  # {ends, next, middle}
    star = from_edges(5, [(0, i) for i in range(1, 5)])
    assert canonical_form(star).orbit_count == 2
    assert canonical_form(from_edges(1, [])).orbit_count == 1


def _orbits_brute(g):
    # reference: vertex orbits from every automorphism, found by brute force
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in itertools.permutations(range(g.n)):
        if permute(g, perm) == g:
            for v in range(g.n):
                a, b = find(v), find(perm[v])
                if a != b:
                    parent[a] = b
    return len({find(v) for v in range(g.n)})


def test_orbit_count_matches_brute_force():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = _random_graph(rng, n, p=rng.uniform(0.2, 0.8))
        assert canonical_form(g).orbit_count == _orbits_brute(g)


def test_canonical_form_size_limit():
    g = from_edges(CANON_MAX_VERTICES + 1, [(0, 1)])
    with pytest.raises(ValueError):
        canonical_form(g)
