"""Tree splitting: the centroid split, balance tests, split-based bounds.

Removing a well-chosen vertex from a bounded-degree tree leaves at least two
big components; hanging a layered test vector on each big component bounds
its modified eigenvalue, and the larger of the two quotients bounds the
connectivity of the whole tree.  That composition is what turns the local
branch estimates into the global tree bound.  The vertex is the tree's
centroid, and one rooted pass gives the components of every vertex removal.
``canonical_tree`` gives a tree a canonical order of any size, for the tree
check's witnesses past the labeling kernels' 64 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import lamtilde_test_vector
from .graphs import Graph, _bits, is_tree, max_degree, permute
from .spectral import modified_rayleigh_quotient


@dataclass(frozen=True)
class SplitResult:
    """A splitting vertex and the component sizes its removal leaves."""

    vertex: int
    component_sizes: tuple[int, ...]


def _rooted(t: Graph, root: int) -> tuple[list[int], list[int]]:
    # each vertex's parent (-1 at the root) and the breadth-first order from
    # the root, parents before children
    parent = [-1] * t.n
    order = [root]
    for v in order:
        for u in _bits(t.rows[v]):
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    return parent, order


def _branches(t: Graph) -> list[list[tuple[int, int]]]:
    # for every vertex v, the (mask, attachment vertex) of each component of
    # t - v, from one breadth-first pass rooted at vertex 0: each child's
    # subtree, then, below the root, the rest of the tree through the parent
    parent, order = _rooted(t, 0)
    sub = [1 << v for v in range(t.n)]
    for v in reversed(order[1:]):
        sub[parent[v]] |= sub[v]
    branches = [
        [(sub[u], u) for u in _bits(t.rows[v]) if u != parent[v]] for v in range(t.n)
    ]
    for v in order[1:]:
        branches[v].append((((1 << t.n) - 1) ^ sub[v], parent[v]))
    return branches


def _centroid(t: Graph) -> tuple[int, list[tuple[int, int]]]:
    # the vertex whose largest component is smallest (the lowest index on
    # ties), with the (mask, attachment vertex) of each of its components
    if not is_tree(t):
        raise ValueError("splitting vertex is defined for trees")
    if t.n < 3:
        raise ValueError("need n >= 3")
    branches = _branches(t)
    v = min(range(t.n), key=lambda v: max(m.bit_count() for m, _ in branches[v]))
    return v, branches[v]


def canonical_tree(t: Graph) -> Graph:
    """t relabeled in preorder from a centre, children in the order of
    their AHU codes (Aho, Hopcroft & Ullman, 1974), so isomorphic trees
    give equal graphs; a bicentral tree takes the rooting with the smaller
    code.  Unlike ``canonical_form`` it has no vertex limit.
    """
    if not is_tree(t):
        raise ValueError("canonical_tree is defined for trees")
    n = t.n
    deg = [row.bit_count() for row in t.rows]
    layer = [v for v in range(n) if deg[v] <= 1]
    left = n
    while left > 2:  # peel the leaves until the centre or bicentre is left
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in _bits(t.rows[v]):
                deg[w] -= 1
                if deg[w] == 1:
                    peeled.append(w)
        layer = peeled
    best = None
    for root in layer:
        parent, order = _rooted(t, root)
        code = [""] * n
        kids = [[] for _ in range(n)]
        for v in reversed(order):  # children before parents
            kids[v].sort(key=code.__getitem__)
            code[v] = "(" + "".join(code[w] for w in kids[v]) + ")"
            if v != root:
                kids[parent[v]].append(v)
        if best is None or code[root] < best[0]:
            best = (code[root], root, kids)
    _, root, kids = best
    pre = []
    stack = [root]
    while stack:
        v = stack.pop()
        pre.append(v)
        stack.extend(reversed(kids[v]))
    perm = [0] * n
    for k, v in enumerate(pre):
        perm[v] = k
    return permute(t, perm)


def find_splitting_vertex(t: Graph) -> SplitResult:
    """The tree's centroid and the component sizes its removal leaves.

    The centroid is the vertex whose largest component is smallest (C.
    Jordan, J. Reine Angew. Math. 70, 1869); its components hold at most
    n/2 vertices each.  A tree with two centroids splits into two halves
    across the edge joining them, and the smaller index is returned.  For
    max degree d, at least two of the components have size
    >= (n-2) / (2(d-1)).
    """
    v, comps = _centroid(t)
    sizes = sorted((m.bit_count() for m, _ in comps), reverse=True)
    return SplitResult(vertex=v, component_sizes=tuple(sizes))


def split_component_floor(n: int, d: int) -> Fraction:
    """Guaranteed size (n-2)/(2(d-1)) of the two biggest split components."""
    if n < 3 or d < 2:
        raise ValueError("need n >= 3 and d >= 2")
    return Fraction(n - 2, 2 * (d - 1))


def split_spectral_bound(t: Graph) -> float:
    """Upper bound on the tree's connectivity via the split at the centroid.

    The two largest components hanging off the splitting vertex each get a
    layered test vector rooted at their attachment point; the larger of the
    two modified quotients dominates the tree's connectivity.  Sound for
    every tree on >= 3 vertices, with no depth precondition.
    """
    _, comps = _centroid(t)
    comps.sort(key=lambda c: (-c[0].bit_count(), c[0] & -c[0]))
    d = max(3, max_degree(t))
    quotients = []
    for mask, root in comps[:2]:
        # the component induced on its vertices, renumbered in order
        verts = list(_bits(mask))
        index = {v: i for i, v in enumerate(verts)}
        rows = []
        for v in verts:
            row = 0
            for w in _bits(t.rows[v] & mask):
                row |= 1 << index[w]
            rows.append(row)
        sub = Graph(len(verts), rows)
        x = lamtilde_test_vector(sub, index[root], d)
        quotients.append(modified_rayleigh_quotient(sub, index[root], x))
    return max(quotients)


def is_well_balanced(t: Graph) -> bool:
    """Whether some vertex removal leaves >= 2 components of size >= (n-1)/d.

    d is the tree's maximum degree and must be at least 3 (the notion is
    about bushy trees; paths have no such vertex in general).
    """
    if not is_tree(t):
        raise ValueError("balance test is defined for trees")
    d = max_degree(t)
    if d < 3:
        raise ValueError("balance test needs max degree >= 3")
    threshold = Fraction(t.n - 1, d)
    return any(
        sum(m.bit_count() >= threshold for m, _ in comps) >= 2
        for comps in _branches(t)
    )
