"""Tree splitting: the heavy-branch walk, balance tests, split-based bounds.

Removing a well-chosen vertex from a bounded-degree tree leaves at least two
big components; hanging a layered test vector on each big component bounds
its modified eigenvalue, and the larger of the two quotients bounds the
connectivity of the whole tree.  That composition is what turns the local
branch estimates into the global tree bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import lamtilde_test_vector
from .graphs import Graph, _bits, _components, _reach, is_tree, max_degree
from .spectral import modified_rayleigh_quotient


@dataclass(frozen=True)
class SplitResult:
    """A splitting vertex and the component sizes its removal leaves."""

    vertex: int
    component_sizes: tuple[int, ...]


def _heaviest_neighbor(g: Graph, v: int) -> int:
    # neighbor whose side of the edge (v, u) is largest; ties to lowest index
    best_u = -1
    best_size = -1
    for u in g.neighbors(v):
        size = _reach(g.rows, 1 << u, ~(1 << v)).bit_count()
        if size > best_size:
            best_size = size
            best_u = u
    return best_u


def find_splitting_vertex(t: Graph) -> SplitResult:
    """Walk to the tree's balance point and report the split there.

    From vertex 0, repeatedly step to the neighbor with the heaviest side
    (lowest index on ties).  The walk settles into a two-cycle across one
    edge {v, w}; the returned vertex is the endpoint whose side of that edge
    holds at least half the tree (the smaller index when both sides are
    exactly half).  For max degree d, at least two of the components left by
    removing it have size >= (n-2) / (2(d-1)).
    """
    if not is_tree(t):
        raise ValueError("splitting vertex is defined for trees")
    if t.n < 3:
        raise ValueError("need n >= 3")
    prev = -1
    v = 0
    for _ in range(2 * t.n + 2):
        nxt = _heaviest_neighbor(t, v)
        if nxt == prev:
            break
        prev, v = v, nxt
    else:
        raise RuntimeError("walk failed to settle")  # pragma: no cover
    a, b = v, nxt  # the two-cycle edge
    side_b = _reach(t.rows, 1 << b, ~(1 << a)).bit_count()
    side_a = t.n - side_b
    if side_a > side_b:
        chosen = a
    elif side_b > side_a:
        chosen = b
    else:
        chosen = min(a, b)
    rest = ((1 << t.n) - 1) ^ (1 << chosen)
    sizes = sorted((m.bit_count() for m in _components(t.rows, rest)), reverse=True)
    return SplitResult(vertex=chosen, component_sizes=tuple(sizes))


def split_component_floor(n: int, d: int) -> Fraction:
    """Guaranteed size (n-2)/(2(d-1)) of the two biggest split components."""
    if n < 3 or d < 2:
        raise ValueError("need n >= 3 and d >= 2")
    return Fraction(n - 2, 2 * (d - 1))


def split_spectral_bound(t: Graph) -> float:
    """Upper bound on the tree's connectivity via the split at the walk vertex.

    The two largest components hanging off the splitting vertex each get a
    layered test vector rooted at their attachment point; the larger of the
    two modified quotients dominates the tree's connectivity.  Sound for
    every tree on >= 3 vertices, with no depth precondition.
    """
    split = find_splitting_vertex(t)
    v = split.vertex
    comps = _components(t.rows, ((1 << t.n) - 1) ^ (1 << v))
    comps.sort(key=lambda m: (-m.bit_count(), m & -m))
    d = max(3, max_degree(t))
    quotients = []
    for mask in comps[:2]:
        sub, root = _induced_rooted(t, mask, v)
        x = lamtilde_test_vector(sub, root, d)
        quotients.append(modified_rayleigh_quotient(sub, root, x))
    return max(quotients)


def _induced_rooted(g: Graph, mask: int, cut: int) -> tuple[Graph, int]:
    # induced subgraph on mask, rooted at the unique neighbor of `cut` inside
    verts = list(_bits(mask))
    index = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        new = 0
        for w in _bits(g.rows[v] & mask):
            new |= 1 << index[w]
        rows.append(new)
    attach = g.rows[cut] & mask
    root_old = (attach & -attach).bit_length() - 1
    return Graph(len(verts), rows), index[root_old]


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
    for v in range(t.n):
        big = 0
        for mask in _components(t.rows, ((1 << t.n) - 1) ^ (1 << v)):
            if mask.bit_count() >= threshold:
                big += 1
                if big >= 2:
                    return True
    return False
