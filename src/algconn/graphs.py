"""Graph type, structural queries, graph6 codec, and canonical forms.

Graphs are immutable: vertex count ``n`` plus one adjacency bitmask per
vertex (bit ``j`` of ``rows[i]`` set iff ``i ~ j``).  Bitmasks keep the
structural queries and the isomorphism machinery allocation-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import _kernels

MAX_VERTICES = 4096
CANON_MAX_VERTICES = 64

_G6_HEADER = ">>graph6<<"


class GraphFormatError(ValueError):
    """Malformed graph6 text."""


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(rows)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        if len(rows) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        m2 = 0
        for i, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {i} references vertices beyond n")
            if (row >> i) & 1:
                raise ValueError(f"self-loop at vertex {i}")
            m2 += row.bit_count()
            while row:
                low = row & -row
                j = low.bit_length() - 1
                if not (rows[j] >> i) & 1:
                    raise ValueError(f"asymmetric adjacency at ({i}, {j})")
                row ^= low
        self.n = n
        self.rows = rows
        self.m = m2 // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            row = self.rows[i] >> (i + 1)
            j = i + 1
            while row:
                if row & 1:
                    yield (i, j)
                row >>= 1
                j += 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical certificate of an isomorphism class.

    ``bytes`` is the graph6 line of the canonically relabeled graph (equal
    across a class, distinct between classes); ``orbit_count`` is the number
    of vertex orbits of the automorphism group.
    """

    bytes: bytes
    orbit_count: int


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; rejects loops, duplicates, bad ids."""
    rows = [0] * n
    seen = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside 0..{n - 1}")
        key = (i, j) if i < j else (j, i)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, rows)


def permute(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel: vertex v becomes perm[v]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of 0..n-1")
    rows = [0] * g.n
    for i in range(g.n):
        row = g.rows[i]
        new = 0
        while row:
            low = row & -row
            new |= 1 << perm[low.bit_length() - 1]
            row ^= low
        rows[perm[i]] = new
    return Graph(g.n, rows)


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Vertex degrees in non-increasing order."""
    return tuple(sorted((r.bit_count() for r in g.rows), reverse=True))


def max_degree(g: Graph) -> int:
    return max(r.bit_count() for r in g.rows)


def min_degree(g: Graph) -> int:
    return min(r.bit_count() for r in g.rows)


def _layers(rows, start: int, within: int = -1) -> Iterator[int]:
    """Breadth-first layers, as bitmasks, out of the vertex set ``start``.

    ``rows`` are adjacency bitmasks (a Graph's or a partial search state's),
    and only vertices in the bitmask ``within`` are entered.  The package's
    bitmask walks (connectivity, distances, girth, components, tree sides)
    are all built on this one frontier loop.
    """
    seen = frontier = start
    while frontier:
        yield frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier


def _reach(rows, start: int, within: int = -1) -> int:
    """Bitmask of the vertices reachable from ``start`` inside ``within``."""
    seen = 0
    for layer in _layers(rows, start, within):
        seen |= layer
    return seen


def _components(rows, within: int) -> list[int]:
    """Components of the subgraph induced on ``within``, by lowest vertex."""
    comps = []
    while within:
        comp = _reach(rows, within & -within, within)
        comps.append(comp)
        within &= ~comp
    return comps


def _bits(mask: int) -> Iterator[int]:
    """Set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_connected(g: Graph) -> bool:
    return _reach(g.rows, 1) == (1 << g.n) - 1


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def diameter(g: Graph) -> int:
    """Largest pairwise distance; raises on disconnected input."""
    if not is_connected(g):
        raise ValueError("diameter of a disconnected graph")
    return max(sum(1 for _ in _layers(g.rows, 1 << v)) - 1 for v in range(g.n))


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None when the graph is acyclic.

    From each root, walk the breadth-first layers: a vertex of layer k with
    two neighbours in layer k - 1 closes a walk of length 2k, and one with a
    neighbour in its own layer a walk of length 2k + 1.  Each such walk
    contains a cycle no longer than itself, and for a root on a shortest
    cycle the bound is attained.
    """
    best = g.n + 1  # longer than any cycle
    for r in range(g.n):
        prev = 0
        for k, layer in enumerate(_layers(g.rows, 1 << r)):
            if 2 * k >= best:
                break
            for u in _bits(layer):
                if g.rows[u] & layer:
                    best = min(best, 2 * k + 1)
                if (g.rows[u] & prev).bit_count() >= 2:
                    best = min(best, 2 * k)
            prev = layer
    return best if best <= g.n else None


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def canonical_key(g: Graph) -> bytes:
    """Compact isomorphism-class key (cheaper than canonical_form).

    Layout: one byte ``n``, then the canonically relabeled adjacency rows,
    each big-endian in ``(n + 7) // 8`` bytes.  The tail is the canonical
    graph itself, and the searches use the key as their state for that
    reason; ``_decode_key`` decodes it.  The kernel keys ``g`` with ``n``
    zero colours, which start its search from one cell, as an uncoloured
    labeling does, and the ``n`` colour bytes are dropped.  The kernel
    raises ``ValueError`` unless 1 <= n <= ``CANON_MAX_VERTICES``.
    """
    key = _kernels.canon_key(g.n, g.rows, bytes(g.n))
    return key[:1] + key[1 + g.n :]


def _decode_key(key: bytes) -> tuple[tuple[int, ...], bytes]:
    """Canonical adjacency rows and colours held in a key.

    The key is a kernel ``canon_key``, whose colours come in canonical
    order, or a ``canonical_key``, whose colours are empty.  Rows have a
    fixed width, so keys of one vertex count and one colour multiset sort
    exactly as their rows tuples do.
    """
    n = key[0]
    nb = (n + 7) // 8
    tail = len(key) - n * nb
    rows = tuple(
        int.from_bytes(key[k : k + nb], "big") for k in range(tail, len(key), nb)
    )
    return rows, key[1:tail]


def _canonical_graph(g: Graph) -> Graph:
    """g relabeled into its canonical order."""
    return Graph(g.n, _decode_key(canonical_key(g))[0])


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical graph6 certificate plus the number of vertex orbits.

    Orbits are recovered without group machinery: vertices u, v lie in the
    same orbit exactly when the graphs with u (resp. v) individualized by a
    colour are isomorphic, so one coloured key per vertex suffices.
    """
    canon = _canonical_graph(g)  # raises first when g is too large
    marked = []
    for v in range(g.n):
        colors = [0] * g.n
        colors[v] = 1
        marked.append(_kernels.canon_key(g.n, g.rows, tuple(colors)))
    return CanonicalForm(
        bytes=graph6_encode(canon).encode("ascii"),
        orbit_count=len(set(marked)),
    )


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------


def graph6_encode(g: Graph) -> str:
    """graph6 line for g (no trailing newline, no header)."""
    parts = []
    n = g.n
    if n <= 62:
        parts.append(chr(n + 63))
    else:
        parts.append("~")
        parts.append(chr(((n >> 12) & 63) + 63))
        parts.append(chr(((n >> 6) & 63) + 63))
        parts.append(chr((n & 63) + 63))
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                parts.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        parts.append(chr(acc + 63))
    return "".join(parts)


_G6_BITS = str.maketrans({chr(v + 63): f"{v:06b}" for v in range(64)})


def graph6_decode(text: str) -> Graph:
    """Parse one graph6 line; tolerates the optional format header."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise GraphFormatError("empty graph6 string")
    data = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise GraphFormatError(f"character {ch!r} outside graph6 range")
        data.append(v)
    if data[0] < 63:
        n = data[0]
        idx = 1
    else:
        if len(data) >= 8 and data[1] == 63:
            n = 0
            for v in data[2:8]:
                n = (n << 6) | v
            idx = 8
        elif len(data) >= 4:
            n = (data[1] << 12) | (data[2] << 6) | data[3]
            idx = 4
        else:
            raise GraphFormatError("truncated vertex-count prefix")
    if n == 0:
        raise GraphFormatError("graph6 encodes an empty graph")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds limit {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - idx != need:
        raise GraphFormatError(
            f"expected {need} adjacency characters for n={n}, got {len(data) - idx}"
        )
    # six bits per character, most significant first, then zero padding
    bits = s[idx:].translate(_G6_BITS)
    if "1" in bits[nbits:]:
        raise GraphFormatError("nonzero padding bits")
    rows = [0] * n
    start = 0
    for j in range(1, n):
        # column-major upper triangle, as graph6_encode writes it
        for i, b in enumerate(bits[start : start + j]):
            if b == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        start += j
    return Graph(n, rows)


def read_graph6_file(path: str) -> list[Graph]:
    """All graphs in a file of graph6 lines (blank lines skipped)."""
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(graph6_decode(line))
    return out
