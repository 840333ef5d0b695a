"""Pure-Python implementations of the performance-critical kernels.

Two kernels live here, each behind one entry point: ``canon_key``, the
canonical labeling of small graphs (individualization plus equitable
refinement with automorphism pruning), and ``free_tree_layouts``, the
generation of free trees as level sequences.  The compiled extension module
``_speedups`` is a port of this module to C, with the same entry points and
identical results, and this module is both the fallback and the reference
the extension is tested against.

Graphs are passed as ``(n, rows)`` where ``rows[i]`` is an integer bitmask of
the neighbours of vertex ``i``.  The labeling holds each refinement cell as
a bitmask of its vertices too, as ``_speedups.c`` does, so a splitter of
one or two vertices splits a cell by mask operations, and ``canon_key``
writes its rows from the best leaf, which relabeled them to build its code;
the canonical order itself never leaves the search.

Every argument of both entry points is required: ``canon_key(n, rows,
colors)`` and ``free_tree_layouts(n, dmax, max_height)``.  The callers own
the defaults: ``graphs.canonical_key`` keys an uncoloured graph with ``n``
zero colours, and ``search.enumerate_trees`` passes ``n`` as the height.
The entry points take ``1 <= n <= 64`` and raise ``ValueError`` otherwise,
at the call and with the compiled kernels' message; a short ``rows`` or
``colors`` or a neighbour ``>= n`` raises ``IndexError``.
"""

from __future__ import annotations


def _refine(adj, cells, stable):
    """Equitable refinement of an ordered partition.

    A cell is the bitmask of its vertices, as in ``_speedups.c``.  Cells are
    split by the count of neighbours inside each splitter cell, pieces
    ordered by ascending count.  Both the splitting key and the piece order
    are label-invariant, so isomorphic inputs refine to corresponding
    partitions.  Splitters are tried in cell order, and the scan restarts at
    the first cell after every split.

    Most splitters have one or two vertices, and those split a cell by mask
    operations, with no loop over its vertices.  A one-vertex splitter {s}
    cuts the count-0 piece ``cell & ~adj[s]`` and then the count-1 piece
    ``cell & adj[s]``; a two-vertex splitter {s, t} cuts the count-0, 1 and
    2 pieces by ``adj[s] | adj[t]``, ``adj[s] ^ adj[t]`` and
    ``adj[s] & adj[t]``.  A larger splitter groups each cell's vertices by
    their counts.

    ``stable`` holds cells against which every cell is already uniform; it
    is updated in place.  Such a cell cannot split any cell of this
    partition or of a refinement of it, so a splitter in ``stable`` is
    skipped, and a splitter joins ``stable`` once applied, since its pieces
    are then uniform against it.  Skipping is exact: the result is the
    partition the scan reaches without it.  On return ``stable`` holds every
    cell of the result, unless the result is discrete: the scan stops once
    every cell is a singleton, since no cell can split further, and a leaf
    of the search never reads ``stable``.
    """
    n = len(adj)
    si = 0
    while si < len(cells) < n:
        splitter = cells[si]
        if splitter in stable:
            si += 1
            continue
        stable.add(splitter)
        new_cells = None  # started at the first cell that splits
        high = splitter & (splitter - 1)  # the splitter less its lowest vertex
        if high & (high - 1):  # three vertices or more
            for ci, cell in enumerate(cells):
                if cell & (cell - 1):
                    groups = {}
                    rest = cell
                    while rest:
                        low = rest & -rest
                        k = (adj[low.bit_length() - 1] & splitter).bit_count()
                        groups[k] = groups.get(k, 0) | low
                        rest ^= low
                    if len(groups) > 1:
                        if new_cells is None:
                            new_cells = cells[:ci]
                        new_cells += [groups[k] for k in sorted(groups)]
                        continue
                if new_cells is not None:
                    new_cells.append(cell)
        elif high:  # two vertices: two is the count-2 piece, hit ^ two count 1
            a = adj[high.bit_length() - 1]
            b = adj[(splitter ^ high).bit_length() - 1]
            row, both = a | b, a & b
            for ci, cell in enumerate(cells):
                hit = cell & row
                two = hit & both
                if hit and (hit != cell or two and two != cell):
                    if new_cells is None:
                        new_cells = cells[:ci]
                    new_cells += [p for p in (cell ^ hit, hit ^ two, two) if p]
                elif new_cells is not None:
                    new_cells.append(cell)
        else:  # one vertex: hit is the count-1 piece
            row = adj[splitter.bit_length() - 1]
            for ci, cell in enumerate(cells):
                hit = cell & row
                if hit and hit != cell:
                    if new_cells is None:
                        new_cells = cells[:ci]
                    new_cells += (cell ^ hit, hit)
                elif new_cells is not None:
                    new_cells.append(cell)
        if new_cells is None:
            si += 1
        else:
            cells = new_cells
            si = 0
    return cells


def _twins(adj, vs):
    """Whether the vertices ``vs`` of a cell are twins.

    Twins have the same neighbours, which makes the cell a coclique, or the
    same closed neighbourhoods, which makes it a clique.  Either way they
    share their neighbours outside the cell, and every permutation of the
    cell, fixing all other vertices, is an automorphism.
    """
    row = adj[vs[0]]
    if all(adj[v] == row for v in vs):
        return True
    row |= 1 << vs[0]
    return all(adj[v] | 1 << v == row for v in vs)


def _vertices(cell):
    """The vertices of a cell bitmask, in ascending order."""
    out = []
    while cell:
        low = cell & -cell
        out.append(low.bit_length() - 1)
        cell ^= low
    return out


def _close(orbit, frontier, autos, prefix):
    """Grow ``orbit`` from ``frontier`` under the ``autos`` fixing ``prefix``.

    Only the automorphisms found at leaves can need the filter; a twin
    transposition (v w) would prune exactly without it.  It moves a child
    only when the child is v or w.  If the other vertex is a child too,
    both lie in the target cell, so neither is in the prefix and the filter
    passes the transposition anyway.  If the other vertex is in the prefix,
    the child maps onto a prefix vertex.  That vertex is not a child, and
    every automorphism that passes the filter fixes it.  (Another twin
    transposition may move it on to a child; twins of twins are twins of
    the same kind, so that child and the first are twins in one cell, and
    swapping them is an automorphism that fixes the prefix.)
    """
    while frontier:
        u = frontier.pop()
        for a, fixed in autos:
            if prefix & ~fixed:
                continue
            w = a[u]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)


def canon_key(n, rows, colors):
    """Bytes identifying the colour-preserving isomorphism class of a graph.

    Layout: one byte ``n``, the ``n`` colour values in ascending order, then
    the adjacency rows relabeled into the canonical order, each packed
    big-endian in ``(n + 7) // 8`` bytes.  The tail is thus the canonical
    graph itself and the colour bytes are the colours in canonical order;
    the graph searches keep keys as their states and decode both from them.
    Two graphs receive identical keys exactly when they are isomorphic by a
    map that preserves colours.  Equal colours start the search from one
    cell, as an uncoloured labeling does.

    The search's partitions are lists of cell bitmasks, refined by
    ``_refine``, and a node individualizes each vertex v of its first
    non-singleton cell in ascending order, as the cell ``1 << v`` before the
    rest of the cell.  The search minimizes, over the
    individualization-refinement tree, the pair (sequence of refined
    cell-size tuples, adjacency code of the leaf order), and keys the graph
    by the first leaf, in depth-first order, that attains the minimum.
    Cell-size sequences are label-invariant, which makes pruning by prefix
    comparison exact; automorphisms discovered at repeated leaves prune
    sibling branches via orbit closure.  An automorphism maps the subtree of
    one child onto that of another with the same keys, so pruning never
    skips that first minimal leaf.  Each leaf relabels every row to build
    its code, and the key is written from the rows of the best leaf.

    The best leaf's chunk path is written as the search descends.  A tied
    node has the best's chunks at every depth so far, and only compares.  An
    untied node sorts before the best, and so does every leaf below it: the
    first one reached becomes the new best, so the node truncates the best
    path at its depth and writes its own chunk there, and its first child
    writes on.  So a node is tied once its first child returns: the new best
    lies below an untied node, and a tied node stays tied.  The root is
    untied, as there is no best yet.  A leaf then wins if it is untied, or
    tied with a smaller code; a tied leaf with an equal code is the best
    leaf's image under an automorphism.  No tied node lies below the best
    leaf, whose chunk is the discrete partition: the node's parent, tied
    too, has the chunk the best path has at its depth, which is not
    discrete, so the best path always reaches a tied node's depth.

    Twin cells are pruned without a search (McKay & Piperno, "Practical
    graph isomorphism, II", 2014).  When the target cell's vertices are
    twins (see ``_twins``), every permutation of the cell is an automorphism
    that fixes the prefix, so every child after the first is an image of the
    first child.  The search descends into the first child only, and stores
    the transposition of the cell's two smallest vertices, by which the
    ancestors still prune.  The rule is exact: the subtrees it skips hold
    only images of leaves of the first child's subtree, and come after it in
    depth-first order, so none holds the first minimal leaf.
    """
    if not 1 <= n <= 64:
        raise ValueError("the kernels support 1 <= n <= 64")
    adj = rows
    colors = colors[:n]
    by = {}
    for v in range(n):
        by[colors[v]] = by.get(colors[v], 0) | 1 << v
    cells = [by[c] for c in sorted(by)]

    best_chunks = []  # the chunk path of the best leaf, written as found
    best_code = best_order = best_rows = None
    autos = []  # (permutation, bitmask of its fixed points)

    def rec(cells, stable, depth, tied, prefix):
        # prefix: bitmask of the vertices individualized on the way here
        nonlocal best_code, best_order, best_rows
        cells = _refine(adj, cells, stable)
        chunk = tuple(map(int.bit_count, cells))
        if tied:
            bc = best_chunks[depth]
            if chunk > bc:
                return
            tied = chunk == bc
        if not tied:
            # every leaf below sorts before the best: the first one reached
            # is the new best, and its path starts with this one
            del best_chunks[depth:]
            best_chunks.append(chunk)
        if len(cells) == n:  # discrete: a leaf
            order = tuple(c.bit_length() - 1 for c in cells)
            pos = [0] * n
            for k, v in enumerate(order):
                pos[v] = k
            # relabeled[k]: the neighbours of order[k] by canonical position;
            # code[k]: those among positions < k
            relabeled = []
            code = []
            for k, v in enumerate(order):
                row = adj[v]
                c = 0
                while row:
                    low = row & -row
                    c |= 1 << pos[low.bit_length() - 1]
                    row ^= low
                relabeled.append(c)
                code.append(c & ((1 << k) - 1))
            code = tuple(code)
            if not tied or code < best_code:
                best_code, best_order, best_rows = code, order, relabeled
            elif code == best_code:
                a = [0] * n
                fixed = 0
                for v, w in zip(order, best_order):
                    a[v] = w
                    if v == w:
                        fixed |= 1 << v
                autos.append((tuple(a), fixed))
            return
        target = 0  # the first cell of two vertices or more
        while not cells[target] & (cells[target] - 1):
            target += 1
        cell = cells[target]
        vs = _vertices(cell)
        twin = _twins(adj, vs)
        if twin:
            # every permutation of the cell is an automorphism fixing the
            # prefix, so each later child is an image of the first
            v, w = vs[0], vs[1]
            swap = list(range(n))
            swap[v], swap[w] = w, v
            autos.append((tuple(swap), ((1 << n) - 1) ^ (1 << v | 1 << w)))
        # orbit: the closure of the children tried so far under the stored
        # automorphisms that fix the prefix pointwise; it grows from the last
        # child alone unless automorphisms were stored since the last closure
        seen = len(autos)
        orbit = set()
        for v in vs:
            if v in orbit:
                continue
            rest = cell ^ 1 << v
            sub = cells[:target] + [1 << v, rest] + cells[target + 1 :]
            # every cell is uniform against the cell and, once {v} is
            # applied, against v: so against rest, which cannot split
            rec(sub, stable | {rest}, depth + 1, tied, prefix | 1 << v)
            if twin or v == vs[-1]:
                return  # later children: none, or images of this one
            tied = True
            orbit.add(v)
            _close(orbit, list(orbit) if len(autos) > seen else [v], autos, prefix)
            seen = len(autos)

    rec(cells, set(), 0, False, 0)
    nb = (n + 7) // 8
    out = bytearray([n])
    out += bytes(sorted(colors))
    for row in best_rows:
        out += row.to_bytes(nb, "big")
    return bytes(out)


# ---------------------------------------------------------------------------
# Free trees as level sequences (Wright/Richmond/Odlyzko/McKay successor).
#
# A tree on n vertices is a layout ``(0, l1, ..., l_{n-1})`` where entry i is
# the depth of vertex i in a preorder walk.  The successor scheme enumerates
# every free (unrooted, unlabeled) tree exactly once via its canonical rooted
# representation, visiting rooted sequences in reverse-lexicographic order.
#
# The walk is pruned by prefix, against two caps.  Whether vertex i's
# arrival gives its parent more than dmax neighbours, or puts it deeper than
# max_height, depends on layout[:i+1] alone, so when it does, every later
# rooted sequence with that prefix breaks a cap too; in reverse-lexicographic
# order they are exactly the sequences before ``_next_rooted_tree(layout,
# i)``, and the walk jumps there.  After each step, a rooted successor or a
# jump, the walk skips ahead until a free-canonical sequence is reached,
# testing each candidate once.  The yielded layouts and their order are
# those of the unpruned walk filtered by maximum degree and height.
#
# Every layout is rooted at a centre of its tree, so a layout of height h
# has diameter 2h - 1 or 2h; the height cap is a diameter cap, which the
# tree maximizer in ``search`` turns into a bound on lambda2.
# ---------------------------------------------------------------------------


def _next_rooted_tree(layout, p=-1):
    """Successor of a rooted-tree level sequence from position p (p < 0: the
    last vertex not at depth 1), or None at the last one."""
    if p < 0:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    result = list(layout)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _split_layout(layout):
    """Split at the second depth-1 vertex: (first subtree, rest of tree)."""
    # the first depth-1 vertex is vertex 1
    m = next((i for i in range(2, len(layout)) if layout[i] == 1), len(layout))
    return [lev - 1 for lev in layout[1:m]], [0, *layout[m:]]


def _is_free_canonical(layout):
    left, rest = _split_layout(layout)
    return (max(left), len(left), left) <= (max(rest), len(rest), rest)


def _next_free_tree(candidate):
    """The next candidate after one that is not free-canonical, or None."""
    p = len(_split_layout(candidate)[0])
    new_candidate = _next_rooted_tree(candidate, p)
    if new_candidate is not None and candidate[p] > 2:
        h = max(_split_layout(new_candidate)[0])
        new_candidate[-h - 1 :] = range(1, h + 2)
    return new_candidate


def _first_over_cap(layout, dmax, max_height):
    """First i deeper than max_height or whose arrival gives its parent more
    than dmax neighbours, or -1.

    A vertex's neighbours are its children plus, below the root, its parent.
    """
    n = len(layout)
    last = [0] * n  # last[k]: latest vertex at depth k
    deg = [0] * n
    for i in range(1, n):
        lev = layout[i]
        if lev > max_height:
            return i
        parent = last[lev - 1]
        deg[parent] += 1
        if deg[parent] > dmax:
            return i
        deg[i] = 1
        last[lev] = i
    return -1


def free_tree_layouts(n, dmax, max_height):
    """Level sequences of all free trees on n vertices, max degree <= dmax.

    Exactly one representative per isomorphism class, in the successor
    order of the underlying enumeration, and only the layouts whose deepest
    level is at most ``max_height``; a height of n - 1 or more caps nothing.
    The arguments are checked at the call, and the walk runs as the iterator
    is consumed.  The walk needs no special case: n <= 2 and dmax < 2 fall
    out of the caps.
    """
    if not 1 <= n <= 64:
        raise ValueError("the kernels support 1 <= n <= 64")
    # the path rooted at its centre, the first free-canonical sequence
    path = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    return _walk(path, dmax, max_height)


def _walk(layout, dmax, max_height):
    while layout is not None:
        i = _first_over_cap(layout, dmax, max_height)
        if i < 0:
            yield tuple(layout)
        else:
            # skip every sequence with the prefix layout[:i+1]; a root child
            # cannot be decremented, and the later sequences that share the
            # prefix up to the last deeper vertex also share it up to i
            while layout[i] == 1:
                i -= 1
        layout = _next_rooted_tree(layout, i)
        while layout is not None and not _is_free_canonical(layout):
            layout = _next_free_tree(layout)
