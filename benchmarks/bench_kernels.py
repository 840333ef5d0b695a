"""Time the compiled kernels against the pure-Python reference.

The two backends run one algorithm in two languages: ``_speedups.c`` is a
port of ``_pure``, so each ratio is the cost of Python over C for the same
search.  The canonical labelings visit the same nodes, and the free-tree
walks visit the same candidates, pruned by the degree cap and, in the
``max_height=4`` row, by the height cap.

The "partial cubic" row is the input the graph searches send: a cubic graph
on 14 vertices with half of its vertices closed, coloured by the degree each
vertex still lacks.  The sparse n=40 graph shows what the kernels' data
layout costs: its refinement splits many cells.  The star K1,39, the empty
graph on 40 vertices and K20,20 are made of twin cells, whose vertices
share their neighbours; the search descends into one child per twin cell,
so these rows time one path of at most 40 nodes, or three for K20,20.
The hypercube Q6 and the Paley graph P(61) are vertex-transitive without
twin cells: their searches store automorphisms at leaves with equal codes
and prune by orbits, so these rows time the automorphism path.
Each time is the mean over ``timeit``'s autorange, at least 0.2 s of calls.
With the extension built, a closing spot-check compares the two backends'
keys on every ``canon_key`` row and their layouts on every walk row.

Run as:  python3 benchmarks/bench_kernels.py
"""

import random
import timeit

from algconn._kernels import _pure
from algconn.families import named

try:
    from algconn._kernels import _speedups
except ImportError:
    _speedups = None


def _time(fn):
    number, total = timeit.Timer(fn).autorange()
    return total / number


def _random_rows(rng, n, p):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _complete_bipartite(a, b):
    left, right = (1 << a) - 1, ((1 << b) - 1) << a
    return [right] * a + [left] * b


def _hypercube(d):
    n = 1 << d
    return [sum(1 << (v ^ 1 << i) for i in range(d)) for v in range(n)]


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return [sum(1 << j for j in range(q) if (i - j) % q in squares) for i in range(q)]


def _partial_cubic():
    # the Heawood graph with only the edges that touch vertices 0..6
    g = named("heawood")
    closed = (1 << 7) - 1
    rows = [row if v < 7 else row & closed for v, row in enumerate(g.rows)]
    colors = [3 - row.bit_count() for row in rows]
    return g.n, rows, colors


def main():
    impls = [("pure", _pure)]
    if _speedups is not None:
        impls.append(("compiled", _speedups))
    else:
        print("extension not built; timing the pure kernels only\n")

    rng = random.Random(0)
    cases = {
        "canon_key n=14 sparse": (14, _random_rows(rng, 14, 0.25), None),
        "canon_key n=14 dense": (14, _random_rows(rng, 14, 0.7), None),
        "canon_key n=30 regular-ish": (30, _random_rows(rng, 30, 0.12), None),
        "canon_key n=14 partial cubic": _partial_cubic(),
        "canon_key n=40 sparse p=0.1": (40, _random_rows(rng, 40, 0.1), None),
        "canon_key K1,39": (40, [(1 << 40) - 2] + [1] * 39, None),
        "canon_key empty n=40": (40, [0] * 40, None),
        "canon_key K20,20": (40, _complete_bipartite(20, 20), None),
        "canon_key Q6": (64, _hypercube(6), None),
        "canon_key Paley(61)": (61, _paley(61), None),
    }

    print(f"{'benchmark':34s}" + "".join(f"{name:>14s}" for name, _ in impls))
    for label, (n, rows, colors) in cases.items():
        times = []
        for _, mod in impls:
            times.append(_time(lambda m=mod: m.canon_key(n, rows, colors)))
        cells = "".join(f"{t * 1e6:12.1f}us" for t in times)
        print(f"{label:34s}{cells}")

    walkers = {name: mod.free_tree_layouts for name, mod in impls}
    walks = [(14, 3, None), (16, 3, None), (18, 3, None), (20, 3, 4)]
    print(f"\n{'free trees':38s}" + "".join(f"{name:>22s}" for name in walkers))
    for n, dmax, height in walks:
        cap = "" if height is None else f",max_height={height}"
        label = f"free_tree_layouts({n},{dmax}{cap})"
        times = []
        for walk in walkers.values():
            times.append(_time(lambda w=walk: sum(1 for _ in w(n, dmax, height))))
        cells = "".join(f"{t * 1e3:20.2f}ms" for t in times)
        print(f"{label:38s}{cells}")

    if _speedups is not None:
        check = all(
            _pure.canon_key(*case) == _speedups.canon_key(*case)
            for case in cases.values()
        ) and all(
            list(_pure.free_tree_layouts(*w)) == list(_speedups.free_tree_layouts(*w))
            for w in walks
        )
        print(f"\nagreement spot-check: {'ok' if check else 'MISMATCH'}")


if __name__ == "__main__":
    main()
