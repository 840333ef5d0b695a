"""Count, without algconn, the graphs that ``algconn verify k2 -n N`` checks.

These are the connected graphs with N vertices, 2(N-2) edges and minimum
degree >= 2, up to isomorphism.  Edges are added one at a time from the
empty graph.  A partial graph is kept only while it can still be finished
(enough edges left to lift every degree to 2 and to join every component),
and each level keeps one graph per isomorphism class: graphs are bucketed by
a colour-refinement invariant and each bucket is tested with networkx's
VF2++.  Run from the root of the checkout:

    python3 perfbench/count_k2.py -n 9     # prints 5553 (a few minutes)

The benchmark stores the n = 9 count as ``K2_N9`` in workloads.py; this
script is how to make it anew.
"""

from __future__ import annotations

import argparse
import itertools

import networkx as nx

MIN_DEG = 2


def invariant(n: int, edges: frozenset) -> tuple:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    col = [len(a) for a in adj]
    for _ in range(3):
        col = [hash((col[v], tuple(sorted(col[u] for u in adj[v])))) for v in range(n)]
    return tuple(sorted(col))


def finishable(n: int, edges: frozenset, left: int) -> bool:
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    deficit = sum(max(0, MIN_DEG - d) for _, d in g.degree)
    return deficit <= 2 * left and nx.number_connected_components(g) - 1 <= left


def count(n: int) -> int:
    m = 2 * (n - 2)
    pairs = list(itertools.combinations(range(n), 2))
    level = [frozenset()]
    for k in range(1, m + 1):
        buckets: dict[tuple, list[nx.Graph]] = {}
        nxt = []
        for edges in level:
            for p in pairs:
                if p in edges:
                    continue
                child = edges | {p}
                if not finishable(n, child, m - k):
                    continue
                g = nx.Graph(child)
                g.add_nodes_from(range(n))
                bucket = buckets.setdefault(invariant(n, child), [])
                if any(nx.vf2pp_is_isomorphic(g, h) for h in bucket):
                    continue
                bucket.append(g)
                nxt.append(child)
        level = nxt
    # with no edge left, finishable() has required min degree 2 and one component
    return len(level)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=9)
    print(count(parser.parse_args().n))


if __name__ == "__main__":
    main()
