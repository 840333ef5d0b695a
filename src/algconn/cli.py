"""Command-line interface.

Every subcommand reads graphs from one source grammar (``named:NAME``, the
first graph of a file of graph6 lines, or a graph6 literal), emits
machine-readable output on stdout (JSON by default; CSV via ``--format
csv``; the table-shaped ``augment`` and ``compare`` commands default to
CSV), and keeps all diagnostics on stderr.  Floats are printed with 12
significant digits.  Output is identical across runs and thread counts;
wall-clock time is only included when ``--timing`` is given.  ``enumerate``
and ``verify`` have one sub-command per family and per check, each taking
only the options it reads.  Every command takes ``--format`` and
``--timing``.  ``--threads`` sizes the worker pool of a sweep.  The
sub-commands whose families can fill more than one chunk take it
(``enumerate``, ``verify k2``, ``verify tree2``), and so does ``augment``,
which the benchmark runs with it; ``verify cubic`` takes no count, because
its largest family, the 509 cubic graphs on 14 vertices, fits in one chunk.
A count outside ``resolve_threads``' range is a parse error.  A sub-command's
handler returns ``(params, results[, exit_code])``; its default
``--format`` is set on the parser, and ``_emit`` prints the results in the
parsed ``--format``.

Exit codes: 0 success (verify: exhaustive PASS), 1 usage (parse errors
included) or I/O error, 2 verify FAIL, 3 verify PASS from sampling only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from .augment import compare_families, edge_augmentation
from .bounds import bound_report
from .families import named, named_graph_names
from .graphs import (
    Graph,
    GraphFormatError,
    graph6_decode,
    graph6_encode,
    is_connected,
    max_degree,
    read_graph6_file,
)
from .search import (
    DEFAULT_SAMPLES,
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
from .spectral import (
    algebraic_connectivity,
    consensus_decay_rate,
    fiedler_vector,
)
from .treetools import find_splitting_vertex, split_spectral_bound


def _load_graph(source: str) -> Graph:
    """Resolve the shared graph-source grammar.

    ``named:NAME`` | path to a file of graph6 lines, of which the first graph
    is used (every line must decode) | graph6 literal.
    """
    if source.startswith("named:"):
        return named(source[len("named:") :])
    if os.path.exists(source):
        graphs = read_graph6_file(source)
        if not graphs:
            raise GraphFormatError(f"no graph6 line found in {source!r}")
        return graphs[0]
    return graph6_decode(source)


def _round12(obj):
    # 12 significant digits, applied recursively before serialization
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ";".join(_csv_cell(x) for x in v)
    if isinstance(v, dict):
        return ";".join(f"{k}={_csv_cell(x)}" for k, x in v.items())
    return str(v)


# the header of a table that may come out empty
_COLUMNS = {"augment": ("step", "i", "j", "lambda2")}


def _emit(args, params: dict, results, wall: Optional[float]):
    if args.format == "json":
        record = {"command": args.command, "parameters": params, "results": results}
        if wall is not None:
            record["wall_time"] = wall
        print(json.dumps(_round12(record)))
        return
    rows = results if isinstance(results, list) else [results]
    header = list(rows[0].keys()) if rows else list(_COLUMNS.get(args.command, ()))
    if wall is not None:
        # the wall time rides on the first row, later rows get an empty cell,
        # and an empty table gets one row of empty cells to carry it
        rows = [{**row, "wall_time": None} for row in rows or [dict.fromkeys(header)]]
        rows[0]["wall_time"] = wall
        header.append("wall_time")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row.values()] for row in rows)


def _echo(args, *unread) -> dict:
    # the parsed options, less the output options, the worker count and
    # those unread
    skip = {"command", "func", "format", "timing", "threads", *unread}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# subcommand handlers: return (params, results[, exit_code])
# ---------------------------------------------------------------------------


def _cmd_lambda2(args):
    g = _load_graph(args.source)
    results = {
        "n": g.n,
        "m": g.m,
        "lambda2": algebraic_connectivity(g),
    }
    if args.vector:
        results["fiedler_vector"] = [float(x) for x in fiedler_vector(g).vector]
    return {"source": args.source, "vector": args.vector}, results


def _cmd_bounds(args):
    g = _load_graph(args.source)
    report = bound_report(g)
    rows = [dataclasses.asdict(e) for e in report.entries]
    if args.format == "csv":
        results = rows
    else:
        results = {"lambda2": report.lambda2, "bounds": rows}
    return {"source": args.source}, results


def _cmd_tree_split(args):
    g = _load_graph(args.source)
    split = find_splitting_vertex(g)
    results = {
        "vertex": split.vertex,
        "component_sizes": list(split.component_sizes),
        "spectral_bound": split_spectral_bound(g),
        "lambda2": algebraic_connectivity(g),
    }
    return {"source": args.source}, results


def _cmd_enumerate(args):
    if args.family == "trees":
        d_max = args.d if args.d is not None else args.n
        fam = enumerate_trees(args.n, d_max)
    elif args.family == "cubic":
        fam = enumerate_cubic(args.n)
    else:
        fam = enumerate_graphs(args.n, args.m, args.min_degree)
    params = _echo(args, "max_lambda2")
    if args.max_lambda2:
        if args.family == "trees":
            outcome = maximize_trees(args.n, d_max, threads=args.threads)
        else:
            outcome = maximize_lambda2(fam, threads=args.threads)
        return params, {"family": args.family, **dataclasses.asdict(outcome)}
    # plain stream: one graph6 line per graph, independent of --format
    for g in fam:
        print(graph6_encode(g))
    return params, None


def _cmd_verify(args):
    if args.conjecture == "k2":
        rep = verify_conjecture_k2(args.n, threads=args.threads)
    elif args.conjecture == "tree2":
        rep = verify_conjecture_tree2(
            args.d, args.K, samples=args.samples, seed=args.seed, threads=args.threads
        )
    else:
        rep = verify_conjecture_cubic(args.K)
    if not rep.passed:
        code = 2
    elif rep.exhaustive:
        code = 0
    else:
        code = 3
    params = _echo(args, *(("samples", "seed") if rep.exhaustive else ()))
    return params, dataclasses.asdict(rep), code


def _cmd_augment(args):
    trace = edge_augmentation(args.n, args.m)
    rows = [
        dict(zip(_COLUMNS["augment"], (k + 1, i, j, val)))
        for k, ((i, j), val) in enumerate(trace.steps)
    ]
    return {"n": args.n, "m": args.m}, rows


def _cmd_compare(args):
    try:
        m_values = [int(tok) for tok in args.m_list.split(",") if tok]
    except ValueError as exc:  # int's message quotes the bad token
        raise ValueError(f"--m-list: {exc}") from None
    if not m_values:
        raise ValueError("--m-list needs at least one edge count")
    cmp = compare_families(args.n, m_values)
    rows = [dataclasses.asdict(r) for r in cmp.rows]
    return {"n": args.n, "m_list": m_values}, rows


def _cmd_consensus(args):
    g = _load_graph(args.source)
    if not is_connected(g):  # before 10 / lambda2 meets a zero or float noise
        raise ValueError("consensus decay requires a connected graph")
    rng = np.random.default_rng(args.seed)
    u0 = rng.standard_normal(g.n)
    lam2 = algebraic_connectivity(g)
    t_end = args.t_end if args.t_end is not None else 10.0 / lam2
    dt = args.dt if args.dt is not None else 0.08 / (2.0 * max_degree(g))
    fit = consensus_decay_rate(g, u0, t_end, dt)
    results = {
        "lambda2": lam2,
        "rate": fit.rate,
        "rel_gap": abs(fit.rate - lam2) / lam2,
        "fit_rel_err": fit.rel_err,
        "t_end": t_end,
        "dt": dt,
    }
    params = {"source": args.source, "seed": args.seed}
    return params, results


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # parse errors are usage errors: main reports them and exits 1
    def error(self, message):
        raise ValueError(message)


def _threads(text: str) -> int:
    # resolve_threads owns the range, so a bad count is a parse error
    try:
        return resolve_threads(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="algconn",
        description="Algebraic connectivity: values, bounds, searches.",
        epilog=(
            "Graph sources: 'named:NAME' (one of: "
            + ", ".join(named_graph_names())
            + "), the first graph of a file of graph6 lines, or a graph6 literal."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subs, name, help_, func, fmt="json"):
        p = subs.add_parser(name, help=help_)
        p.add_argument(
            "--format", choices=("json", "csv"), default=fmt, help="output format"
        )
        p.add_argument(
            "--timing", action="store_true", help="include wall time in output"
        )
        p.set_defaults(func=func)
        return p

    p = command(sub, "lambda2", "algebraic connectivity of one graph", _cmd_lambda2)
    p.add_argument("source")
    p.add_argument("--vector", action="store_true", help="include Fiedler vector")

    p = command(sub, "bounds", "all applicable bounds for one graph", _cmd_bounds)
    p.add_argument("source")

    p = command(sub, "tree-split", "splitting vertex and split bound", _cmd_tree_split)
    p.add_argument("source")

    p = sub.add_parser("enumerate", help="stream a graph family as graph6")
    families = p.add_subparsers(dest="family", required=True)
    trees = command(families, "trees", "free trees", _cmd_enumerate)
    trees.add_argument("-n", type=int, required=True)
    trees.add_argument("-d", type=int, default=None, help="max degree")
    cubic = command(families, "cubic", "connected cubic graphs", _cmd_enumerate)
    cubic.add_argument("-n", type=int, required=True)
    graphs = command(families, "graphs", "connected graphs", _cmd_enumerate)
    graphs.add_argument("-n", type=int, required=True)
    graphs.add_argument("-m", type=int, required=True, help="edge count")
    graphs.add_argument("--min-degree", type=int, default=0)
    for p in (trees, cubic, graphs):
        p.add_argument(
            "--max-lambda2",
            action="store_true",
            help="report the maximizers instead of streaming",
        )

    p = sub.add_parser("verify", help="check a conjecture on a finite family")
    checks = p.add_subparsers(dest="conjecture", required=True)
    k2 = command(checks, "k2", "K_(2,n-2) is the maximizer", _cmd_verify)
    k2.add_argument("-n", type=int, default=8, help="vertex count")
    tree2 = command(
        checks, "tree2", "the balanced tree is the maximizer", _cmd_verify
    )
    tree2.add_argument("-d", type=int, default=3, help="degree")
    tree2.add_argument("-K", type=int, default=2, help="depth")
    tree2.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    tree2.add_argument("--seed", type=int, default=0)
    p = command(checks, "cubic", "the girth bound is attained once", _cmd_verify)
    p.add_argument("-K", type=int, default=2, help="depth")

    augment = command(
        sub, "augment", "greedy spectral edge augmentation trace", _cmd_augment, "csv"
    )
    augment.add_argument("-n", type=int, required=True)
    augment.add_argument("-m", type=int, required=True)

    # the sweeps' worker count; a plain enumerate stream shares its parser
    # with --max-lambda2.  augment sizes nothing, but perfbench appends
    # --threads 1 to every workload, augment-n200 included, until the
    # ROADMAP item "One benchmark entry point, for both backends" lands
    for p in (trees, cubic, graphs, k2, tree2, augment):
        p.add_argument("--threads", type=_threads, default=None, metavar="N")

    p = command(
        sub, "compare", "augmentation vs bipartite vs regular", _cmd_compare, "csv"
    )
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--m-list", required=True, help="comma-separated edge counts")

    p = command(
        sub, "consensus", "simulated consensus decay vs lambda2", _cmd_consensus
    )
    p.add_argument("source")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        start = time.perf_counter()
        params, results, *code = args.func(args)
    except (GraphFormatError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if results is not None:
        wall = time.perf_counter() - start if args.timing else None
        _emit(args, params, results, wall)
    return code[0] if code else 0


if __name__ == "__main__":
    raise SystemExit(main())
