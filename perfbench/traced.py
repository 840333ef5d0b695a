"""Run one algconn CLI command in this process with every layer boundary timed.

Usage: python3 perfbench/traced.py RESULT_JSON -- CLI_ARGS...

Run it with algconn's ``src`` on PYTHONPATH.  Wrappers go where callers look
names up: the attributes of ``algconn._kernels``, every public function of the
library modules (in the defining module and wherever another algconn module
imported it), ``Graph.__init__``, and ``numpy.linalg.eigh``/``eigvalsh``.
Each thread keeps its own stack of open spans, so a span's self time is its
duration minus its children on the same thread only: work a pool worker does
while the main thread waits is not subtracted from the main thread.  Span
totals stay in memory and go to RESULT_JSON at exit, with the captured stdout,
the exit code and the list of wrapped names; a name the library no longer has
is simply not wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import math
import sys
import threading
import time
import types

_now = time.perf_counter

# modules whose public functions are layer entry points
LIBRARY_LAYERS = ("graphs", "spectral", "families", "bounds", "treetools", "search", "augment")
KERNEL_NAMES = ("canon_perm", "canon_key", "free_tree_layouts", "count_free_trees")


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = ([], {})
            with self._lock:
                self._tables.append(st[1])
        return st

    def enter(self, key: str) -> list:
        stack, _ = self._state()
        frame = [key, _now(), 0.0]
        stack.append(frame)
        return frame

    def leave(self, frame: list, calls: int, matrices: int) -> None:
        stack, table = self._state()
        dur = _now() - frame[1]
        stack.pop()
        if stack:
            stack[-1][2] += dur
        row = table.get(frame[0])
        if row is None:
            row = table[frame[0]] = [0, 0, 0.0, 0.0]
        row[0] += calls
        row[1] += matrices
        row[2] += dur
        row[3] += dur - frame[2]

    def totals(self) -> dict:
        merged: dict[str, list] = {}
        with self._lock:
            for table in self._tables:
                for key, row in table.items():
                    acc = merged.setdefault(key, [0, 0, 0.0, 0.0])
                    for k in range(4):
                        acc[k] += row[k]
        return {
            k: {"calls": r[0], "matrices": r[1], "s": r[2], "self_s": r[3]}
            for k, r in sorted(merged.items())
        }


def _matrices(args) -> int:
    # matrices in a first argument of shape (..., n, n); 0 for anything else
    shape = getattr(args[0], "shape", ()) if args else ()
    return math.prod(shape[:-2]) if len(shape) >= 2 else 0


def wrap(tracer: Tracer, key: str, fn):
    def timed_iter(gen):
        # a generator's work happens in next(); each step is a span
        while True:
            frame = tracer.enter(key)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.leave(frame, 0, 0)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(key)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.leave(frame, 1, _matrices(args))
        if isinstance(out, types.GeneratorType):
            return timed_iter(out)
        return out

    return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced name; return the span keys that were wrapped."""
    import numpy as np

    import algconn.cli

    # the kernel implementations call each other directly; only calls into the
    # kernel layer from outside it count
    callers = [
        m
        for name, m in list(sys.modules.items())
        if name.startswith("algconn") and not name.startswith("algconn._kernels._")
    ]
    wrapped = []

    def rebind(key: str, original) -> None:
        new = wrap(tracer, key, original)
        for m in callers:
            for attr, val in list(vars(m).items()):
                if val is original:
                    setattr(m, attr, new)
        wrapped.append(key)

    kernels = sys.modules.get("algconn._kernels")
    for name in KERNEL_NAMES:
        if hasattr(kernels, name):
            rebind(f"kernels.{name}", getattr(kernels, name))
    for layer in LIBRARY_LAYERS:
        mod = sys.modules.get(f"algconn.{layer}")
        for name, fn in list(vars(mod).items()) if mod else ():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                rebind(f"{layer}.{name}", fn)
    graph = getattr(sys.modules.get("algconn.graphs"), "Graph", None)
    if graph is not None:
        graph.__init__ = wrap(tracer, "graphs.Graph", graph.__init__)
        wrapped.append("graphs.Graph")
    algconn.cli.main = wrap(tracer, "cli.main", algconn.cli.main)
    for name in ("eigh", "eigvalsh"):
        setattr(np.linalg, name, wrap(tracer, f"linalg.{name}", getattr(np.linalg, name)))
    return wrapped + ["cli.main", "linalg.eigh", "linalg.eigvalsh"]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    result_path, cli_args = argv[0], argv[2:]
    import algconn
    import algconn.cli

    tracer = Tracer()
    wrapped = install(tracer)
    buf = io.StringIO()
    start = _now()
    with contextlib.redirect_stdout(buf):
        code = algconn.cli.main(cli_args)
    run_s = _now() - start
    record = {
        "backend": algconn.kernel_backend(),
        "exit_code": code,
        "run_s": run_s,
        "stdout": buf.getvalue(),
        "wrapped": wrapped,
        "spans": tracer.totals(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
