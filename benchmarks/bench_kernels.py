"""Compare the compiled kernels against the pure-Python reference.

The canonical-labeling rows time one algorithm in two implementations.  The
free-tree rows do not: the pure walk prunes every subtree of candidates whose
prefix already breaks the degree cap, while the compiled walk visits every
free tree and filters afterwards, so their ratio compares two algorithms.

Run as:  python3 benchmarks/bench_kernels.py
"""

import random
import time

from algconn._kernels import _pure

try:
    from algconn._kernels import _speedups
except ImportError:
    _speedups = None


def _time(fn, reps):
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def _random_rows(rng, n, p):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def main():
    impls = [("pure", _pure)]
    if _speedups is not None:
        impls.append(("compiled", _speedups))
    else:
        print("extension not built; timing the pure kernels only\n")

    rng = random.Random(0)
    cases = {
        "canon_key n=14 sparse": (14, _random_rows(rng, 14, 0.25)),
        "canon_key n=14 dense": (14, _random_rows(rng, 14, 0.7)),
        "canon_key n=30 regular-ish": (30, _random_rows(rng, 30, 0.12)),
    }

    print(f"{'benchmark':34s}" + "".join(f"{name:>14s}" for name, _ in impls))
    for label, (n, rows) in cases.items():
        times = []
        for _, mod in impls:
            reps = 2000 if mod is not _pure else 200
            times.append(_time(lambda m=mod: m.canon_key(n, rows), reps))
        cells = "".join(f"{t * 1e6:12.1f}us" for t in times)
        print(f"{label:34s}{cells}")

    # two algorithms, not two implementations of one (see the module docstring)
    walks = {"pure": "pure, pruned", "compiled": "compiled, unpruned"}
    print(f"\n{'free trees':34s}" + "".join(f"{walks[name]:>22s}" for name, _ in impls))
    for n, dmax in [(14, 3), (16, 3), (18, 3)]:
        label = f"free_tree_layouts({n},{dmax}) walk"
        times = []
        for _, mod in impls:
            reps = 20 if mod is not _pure else 2
            times.append(
                _time(lambda m=mod: sum(1 for _ in m.free_tree_layouts(n, dmax)), reps)
            )
        cells = "".join(f"{t * 1e3:20.2f}ms" for t in times)
        print(f"{label:34s}{cells}")

    if _speedups is not None:
        check = all(
            _pure.canon_key(n, rows) == _speedups.canon_key(n, rows)
            for n, rows in cases.values()
        )
        print(f"\nagreement spot-check: {'ok' if check else 'MISMATCH'}")


if __name__ == "__main__":
    main()
