"""Sample the speed of the CPU the benchmark runs on, while the jobs run.

Usage: python3 perfbench/speed_probe.py PERIOD_S

Started by run.py on the same (pinned) CPU as the jobs.  After a warm-up it
prints ``ready``; from then on, every PERIOD_S seconds, it times one fixed
slice of work in its own CPU seconds and records ``[monotonic end, cpu_s]``.
When its stdin closes it prints the samples as one JSON list and exits.

The slice is a loop of integer arithmetic and dict updates that stays in the
core's caches, the kind of interpreter work the pure-Python kernels do.  On a
shared host a job's speed drifts by a fifth within minutes, and the slice
slows with it.  The slice is the benchmark's own code, so no change to
algconn moves it; it costs the jobs about 2% of the CPU, the same share on
every commit.
"""

from __future__ import annotations

import json
import select
import sys
import time

SLICE = 8000


def work() -> float:
    start = time.thread_time()
    d: dict = {}
    for i in range(SLICE):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0) + i
    return time.thread_time() - start


def main() -> None:
    period = float(sys.argv[1])
    for _ in range(5):
        work()
    print("ready", flush=True)
    samples = []
    while True:
        cpu_s = work()
        samples.append([time.monotonic(), cpu_s])
        if select.select([sys.stdin], [], [], period)[0]:
            break  # stdin closed: the jobs are done
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    main()
