"""End-to-end and per-layer benchmark of the algconn CLI, pure-Python backend.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload trees-n20-d3 --seed 1 --seconds 5 --trace 0

One run, pinned with everything it starts to one CPU:
1. starts the speed probe (speed_probe.py), which times a fixed slice of work
   ten times a second on that CPU until the last measured process ends;
2. starts five fresh interpreters that import ``algconn.cli``, checks that the
   backend is ``pure`` and that algconn comes from ``./src``, and takes the
   median wall time as the raw set-up time;
3. runs the workload's command as a fresh ``python3 -m algconn`` process,
   again and again until the jobs add up to ``--seconds`` (at least one job);
4. checks the first job's stdout with networkx and numpy (checks.py), and
   requires every other job to exit 0 with the same stdout bytes;
5. with ``--trace 1``, runs the same command once more through traced.py and
   reports the per-layer metrics instead of the end-to-end ones.

The end-to-end times are wall times scaled to a nominal CPU speed: each is
multiplied by NOMINAL_SLICE_S over the mean time of the probe's slices taken
while it ran.  A job that takes 15 s while slices take 10% longer than
nominal reads 13.6 s.  On a shared host this cancels most of the drift of the
machine's own speed, which otherwise spreads the wall time of the same job by
a fifth or more from run to run.  The raw wall times and slice means go to
the results file.

A job that exits non-zero, prints other bytes, or whose output fails a check
counts as failed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record, with
the conditions of the run, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULTS = HERE / "results"

# Fixed, so every run and every commit gets the same load: one CLI process at
# a time, one search worker, one BLAS thread, all on one CPU (see main).
CLI_THREADS = 1
BLAS_THREADS = 1
SETUP_PROBES = 5
JOB_TIMEOUT_S = 150
PROBE_PERIOD_S = 0.1
# A probe slice's CPU time while jobs run on its CPU, on the 2.1 GHz Xeon VM
# the reference figures in README.md come from, at a calm time.  It only fixes
# the scale of the reported times; comparisons do not depend on it.
NOMINAL_SLICE_S = 0.002

PROBE = "import algconn, algconn.cli; print(algconn.kernel_backend(), algconn.__file__)"

PER_LAYER = (
    ("kernels.free_tree_layouts.s", "s"),
    ("kernels.canon_perm.calls", "count"),
    ("kernels.canon_perm.s", "s"),
    ("kernels.canon_key.calls", "count"),
    ("kernels.canon_key.s", "s"),
    ("graphs.Graph.calls", "count"),
    ("graphs.Graph.s", "s"),
    ("graphs.is_connected.s", "s"),
    ("search.self_s", "s"),
    ("spectral.laplacian.calls", "count"),
    ("spectral.laplacian.s", "s"),
    ("spectral.batched_lambda2.matrices", "count"),
    ("spectral.batched_lambda2.s", "s"),
    ("linalg.eigvalsh.calls", "count"),
    ("linalg.eigvalsh.matrices", "count"),
    ("linalg.eigvalsh.s", "s"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.s", "s"),
    ("augment.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ALGCONN_THREADS", None)
    threads = str(BLAS_THREADS)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        ALGCONN_PURE="1",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def launch(argv: list[str], env: dict) -> dict:
    """Run one process to its end: wall time, exit code, stdout, peak RSS."""
    err_path = RESULTS / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    if stderr:
        sys.stderr.write(stderr)
    return {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "exit_code": proc.returncode,
        "stdout": out,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "ctx_switches": usage.ru_nvcsw + usage.ru_nivcsw,
    }


def cpu_ticks() -> list[int]:
    """Machine-wide CPU ticks from /proc/stat: user .. steal; empty elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return []


def conditions(nproc: int, cpu: int, ticks_before: list[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    delta = [b - a for a, b in zip(ticks_before, cpu_ticks())]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "pinned_cpu": cpu,
        "backend": "pure",
        "cli_threads": CLI_THREADS,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        # share of the machine's CPU time a hypervisor took during the run
        "cpu_steal_share": delta[7] / sum(delta) if len(delta) == 8 and sum(delta) else None,
    }


class SpeedProbe:
    """speed_probe.py on the benchmark's CPU, from start() until stop()."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.proc = None
        self.samples: list[list[float]] = []

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed_probe.py"), str(PROBE_PERIOD_S)],
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        if self.proc.stdout.readline() != b"ready\n":
            raise BenchError("the speed probe did not start")

    def stop(self) -> None:
        """Close the probe's stdin, read its samples and wait for it to end."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            proc.stdin.close()
            out = proc.stdout.read()
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"the speed probe exited with code {proc.returncode}")
        self.samples = json.loads(out)

    def slice_s(self, start: float, end: float) -> float:
        """Mean slice time between two monotonic instants (the nearest slice if none)."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return statistics.fmean(inside)


def setup_time(env: dict) -> tuple[float, list[dict]]:
    src = (ROOT / "src" / "algconn").resolve()
    samples = []
    for _ in range(SETUP_PROBES):
        r = launch([sys.executable, "-c", PROBE], env)
        if r["exit_code"] != 0:
            raise BenchError("algconn.cli does not import")
        backend, path = r["stdout"].decode().split(maxsplit=1)
        if backend != "pure":
            raise BenchError(f"kernel backend is {backend!r}, not 'pure'")
        if Path(path.strip()).resolve().parent != src:
            raise BenchError(f"algconn imported from {path.strip()}, not {src}")
        samples.append(r)
    return statistics.median(r["wall_s"] for r in samples), samples


def layer_metrics(spans: dict, wrapped: list[str], overhead: float) -> tuple[dict, list[str]]:
    """The PER_LAYER values, and the names the traced tree does not have.

    A wrapped name that was never called reads 0; so does an absent one.
    """
    values, absent = {}, []
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead
        elif name.endswith(".self_s"):
            layer = name[: -len("self_s")]
            value = sum(v["self_s"] for k, v in spans.items() if k.startswith(layer))
            if not any(k.startswith(layer) for k in wrapped):
                absent.append(name)
        else:
            key, field = name.rsplit(".", 1)
            value = spans.get(key, {}).get(field, 0)
            if key not in wrapped:
                absent.append(name)
        values[name] = {"value": value, "unit": unit}
    return values, absent


def traced_run(argv: list[str], env: dict, seed: int) -> dict:
    """One traced run; a crash leaves no spans and counts as a failed operation."""
    path = RESULTS / f"spans-seed{seed}.json"
    path.unlink(missing_ok=True)
    r = launch([sys.executable, str(HERE / "traced.py"), str(path), "--", *argv], env)
    if r["exit_code"] != 0 or not path.is_file():
        return {**r, "exit_code": r["exit_code"] or 1, "run_s": None, "spans": {}, "wrapped": []}
    record = json.loads(path.read_text())
    path.unlink()
    if record["backend"] != "pure":
        raise BenchError(f"traced run used backend {record['backend']!r}")
    return {**r, **record, "stdout": record["stdout"].encode("ascii")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "algconn" / "__init__.py").is_file():
        print("error: run from the root of an algconn checkout (no src/algconn)", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    argv = [*w.argv, "--threads", str(CLI_THREADS)]
    env = child_env()
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the benchmark and every process it starts, so that a job's
    # speed and memory do not hang on whether a second CPU happens to be free.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    ticks = cpu_ticks()
    probe = SpeedProbe(env)
    try:
        try:
            probe.start()
            setup_raw_s, setup_samples = setup_time(env)
            jobs = []
            while not jobs or sum(j["wall_s"] for j in jobs) < args.seconds:
                jobs.append(launch([sys.executable, "-m", "algconn", *argv], env))
            # with the probe still running, like the jobs it is compared with
            traced = traced_run(argv, env, args.seed) if args.trace else None
        finally:
            probe.stop()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_slice_s = probe.slice_s(setup_samples[0]["start"], setup_samples[-1]["end"])
    setup_s = setup_raw_s * NOMINAL_SLICE_S / setup_slice_s
    for j in jobs:
        j["slice_s"] = probe.slice_s(j["start"], j["end"])
        j["scaled_s"] = j["wall_s"] * NOMINAL_SLICE_S / j["slice_s"]

    # networkx and numpy are imported only now, after every measured process
    from checks import CHECKS

    reference = jobs[0]
    try:
        if reference["exit_code"] != 0:
            raise RuntimeError(f"exit code {reference['exit_code']}")
        CHECKS[w.name](reference["stdout"], reference["exit_code"], args.seed)
        correct, problem = True, None
    except Exception as exc:  # output that cannot even be parsed is wrong too
        correct, problem = False, f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    ops = jobs + ([traced] if traced else [])
    failed = sum(
        not correct or op["exit_code"] != 0 or op["stdout"] != reference["stdout"] for op in ops
    )

    if traced:
        raw_job_s = statistics.median(j["wall_s"] for j in jobs)
        metrics, absent = layer_metrics(traced["spans"], traced["wrapped"], traced["wall_s"] - raw_job_s)
    else:
        job_s = statistics.median(j["scaled_s"] for j in jobs)
        metrics = {
            "job_s": {"value": job_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": w.items / (job_s - setup_s), "unit": "1/s"},
            "peak_rss_mb": {
                "value": statistics.median(j["peak_rss_mb"] for j in jobs),
                "unit": "MB",
            },
        }
    summary = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": w.name,
        "command": ["python3", "-m", "algconn", *argv],
        "seed": args.seed,
        "seconds": args.seconds,
        "conditions": conditions(nproc, cpu, ticks),
        "nominal_slice_s": NOMINAL_SLICE_S,
        "setup_raw_s": setup_raw_s,
        "setup_slice_s": setup_slice_s,
        "setup_samples_s": [r["wall_s"] for r in setup_samples],
        "jobs": [{k: v for k, v in j.items() if k != "stdout"} for j in jobs],
        "check_problem": problem,
        **summary,
    }
    if traced:
        record["traced"] = {
            "wall_s": traced["wall_s"],
            "run_s": traced["run_s"],
            "absent": absent,
            "spans": traced["spans"],
        }
        for name in absent:
            print(f"absent from this tree: {name}", file=sys.stderr)
    out_path = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{w.name}: {len(ops)} attempted, {failed} failed, correct={correct}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
