"""Run one CamE benchmark workload and print its metrics as JSON.

Usage, from the root of the repository::

    python3 perfbench/run.py --blas-threads 1 --workload train \
        --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--blas-threads", type=int, required=True,
                        help="BLAS/OpenMP threads, at most the CPU count")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not 1 <= args.blas_threads <= (os.cpu_count() or 1):
        parser.error("--blas-threads must be between 1 and the CPU count")
    return args


def os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def child_processes() -> list[int]:
    """Live processes whose parent is this one."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            children.append(int(entry))
    return children


def main() -> int:
    args = parse_args()
    for name in BLAS_VARIABLES:
        os.environ[name] = str(args.blas_threads)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from layers import NullProbe, Probe, layer_metrics
    from workloads import WORKLOADS, Session

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_seconds = time.perf_counter() - STARTED
    threads_before = set(threading.enumerate())
    os_threads_before = os_threads()

    probe = Probe() if args.trace else NullProbe()
    out_dir = os.path.join(HERE, "out", f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    session = Session(WORKLOADS[args.workload], args.seed, args.seconds,
                      probe, out_dir)
    try:
        session.run(import_seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    session.metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    leaked_threads = set(threading.enumerate()) - threads_before
    children = child_processes()
    if leaked_threads or children or os_threads() != os_threads_before:
        print(f"run left threads {sorted(t.name for t in leaked_threads)} "
              f"({os_threads()} OS threads, {os_threads_before} at start) "
              f"and child processes {children}", file=sys.stderr)
        return 1

    record = session.record
    print(f"samples: {len(session.train_laps)} training batches, "
          f"{len(session.eval_laps)} eval batches, {record['queries']} queries "
          f"({record['hits']} cache hits, p99 {record['predict_p99_ms']:.4f} ms), "
          f"{len(session.append_ms)} appends, {len(session.cold_ms)} cold starts, "
          f"{len(session.bulk_laps)} bulk batches")
    if args.trace:
        print("end-to-end under tracing: " + json.dumps(session.metrics, sort_keys=True))
        values = layer_metrics(probe, record)
        listed = spec["per_layer"]
    else:
        values = session.metrics
        listed = spec["end_to_end"]
    for failure in session.checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": session.checks.passed,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if session.checks.passed else 1


if __name__ == "__main__":
    sys.exit(main())
