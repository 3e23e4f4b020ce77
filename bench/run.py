"""Benchmark entry point: one workload, one master seed, one JSON result line.

    python3 bench/run.py --workload sweep-ntiht [--seed 2016] [--seconds 10] [--trace 0|1] [--out FILE]

Runs from the root of a source checkout and imports tiht from its ``src/``.
With ``--trace 0`` it times whole rounds of the workload's fixed list until
``--seconds`` of timed work have passed and reports the end-to-end metrics;
with ``--trace 1`` it runs one untraced round, one traced round and (for the
sweeps) one round on a process pool, and reports the per-layer metrics.
Either way every output is checked afterwards, a JSON document describing
the run is written (default ``bench/out/<workload>-seed<n>-trace<t>.json``),
and the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, instrument, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
# One BLAS thread: the sweeps run one trial at a time on one harness worker,
# and at 10x10x10 BLAS threads only add start-up noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "iters_per_s": "1/s",
    "recover_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sweep-ntiht", "sweep-ctiht", "recover-formats"))
    parser.add_argument("--seed", type=int, default=2016, help="master seed (default: 2016, the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=10.0, help="least timed work per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="where to write the run's JSON document")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_tiht():
    """Import tiht afresh from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "tiht" or n.startswith("tiht.")]:
        del sys.modules[name]
    tiht = importlib.import_module("tiht")
    importlib.import_module("tiht.cli")
    if not Path(tiht.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"tiht imported from {tiht.__file__}, not from {ROOT / 'src'}")
    return tiht


def timed_rounds(workload, seconds: float):
    rounds = []
    while not rounds or sum(r.wall for r in rounds) < seconds:
        rounds.append(workload.run_round())
    return rounds


def end_to_end(rounds, setup_times, peak_rss_mb) -> dict[str, float]:
    wall = sum(r.wall for r in rounds)
    return {
        "trials_per_s": sum(sum(r.ops) for r in rounds) / wall,
        "iters_per_s": sum(r.iterations for r in rounds) / wall,
        "recover_p50_ms": 1000 * statistics.median(t for r in rounds for t in r.latencies()),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_rounds(workload, tiht):
    base = workload.run_round()
    tracer = Tracer()
    instrument(tracer, tiht)
    try:
        traced = workload.run_round()
    finally:
        tracer.restore()
    rounds = [base, traced]
    metrics = layer_metrics(tracer)
    bases = {"serial_wall_s": base.wall, "traced_wall_s": traced.wall}
    if workload.uses_harness:
        workers = os.cpu_count() or 1
        pooled = workload.run_round(workers=workers)
        rounds.append(pooled)
        bases.update(pool_workers=workers, pool_wall_s=pooled.wall)
        speedup = base.wall / pooled.wall
    else:
        speedup = 1.0  # no harness, so no pool: both bases are the serial round
    metrics["experiments.pool.speedup"] = (speedup, "ratio")
    metrics["trace.overhead"] = (traced.wall / base.wall, "ratio")
    return rounds, metrics, bases


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            tiht = import_tiht()
            workload.setup(tiht)
            setup_times.append(time.perf_counter() - start)
    except ImportError as exc:
        print(f"bench: cannot import tiht from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        rounds, layers, bases = traced_rounds(workload, tiht)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        rounds = timed_rounds(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(rounds, setup_times, peak_rss_mb)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        bases = {"timed_wall_s": sum(r.wall for r in rounds)}

    check_failed, messages = workload.check(rounds)
    attempted = sum(sum(r.ops) for r in rounds)
    failed = sum(len(r.failed | check_failed) for r in rounds)
    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **result,
        "rounds": len(rounds),
        "round_walls_s": [r.wall for r in rounds],
        "bases": bases,
        "setup_samples_s": setup_times,
        "check_failures": messages,
        "environment": environment(numpy),
        "first_round": workload.describe(rounds[0]),
    }
    out = args.out or BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2) + "\n")

    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'attempted':36s} {attempted:>14d}\n{'failed':36s} {failed:>14d}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
