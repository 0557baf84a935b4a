"""Child process of the benchmark: one set-up sample or one round of jobs.

``run.py`` starts every round in a fresh interpreter, the way a user starts
``repro figure 5``: no state (imports, caches, allocator) carries over from
one round to the next, so a later program that caches work per process is
measured the way its users would see it.

Usage (``run.py`` builds these command lines)::

    python3 bench/worker.py setup --workload NAME --seed N [--smoke]
    python3 bench/worker.py round --workload NAME --seed N [--smoke]
                                  [--traced] [--census]

Each prints one JSON object as its last line of standard output.  A job that
raises is reported as failed, with its traceback on standard error; the
round goes on with the next job.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Iterations of the host-speed probe loop (about 22 ms on a 2-core x86_64
#: host with Python 3.11).
PROBE_ITERATIONS = 150_000


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that uses no program code.

    Integer arithmetic, list indexing and dict updates: how fast this host
    runs interpreted Python right now.  A variant that also chased indices
    through a 2 MiB table, to feel cache contention, tracked the simulators
    worse on ``parsec-4t`` and no better elsewhere.
    """
    table = list(range(64))
    seen = {}
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + table[i & 63]) & 0xFFFF
        seen[acc & 255] = seen.get(acc & 255, 0) + 1
    elapsed = time.perf_counter() - start
    if not seen:  # consume the result so the loop cannot be skipped
        raise RuntimeError("probe loop did not run")
    return elapsed


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit with code 2."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program source at {SRC_DIR}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC_DIR))


def run_setup(args: argparse.Namespace) -> dict:
    """Time ``import repro`` plus building the workload's job list."""
    _import_program()
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what is timed)
    from jobs import build_jobs

    build_jobs(args.workload, args.seed, smoke=args.smoke)
    return {"setup_s": time.perf_counter() - start}


def run_round(args: argparse.Namespace) -> dict:
    """Run every job of the workload once, probing host speed between jobs.

    Each record carries the probe times just before and just after its job.
    """
    _import_program()
    from jobs import build_jobs, job_record, layer_targets, trace_lengths
    from tracer import Tracer

    jobs = build_jobs(args.workload, args.seed, smoke=args.smoke)
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install(layer_targets())
    records = []
    try:
        before = probe()
        for index, job in enumerate(jobs):
            record = {
                "benchmark": job.benchmark,
                "model": job.model,
                "warmup": job.warmup,
            }
            if tracer is not None:
                tracer.begin_job(index)
            start = time.perf_counter()
            try:
                result = job.run()
            except Exception:  # a failed job is reported, not fatal
                record["seconds"] = time.perf_counter() - start
                record["error"] = traceback.format_exc()
                sys.stderr.write(record["error"])
            else:
                record["seconds"] = time.perf_counter() - start
                record.update(job_record(result))
            if tracer is not None:
                record["trace"] = tracer.end_job()
                record["seconds"] = record["trace"]["job_s"]
            after = probe()
            record["probe_s"] = [before, after]
            before = after
            records.append(record)
    finally:
        if tracer is not None:
            tracer.restore()
    output = {
        "jobs": records,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.census:
        # After the timed jobs, so synthesizing here cannot warm them.
        lengths = {}
        for job in jobs:
            if job.benchmark not in lengths:
                lengths[job.benchmark] = trace_lengths(job)
        output["census"] = lengths
    return output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "round"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--census", action="store_true")
    args = parser.parse_args(argv)
    output = run_setup(args) if args.role == "setup" else run_round(args)
    sys.stdout.write(json.dumps(output) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
