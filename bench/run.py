"""The benchmark of record: spec-to-result speed and accuracy of the simulators.

Runs the workloads of ``jobs.py`` — every benchmark under the interval,
one-IPC and detailed models, each job from spec to result — and prints every
metric ``BENCHMARK.json`` declares, by name and unit.  It checks the
simulators' outputs as it goes (see ``metrics.check_jobs``) and writes the
full results, quartiles included, to ``bench/results/latest.json``.

    python3 bench/run.py                    # all four workloads, traced
    python3 bench/run.py --workload spec-single --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --smoke            # seconds-long check of every metric

A run of one workload measures like this, closed loop with one job in
flight and no pools or threads:

1. seven fresh interpreters each time ``import repro`` plus building the
   job list (``setup_s``, their median);
2. untraced rounds, each in a fresh interpreter, started until ``--seconds``
   have passed (three in the default 20 s on a 2-core host; one with
   ``--smoke``) — the end-to-end metrics;
3. with ``--trace 1``, one more round with the layer tracer installed —
   the per-layer metrics, and ``trace-<workload>.json`` beside the results.

With one workload the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The exit
code is 0 when every job passed its checks, 1 when one failed and 2 when the
benchmark itself could not run (no result line then).
"""

from __future__ import annotations

import argparse
import json
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

import metrics
from jobs import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
DEFAULT_OUTPUT = BENCH_DIR / "results" / "latest.json"

#: Median ``worker.probe()`` time on the reference host (2-core x86_64,
#: Python 3.11).  Normalised seconds = raw seconds * PROBE_REF_S / the mean
#: of the probe times just before and just after the job.
PROBE_REF_S = 0.022

SETUP_SAMPLES = 7

#: No untraced round starts when it is predicted to end later than this many
#: seconds into the workload, which keeps a one-workload run, traced round
#: included, under three minutes.
ROUNDS_DEADLINE_S = 120.0
#: Longest a single child process may take.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


def declared_metrics() -> Dict[str, List[Mapping]]:
    """The ``end_to_end`` and ``per_layer`` lists of ``BENCHMARK.json``."""
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as handle:
            declared = json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {path}: {error}") from None
    return {key: declared[key] for key in ("end_to_end", "per_layer")}


def child(role: str, workload: str, seed: int, *flags: str) -> dict:
    """Run one worker process to completion and return its JSON output."""
    command = [
        sys.executable,
        str(WORKER),
        role,
        "--workload",
        workload,
        "--seed",
        str(seed),
        *flags,
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{role} of {workload} took over {CHILD_TIMEOUT_S} s"
        ) from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{role} of {workload} exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{role} of {workload} printed no result") from None


def measure(
    workload: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> dict:
    """Set-up samples, untraced rounds and the optional traced round."""
    flags = ["--smoke"] if smoke else []
    samples = 1 if smoke else SETUP_SAMPLES
    setup = [child("setup", workload, seed, *flags)["setup_s"] for _ in range(samples)]

    start = time.monotonic()
    rounds: List[List[dict]] = []
    rss: List[float] = []
    durations: List[float] = []
    census: Dict[str, List[int]] = {}
    while True:
        began = time.monotonic()
        census_flag = [] if rounds else ["--census"]
        output = child("round", workload, seed, *flags, *census_flag)
        durations.append(time.monotonic() - began)
        rounds.append(output["jobs"])
        rss.append(output["maxrss_mb"])
        census = census or output["census"]
        elapsed = time.monotonic() - start
        if smoke or elapsed >= seconds:
            break
        if elapsed + statistics.fmean(durations) > ROUNDS_DEADLINE_S:
            break
    traced_jobs = []
    if traced:
        traced_jobs = child("round", workload, seed, *flags, "--traced")["jobs"]
    return {
        "setup": setup,
        "rounds": rounds,
        "rss": rss,
        "census": census,
        "traced": traced_jobs,
    }


def evaluate(workload: str, run: Mapping, declared: Mapping) -> dict:
    """Check the jobs and compute the declared metrics of one workload."""
    attempts = list(run["rounds"]) + ([run["traced"]] if run["traced"] else [])
    failures = metrics.check_jobs(attempts, run["census"])
    attempted = sum(len(jobs) for jobs in attempts)
    computed = metrics.round_metrics(
        run["rounds"], run["census"], run["setup"], run["rss"], PROBE_REF_S
    )
    accuracy = metrics.accuracy(run["rounds"][0])
    computed.update(
        (name, value) for name, value in accuracy.items() if name != "stats_digest"
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "stats_digest": accuracy["stats_digest"],
        "rounds": len(run["rounds"]),
        "end_to_end": _select(workload, computed, declared["end_to_end"]),
        "host": {
            name: value for name, value in computed.items() if name.startswith("host.")
        },
    }
    if run["traced"]:
        computed.update(
            metrics.layer_metrics(
                run["traced"], run["rounds"], run["census"], PROBE_REF_S
            )
        )
        result["per_layer"] = _select(workload, computed, declared["per_layer"])
        result["trace_checks"] = metrics.trace_checks(run["traced"])
    return result


def _select(workload: str, computed: Mapping, declared: Sequence[Mapping]) -> dict:
    """The declared metrics, in declared order; absent ones are reported."""
    selected = {}
    for entry in declared:
        name = entry["name"]
        if name in computed:
            selected[name] = computed[name]
        else:
            sys.stderr.write(f"note: {workload}: no data for metric {name}\n")
    return selected


def trace_document(workload: str, seed: int, jobs: Sequence[Mapping]) -> dict:
    """The traced round's coarse spans and per-job layer totals."""
    return {
        "workload": workload,
        "seed": seed,
        "jobs": [
            dict(
                {key: job.get(key) for key in ("benchmark", "model", "wall_clock_s")},
                **job["trace"],
            )
            for job in jobs
        ],
    }


def report(workload: str, result: Mapping) -> None:
    """Print one workload's metrics, one per line."""
    print(
        f"== {workload}: {result['attempted']} jobs, {result['failed']} failed, "
        f"{result['rounds']} rounds, stats_digest {result['stats_digest']}"
    )
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for section in ("end_to_end", "per_layer"):
        for name, metric in result.get(section, {}).items():
            spread = ""
            if "q1" in metric:
                spread = (
                    f"  (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, "
                    f"n {metric['n']})"
                )
            print(f"   {name:48s} {metric['value']:12.6g} {metric['unit']}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Spec-to-result benchmark of the interval, one-IPC and "
        "detailed simulators."
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0, help="trace seed (default 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=20.0,
        help="time to spend on untraced rounds per workload (default 20)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=1,
        help="1 (default): add the traced round and print per-layer metrics",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one round of 2k-instruction jobs, one benchmark per workload",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="results file; trace files are written beside it",
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and waits for
    # the worker it is running before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = args.workload or list(WORKLOADS)
    traced = bool(args.trace)

    try:
        declared = declared_metrics()
        results = {}
        for workload in workloads:
            run = measure(workload, args.seed, args.seconds, traced, args.smoke)
            results[workload] = evaluate(workload, run, declared)
            if run["traced"]:
                args.output.parent.mkdir(parents=True, exist_ok=True)
                path = args.output.parent / f"trace-{workload}.json"
                trace = trace_document(workload, args.seed, run["traced"])
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(trace, handle)
            report(workload, results[workload])
    except BenchError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2

    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "probe_ref_s": PROBE_REF_S,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "workloads": results,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"results written to {args.output}")

    correct = all(result["correct"] for result in results.values())
    if len(workloads) == 1:
        result = results[workloads[0]]
        section = "per_layer" if traced else "end_to_end"
        line = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in result[section].items()
            },
        }
        print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
