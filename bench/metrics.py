"""Turn the workers' job records into checked, named metrics.

Pure functions over the JSON the workers print; nothing here imports the
program.  ``run.py`` calls :func:`check_jobs`, :func:`round_metrics`,
:func:`accuracy` and :func:`layer_metrics` once per workload and keeps the
metrics ``BENCHMARK.json`` declares.

Units: host seconds are normalised by the host-speed probe (see
:func:`normalise`); ``*_kips`` is thousands of trace instructions (warm-up
plus timed) per normalised second; ``*_frac`` is a share of the model's
spec-to-result seconds in the traced round; ``*_per_kinstr`` counts per
thousand instructions — trace instructions for host-side call counts and
committed (timed) instructions for simulated events.
"""

from __future__ import annotations

import hashlib
import statistics
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from jobs import MODELS

__all__ = [
    "quartiles",
    "normalise",
    "check_jobs",
    "round_metrics",
    "accuracy",
    "layer_metrics",
    "trace_checks",
]

#: The timed-region layer of each model: the interval and one-IPC models run
#: on the shared columnar kernel (``core``), detailed has its own pipeline.
CORE_LAYER = {"interval": "core", "oneipc": "core", "detailed": "detailed"}


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile and count of ``values``."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def normalise(job: Mapping, probe_ref_s: float) -> float:
    """Factor turning a job's raw seconds into reference-host seconds.

    ``probe_ref_s`` over the mean of the probe times just before and just
    after the job: when the host ran the probe 10% slower than the
    reference around this job, its seconds are scaled down by the same 10%.
    Probing around each job, rather than once per round, follows the
    host's speed through a round: on a shared 2-core host it cut the spread
    of three-round medians from about 3-5% to about 1.5%.
    """
    return probe_ref_s / statistics.fmean(job["probe_s"])


def _key(job: Mapping) -> Tuple[str, str]:
    return job["benchmark"], job["model"]


def check_jobs(
    rounds: Sequence[Sequence[Mapping]], census: Mapping[str, Sequence[int]]
) -> List[str]:
    """Mark failed job attempts; returns one message per failure.

    An attempt fails when it raised, when its statistics digest differs from
    the first attempt of the same (benchmark, model) — across rounds and
    between traced and untraced rounds — when its timed instruction count is
    not what the warm-up rule implies for its traces, or when its IPC is not
    positive.  Each failed record gets ``"failed": True``.
    """
    first_digest: Dict[Tuple[str, str], str] = {}
    failures = []
    for round_jobs in rounds:
        for job in round_jobs:
            reasons = []
            if job.get("error"):
                reasons.append("raised " + job["error"].strip().splitlines()[-1])
            else:
                digest = first_digest.setdefault(_key(job), job["digest"])
                if job["digest"] != digest:
                    reasons.append("statistics differ from the first round")
                expected = sum(
                    n - min(job["warmup"], n // 2) for n in census[job["benchmark"]]
                )
                if job["timed_instructions"] != expected:
                    reasons.append(
                        f"timed {job['timed_instructions']} instructions, "
                        f"warm-up rule implies {expected}"
                    )
                if not job["ipc"] > 0:
                    reasons.append(f"IPC {job['ipc']} is not positive")
            job["failed"] = bool(reasons)
            if reasons:
                failures.append(
                    f"{job['benchmark']}/{job['model']}: " + "; ".join(reasons)
                )
    return failures


def job_seconds(
    rounds: Sequence[Sequence[Mapping]], probe_ref_s: Optional[float]
) -> Dict[Tuple[str, str], List[float]]:
    """Each job's seconds across rounds, normalised unless ``probe_ref_s`` is
    ``None``."""
    seconds: Dict[Tuple[str, str], List[float]] = {}
    for jobs in rounds:
        for job in jobs:
            factor = 1.0 if probe_ref_s is None else normalise(job, probe_ref_s)
            seconds.setdefault(_key(job), []).append(job["seconds"] * factor)
    return seconds


def kips(
    seconds: Mapping[Tuple[str, str], Sequence[float]],
    census: Mapping[str, Sequence[int]],
) -> Dict[str, Dict[str, float]]:
    """Per-model KIPS: trace instructions over the sum of per-job medians.

    Taking each job's median across rounds before summing keeps a stall that
    hit one job in one round out of the result.  ``q1``/``q3`` use each
    job's third/first quartile of seconds the same way.
    """
    result = {}
    for model in MODELS:
        mine = {key: values for key, values in seconds.items() if key[1] == model}
        if not mine:
            continue
        instructions = sum(sum(census[bench]) for bench, _ in mine)
        per_job = [quartiles(values) for values in mine.values()]

        def rate(field: str) -> float:
            return instructions / sum(q[field] for q in per_job) / 1000.0

        result[model] = {
            "value": rate("value"),
            "q1": rate("q3"),
            "q3": rate("q1"),
            "n": min(q["n"] for q in per_job),
        }
    return result


def round_metrics(
    rounds: Sequence[Sequence[Mapping]],
    census: Mapping[str, Sequence[int]],
    setup_samples: Sequence[float],
    rss_samples: Sequence[float],
    probe_ref_s: float,
) -> Dict[str, Dict[str, float]]:
    """Metrics of the untraced rounds, each with its quartiles and count."""
    metrics = {}
    normalised = kips(job_seconds(rounds, probe_ref_s), census)
    raw = kips(job_seconds(rounds, None), census)
    for model in normalised:
        metrics[f"{model}_kips"] = dict(normalised[model], unit="kinstr/s")
        metrics[f"host.{model}_kips_raw"] = dict(raw[model], unit="kinstr/s")
    metrics["setup_s"] = dict(quartiles(setup_samples), unit="s")
    metrics["peak_rss_mb"] = dict(quartiles(rss_samples), unit="MiB")
    probes = [job["probe_s"][0] for jobs in rounds for job in jobs]
    metrics["host.probe_s"] = dict(quartiles(probes), unit="s")
    if "interval_kips" in metrics and "detailed_kips" in metrics:
        metrics["experiments.speedup_vs_detailed"] = {
            "value": metrics["interval_kips"]["value"]
            / metrics["detailed_kips"]["value"],
            "unit": "x",
        }
    return metrics


def accuracy(jobs: Sequence[Mapping]) -> Dict[str, object]:
    """Deterministic results of one round: IPC error and statistics digest.

    The IPC error of a benchmark is ``|IPC_interval - IPC_detailed| /
    IPC_detailed`` in percent; the digest hashes every job's statistics
    digest in job order, so two runs with equal digests simulated exactly
    the same thing.
    """
    ipc = {_key(job): job["ipc"] for job in jobs if not job.get("error")}
    errors = [
        abs(ipc[(bench, "interval")] - ipc[(bench, "detailed")])
        / ipc[(bench, "detailed")]
        * 100.0
        for bench in dict.fromkeys(job["benchmark"] for job in jobs)
        if (bench, "interval") in ipc and ipc.get((bench, "detailed"), 0) > 0
    ]
    digest = hashlib.sha256(
        "".join(job.get("digest", "error") for job in jobs).encode("ascii")
    ).hexdigest()[:16]
    result: Dict[str, object] = {"stats_digest": digest}
    if errors:
        result["experiments.ipc_err_mean_pct"] = {
            "value": statistics.fmean(errors),
            "unit": "%",
        }
        result["experiments.ipc_err_max_pct"] = {"value": max(errors), "unit": "%"}
    return result


def layer_metrics(
    traced: Sequence[Mapping],
    untraced_rounds: Sequence[Sequence[Mapping]],
    census: Mapping[str, Sequence[int]],
    probe_ref_s: float,
) -> Dict[str, Dict[str, float]]:
    """Per-layer metrics: host time shares from the traced round, simulated
    counts from the first untraced round.  A metric whose span or counter
    the program does not provide is left out."""
    metrics: Dict[str, Dict[str, float]] = {}

    def put(name: str, value: Optional[float], unit: str) -> None:
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}

    frac = "ratio"
    untraced_seconds = job_seconds(untraced_rounds, probe_ref_s)
    for model in MODELS:
        jobs = [job for job in traced if job["model"] == model and "trace" in job]
        if not jobs:
            continue
        base = sum(job["trace"]["job_s"] for job in jobs)
        kinstr = sum(sum(census[job["benchmark"]]) for job in jobs) / 1000.0

        def self_s(group: str, phase: Optional[str] = None) -> float:
            total = 0.0
            for job in jobs:
                by_phase = job["trace"]["self_s"].get(group, {})
                total += by_phase.get(phase, 0.0) if phase else sum(by_phase.values())
            return total

        def span_s(group: str) -> float:
            return sum(job["trace"]["span_s"].get(group, 0.0) for job in jobs)

        def calls(group: str) -> int:
            return sum(job["trace"]["calls"].get(group, 0) for job in jobs)

        put(f"trace.synth_frac.{model}", self_s("synth") / base, frac)
        put(f"trace.columnar_frac.{model}", self_s("columnar") / base, frac)
        put(
            f"multicore.warmup_frac.{model}",
            (span_s("warmup") - self_s("columnar", "warmup")) / base,
            frac,
        )
        put(
            f"multicore.timed_frac.{model}",
            (span_s("timed") - self_s("columnar", "timed")) / base,
            frac,
        )
        put(f"api.overhead_frac.{model}", self_s("job") / base, frac)
        put(f"memory.timed_self_frac.{model}", self_s("memory", "timed") / base, frac)
        put(f"memory.warmup_self_frac.{model}", self_s("memory", "warmup") / base, frac)
        put(f"memory.calls_per_kinstr.{model}", calls("memory") / kinstr, "1/kinstr")
        put(f"branch.self_frac.{model}", self_s("branch") / base, frac)
        put(f"branch.calls_per_kinstr.{model}", calls("branch") / kinstr, "1/kinstr")
        put(f"multicore.sync_self_frac.{model}", self_s("sync") / base, frac)
        put(
            f"multicore.sync_calls_per_kinstr.{model}",
            calls("sync") / kinstr,
            "1/kinstr",
        )
        put(
            f"{CORE_LAYER[model]}.self_frac.{model}",
            self_s("timed", "timed") / base,
            frac,
        )
        traced_s = sum(job["seconds"] * normalise(job, probe_ref_s) for job in jobs)
        untraced_s = sum(
            statistics.median(values)
            for key, values in untraced_seconds.items()
            if key[1] == model
        )
        put(f"tracing.overhead_frac.{model}", traced_s / untraced_s - 1.0, frac)

    first = [job for job in untraced_rounds[0] if not job.get("error")]
    for model in MODELS:
        jobs = [job for job in first if job["model"] == model]
        if not jobs:
            continue

        def total(counter: str) -> Optional[int]:
            values = [
                job["counters"][counter] for job in jobs if counter in job["counters"]
            ]
            return sum(values) if len(values) == len(jobs) else None

        def rate(misses: str, accesses: str) -> Optional[float]:
            missed, accessed = total(misses), total(accesses)
            return missed / accessed if missed is not None and accessed else None

        def per_kinstr(counter: str) -> Optional[float]:
            value = total(counter)
            timed = sum(job["timed_instructions"] for job in jobs) / 1000.0
            return None if value is None else value / timed

        put(f"memory.l1i_miss_rate.{model}", rate("l1i_misses", "l1i_accesses"), frac)
        put(f"memory.l1d_miss_rate.{model}", rate("l1d_misses", "l1d_accesses"), frac)
        put(f"memory.l2_miss_rate.{model}", rate("l2_misses", "l2_accesses"), frac)
        put(
            f"memory.dram_accesses_per_kinstr.{model}",
            per_kinstr("dram_accesses"),
            "1/kinstr",
        )
        put(
            f"memory.coherence_invalidations_per_kinstr.{model}",
            per_kinstr("coherence_invalidations"),
            "1/kinstr",
        )
        events = [
            per_kinstr(name)
            for name in (
                "icache_misses",
                "itlb_misses",
                "branch_mispredictions",
                "long_latency_loads",
                "serializing_instructions",
            )
        ]
        if None not in events:
            put(f"core.miss_events_per_kinstr.{model}", sum(events), "1/kinstr")
        put(
            f"multicore.events_popped_per_kinstr.{model}",
            per_kinstr("events_popped"),
            "1/kinstr",
        )
        put(f"multicore.cores_parked.{model}", total("cores_parked"), "count")
        if model == "detailed":
            put(
                "detailed.issue_wakeups_per_kinstr.detailed",
                per_kinstr("issue_wakeups"),
                "1/kinstr",
            )
    return metrics


def trace_checks(traced: Sequence[Mapping]) -> Dict[str, float]:
    """How completely the named spans explain each traced job.

    ``coverage_min`` is the smallest share of a job's time covered by its
    synthesis, warm-up and timed spans (the rest is API overhead);
    ``timed_vs_wall_max`` the largest relative gap between a job's timed
    span, less the columnar builds inside it, and the simulator's own
    ``wall_clock_seconds``.
    """
    coverage = []
    gap = []
    for job in traced:
        if job.get("error") or "trace" not in job:
            continue
        trace = job["trace"]
        spans = trace["span_s"]
        covered = sum(spans.get(group, 0.0) for group in ("synth", "warmup", "timed"))
        coverage.append(covered / trace["job_s"])
        columnar = trace["self_s"].get("columnar", {}).get("timed", 0.0)
        timed = spans.get("timed", 0.0) - columnar
        if job["wall_clock_s"] > 0:
            gap.append(abs(timed / job["wall_clock_s"] - 1.0))
    return {
        "coverage_min": min(coverage, default=0.0),
        "timed_vs_wall_max": max(gap, default=0.0),
    }
