"""Workload construction helpers used by examples, tests and experiments.

The experiment harness needs three workload shapes:

* single-threaded workloads (one SPEC-like program on one core) —
  Figures 4, 5;
* multi-program workloads (independent single-threaded programs, one per
  core) — Figure 6 and the speedup study of Figure 9;
* multi-threaded workloads (one PARSEC-like parallel program across cores) —
  Figures 7, 8 and 10.

Each helper is deterministic given its ``seed`` argument, so a process
keeps the last workload it built: asking again for the same one returns the
same sealed traces instead of synthesizing them again (see
:func:`_reuse_last_build`).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import replace
from typing import List, Optional, Sequence

from .multithreaded import generate_multithreaded_workload
from .profiles import (
    PARSEC_PROFILES,
    SPEC_PROFILES,
    WorkloadProfile,
    parsec_profile,
    spec_profile,
)
from .stream import ThreadTrace, Workload
from .synthetic import generate_trace

__all__ = [
    "single_threaded_workload",
    "homogeneous_multiprogram_workload",
    "heterogeneous_multiprogram_workload",
    "multithreaded_workload",
    "manycore_workload",
]


def _resolve_profile(benchmark: str) -> WorkloadProfile:
    """Find a profile by name in either suite."""
    if benchmark in SPEC_PROFILES:
        return spec_profile(benchmark)
    if benchmark in PARSEC_PROFILES:
        return parsec_profile(benchmark)
    raise KeyError(
        f"unknown benchmark {benchmark!r}; known benchmarks: "
        f"{sorted(SPEC_PROFILES) + sorted(PARSEC_PROFILES)}"
    )


#: ``(key, workload)`` of the last build, or ``None``; see _reuse_last_build.
_last_build = None


def forget_last_build() -> None:
    """Drop the kept workload, so the next build synthesizes its traces."""
    global _last_build
    _last_build = None


def _reuse_last_build(builder):
    """Make ``builder`` return the last workload again when asked for it again.

    A study runs several timing models over one stream (interval, one-IPC and
    detailed back to back), so every model after the first would otherwise
    synthesize a trace identical to the one just built.  The key is the
    builder and its bound arguments with defaults applied, so positional,
    keyword and defaulted spellings of one request match; lists are frozen
    into tuples so that a caller mutating its argument later cannot match.
    A hit returns a new :class:`Workload` around the same sealed traces,
    which no simulator writes.  A miss drops the kept workload *before* it
    synthesizes, so at most one workload is alive, as without reuse.
    """
    signature = inspect.signature(builder)

    @functools.wraps(builder)
    def build(*args, **kwargs) -> Workload:
        global _last_build
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (builder,) + tuple(
            (name, tuple(value) if isinstance(value, list) else value)
            for name, value in bound.arguments.items()
        )
        last = _last_build
        if last is None or last[0] != key:
            # Let go of the kept workload before synthesizing the new one:
            # holding it meanwhile would keep two workloads alive at the peak.
            last = _last_build = None
            last = _last_build = (key, builder(*args, **kwargs))
        workload = last[1]
        return Workload(
            name=workload.name,
            traces=list(workload.traces),
            core_assignment=list(workload.core_assignment),
            kind=workload.kind,
            num_barriers=workload.num_barriers,
        )

    return build


@_reuse_last_build
def single_threaded_workload(
    benchmark: str,
    instructions: Optional[int] = None,
    seed: int = 0,
) -> Workload:
    """Build a single-threaded workload for one SPEC-like benchmark."""
    profile = _resolve_profile(benchmark)
    trace = generate_trace(profile, num_instructions=instructions, seed=seed)
    return Workload(name=benchmark, traces=[trace], kind="single")


@_reuse_last_build
def homogeneous_multiprogram_workload(
    benchmark: str,
    copies: int,
    instructions: Optional[int] = None,
    seed: int = 0,
) -> Workload:
    """Build a homogeneous multi-program workload (Figure 6 style).

    ``copies`` independent instances of the same benchmark run concurrently,
    one per core.  Each copy uses a different generator seed so the copies
    are not lock-step identical (they still stress the shared L2 similarly).
    """
    if copies <= 0:
        raise ValueError("need at least one program copy")
    profile = _resolve_profile(benchmark)
    traces: List[ThreadTrace] = []
    for copy_index in range(copies):
        trace = generate_trace(
            profile,
            num_instructions=instructions,
            seed=seed + copy_index,
            thread_id=copy_index,
        )
        traces.append(trace)
    return Workload(
        name=f"{benchmark} x{copies}",
        traces=traces,
        core_assignment=list(range(copies)),
        kind="multiprogram",
    )


@_reuse_last_build
def heterogeneous_multiprogram_workload(
    benchmarks: Sequence[str],
    instructions: Optional[int] = None,
    seed: int = 0,
) -> Workload:
    """Build a heterogeneous multi-program workload (one program per core)."""
    if not benchmarks:
        raise ValueError("need at least one benchmark")
    traces: List[ThreadTrace] = []
    for index, benchmark in enumerate(benchmarks):
        profile = _resolve_profile(benchmark)
        traces.append(
            generate_trace(
                profile,
                num_instructions=instructions,
                seed=seed + index,
                thread_id=index,
            )
        )
    return Workload(
        name="+".join(benchmarks),
        traces=traces,
        core_assignment=list(range(len(benchmarks))),
        kind="multiprogram",
    )


@_reuse_last_build
def multithreaded_workload(
    benchmark: str,
    num_threads: int,
    total_instructions: Optional[int] = None,
    seed: int = 0,
) -> Workload:
    """Build a multi-threaded (PARSEC-like) workload across ``num_threads``."""
    profile = parsec_profile(benchmark)
    return generate_multithreaded_workload(
        profile, num_threads, total_instructions=total_instructions, seed=seed
    )


@_reuse_last_build
def manycore_workload(
    benchmark: str,
    num_threads: int,
    instructions_per_thread: int = 2_000,
    seed: int = 0,
    barrier_interval: Optional[int] = None,
    lock_interval: Optional[int] = None,
    shared_fraction: Optional[float] = None,
    shared_write_fraction: Optional[float] = None,
) -> Workload:
    """Build a many-core (64–256 thread) variant of a benchmark profile.

    :func:`multithreaded_workload` keeps the *total* work fixed (the paper's
    Figure-7 strong-scaling experiment), which starves individual threads at
    high core counts.  This family scales the total with the thread count
    (weak scaling, ``instructions_per_thread`` each) while keeping the
    profile's barrier interval — defined over the *total* parallel work — so
    barrier phases shorten per thread as the machine grows and the run
    becomes synchronization-bound: the regime the parked event driver
    targets.  ``barrier_interval``/``lock_interval`` override the profile's
    sync density for sweep experiments.

    The profile may come from either suite: a SPEC-like profile (e.g.
    ``mcf``) sharded across many cores models a memory-bound many-core run.
    SPEC profiles default to no sharing, so pass ``shared_fraction`` (and
    optionally ``shared_write_fraction``) to give such a run coherence
    traffic; both override the profile's values when not ``None``.
    """
    if num_threads <= 0:
        raise ValueError("need at least one thread")
    if instructions_per_thread <= 0:
        raise ValueError("per-thread instruction count must be positive")
    profile = _resolve_profile(benchmark)
    overrides = {}
    if barrier_interval is not None:
        overrides["barrier_interval"] = barrier_interval
    if lock_interval is not None:
        overrides["lock_interval"] = lock_interval
    if shared_fraction is not None:
        overrides["shared_fraction"] = shared_fraction
    if shared_write_fraction is not None:
        overrides["shared_write_fraction"] = shared_write_fraction
    if overrides:
        profile = replace(profile, **overrides)
    workload = generate_multithreaded_workload(
        profile,
        num_threads,
        total_instructions=instructions_per_thread * num_threads,
        seed=seed,
    )
    workload.name = f"{benchmark} manycore ({num_threads} threads)"
    return workload
