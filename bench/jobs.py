"""The benchmark's workloads, as lists of spec-to-result jobs.

Each job runs one timing model on one benchmark the way a user's job runs:
it synthesizes the trace from the seed, builds the columnar batch, warms the
machine functionally and simulates the timed region, all inside one call.
Every job goes through ``repro.api.session.run_spec`` except the
shared-data mcf run of ``manycore-64``: it needs ``manycore_workload``'s
``shared_fraction`` override, which ``WorkloadSpec`` cannot express, so it
builds the trace itself and runs it through ``Session``.

Warm-up is half of each trace: every job passes its whole instruction budget
as the warm-up length, and the simulator caps warm-up at half of each
thread's trace.

The program is imported inside functions, never at module import, so that
the set-up probe can time ``import repro`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "MODELS",
    "WORKLOADS",
    "Job",
    "ManycoreWorkload",
    "build_jobs",
    "layer_targets",
    "trace_lengths",
    "job_record",
]

#: Every job runs all three timing models, interval first.
MODELS = ("interval", "oneipc", "detailed")

#: workload name -> (kind, benchmarks, copies or threads, instruction budget).
#: The budgets are the quick preset's Figure 5, 6/9 and 7 budgets; the
#: benchmark lists are the quick preset's SPEC and PARSEC subsets, written out
#: here so that a change to the presets cannot silently change the benchmark.
WORKLOADS: Dict[str, Tuple[str, Tuple[str, ...], int, int]] = {
    # Single core, synthesis-heavy: half or more of an interval job is trace
    # synthesis, so the trace layer dominates.  Figure 5's accuracy budget.
    "spec-single": (
        "single",
        ("gcc", "mcf", "twolf", "art", "swim", "eon", "vpr", "equake"),
        1,
        20_000,
    ),
    # Four independent copies on a shared L2 and DRAM (Figures 6 and 9): the
    # event heap slices the cores against each other without any
    # synchronization or coherence.
    "spec-multiprogram": ("multiprogram", ("gcc", "mcf", "swim"), 4, 12_000),
    # Four threads with barriers, locks and coherence traffic (Figure 7).
    "parsec-4t": (
        "multithreaded",
        ("blackscholes", "canneal", "fluidanimate", "vips", "swaptions"),
        4,
        24_000,
    ),
    # 64 threads: the parked event driver and shared writes dominate, and
    # synthesis is the smallest share of a job.  mcf gets a shared hot region.
    "manycore-64": ("manycore", ("mcf", "fluidanimate"), 64, 32_000),
}

#: Shared-data fraction given to the SPEC-like mcf profile on manycore-64.
MANYCORE_SHARED_FRACTION = 0.2

#: Instruction budget and benchmark count of the ``--smoke`` variant.
SMOKE_INSTRUCTIONS = 2_000


@dataclass(frozen=True)
class ManycoreWorkload:
    """A ``manycore_workload`` call with a shared-data override."""

    benchmark: str
    threads: int
    instructions: int
    seed: int
    shared_fraction: float

    def build(self):
        """Synthesize the workload's traces."""
        from repro.trace.workloads import manycore_workload

        return manycore_workload(
            self.benchmark,
            self.threads,
            instructions_per_thread=self.instructions // self.threads,
            seed=self.seed,
            shared_fraction=self.shared_fraction,
        )


@dataclass(frozen=True)
class Job:
    """One spec-to-result simulation job."""

    benchmark: str
    model: str
    #: ``WorkloadSpec`` or :class:`ManycoreWorkload`; both have ``build()``.
    workload: object
    machine: object
    warmup: int
    #: The frozen job for ``run_spec``; ``None`` for a manycore workload.
    spec: Optional[object] = None

    def run(self):
        """Run the job from spec to result; returns the ``RunResult``."""
        if self.spec is not None:
            from repro.api.session import run_spec

            return run_spec(self.spec)
        from repro.api.session import Session

        return (
            Session(self.machine)
            .simulator(self.model)
            .workload(self.workload.build())
            .warmup(self.warmup)
            .run()
        )


def build_jobs(workload: str, seed: int, smoke: bool = False) -> List[Job]:
    """The job list of ``workload``: each benchmark under every model.

    Jobs are ordered benchmark-major, so the three models of one benchmark
    run back to back under the same host conditions.
    """
    from repro.api.spec import SweepSpec, WorkloadSpec
    from repro.common.config import default_machine_config

    kind, benchmarks, copies, instructions = WORKLOADS[workload]
    if smoke:
        benchmarks = benchmarks[:1]
        instructions = SMOKE_INSTRUCTIONS
    machine = default_machine_config(num_cores=copies)
    jobs = []
    for benchmark in benchmarks:
        if kind == "manycore" and benchmark == "mcf":
            spec_workload = ManycoreWorkload(
                benchmark, copies, instructions, seed, MANYCORE_SHARED_FRACTION
            )
        else:
            spec_workload = WorkloadSpec(
                kind="multithreaded" if kind == "manycore" else kind,
                benchmark=benchmark,
                copies=copies,
                instructions=instructions,
                seed=seed,
            )
        for model in MODELS:
            spec = None
            if isinstance(spec_workload, WorkloadSpec):
                spec = SweepSpec(
                    simulator=model,
                    workload=spec_workload,
                    machine=machine,
                    warmup_instructions=instructions,
                )
            jobs.append(
                Job(benchmark, model, spec_workload, machine, instructions, spec)
            )
    return jobs


def layer_targets() -> List[Tuple[type, str, str]]:
    """``(class, method, group)`` for every public method the trace wraps.

    Derived from the class dictionaries, so the list follows the program:
    a method added to a layer is traced and a deleted one is skipped.
    """
    from repro.api.spec import WorkloadSpec
    from repro.branch.base import BranchPredictor
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.multicore.simulator import CoreModel, MulticoreSimulator
    from repro.multicore.sync import SynchronizationManager
    from repro.trace.columnar import TraceBatch
    from repro.trace.stream import ThreadTrace
    from tracer import public_methods

    targets = [
        (WorkloadSpec, "build", "synth"),
        (ManycoreWorkload, "build", "synth"),
        (ThreadTrace, "batch", "columnar"),
        (MulticoreSimulator, "run", "run"),
    ]
    targets += [(TraceBatch, name, "columnar") for name in public_methods(TraceBatch)]
    targets += [
        (MemoryHierarchy, name, "memory") for name in public_methods(MemoryHierarchy)
    ]
    targets += [
        (SynchronizationManager, name, "sync")
        for name in public_methods(SynchronizationManager)
    ]
    targets += [
        (cls, "bind_thread", "bind")
        for cls in _subclasses(CoreModel)
        if "bind_thread" in vars(cls)
    ]
    targets += [
        (cls, "access", "branch")
        for cls in _subclasses(BranchPredictor)
        if "access" in vars(cls)
    ]
    return targets


def _subclasses(cls: type) -> List[type]:
    """Every subclass of ``cls``, depth first."""
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def trace_lengths(job: Job) -> List[int]:
    """Per-thread trace lengths of ``job``'s workload (synthesizes it)."""
    return [len(trace) for trace in job.workload.build().traces]


#: Per-job counters read from ``SimulationStats.as_dict()``, by section
#: (per-core counters are summed).  A key the program no longer reports is
#: left out.
_COUNTERS = {
    "memory": (
        "l1i_accesses",
        "l1i_misses",
        "l1d_accesses",
        "l1d_misses",
        "l2_accesses",
        "l2_misses",
        "dram_accesses",
        "coherence_invalidations",
    ),
    "driver": ("events_popped", "cores_parked"),
    "cores": (
        "issue_wakeups",
        "icache_misses",
        "itlb_misses",
        "branch_mispredictions",
        "long_latency_loads",
        "serializing_instructions",
    ),
}


def job_record(result) -> Dict[str, object]:
    """The deterministic facts of one job's result, for checks and metrics."""
    from repro.common.canonical import content_digest

    stats = result.stats
    flat = stats.as_dict()
    counters: Dict[str, int] = {}
    for section, keys in _COUNTERS.items():
        for key in keys:
            if section == "cores":
                values = [core[key] for core in flat["cores"] if key in core]
                if values:
                    counters[key] = sum(values)
            elif key in flat.get(section, {}):
                counters[key] = flat[section][key]
    return {
        "digest": content_digest(stats.deterministic_dict()),
        "ipc": stats.aggregate_ipc,
        "timed_instructions": stats.total_instructions,
        "wall_clock_s": stats.wall_clock_seconds,
        "counters": counters,
    }
