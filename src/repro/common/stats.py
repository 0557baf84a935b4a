"""Statistics collection for the simulators.

Every simulator in the package (interval, detailed, one-IPC) records its
activity into a :class:`CoreStats` per simulated core plus a
:class:`SimulationStats` aggregate.  The statistics are intentionally
simulator-agnostic: accuracy comparisons in the experiment harness only need
cycles, instruction counts and miss-event counts from both simulators.

Host-only counters — traffic of the host-side fast paths and the fault
injector rather than simulated behavior — are declared once, as
:func:`host_counter` fields of :class:`CoreStats`.  Merging, flattening, the
deterministic comparison dict, :meth:`SimulationStats.host_counters` and the
result/bench tables built from it all derive from those declarations.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional

__all__ = [
    "CoreStats",
    "HOST_COUNTERS",
    "SimulationStats",
    "Stopwatch",
    "host_counter",
]

#: Field-metadata key holding a host-only counter's merge function.
_HOST_MERGE = "host_merge"


def host_counter(merge: Callable[[int, int], int] = operator.add) -> Any:
    """Declare a host-only :class:`CoreStats` counter (default 0).

    Host-only counters describe host-side work — scheduler traffic, fault
    injector bookkeeping — that differs between the fast paths and their
    test-only references while the simulated statistics stay identical, so
    they are excluded from :meth:`SimulationStats.deterministic_dict`.
    ``merge`` combines two cores' values (summed unless stated otherwise).
    """
    return field(default=0, metadata={_HOST_MERGE: merge})


@dataclass
class CoreStats:
    """Per-core statistics recorded by a timing simulator.

    The miss-event counters follow the interval taxonomy of the paper:
    I-cache/I-TLB misses, branch mispredictions, long-latency loads and
    serializing instructions; these are the events that delimit intervals.
    """

    core_id: int = 0
    instructions: int = 0
    cycles: int = 0
    # Miss events (interval delimiters).
    icache_misses: int = 0
    itlb_misses: int = 0
    branch_lookups: int = 0
    branch_mispredictions: int = 0
    dcache_accesses: int = 0
    l1d_misses: int = 0
    dtlb_misses: int = 0
    long_latency_loads: int = 0
    serializing_instructions: int = 0
    # Second-order / overlap bookkeeping (interval simulator only).
    overlapped_icache_accesses: int = 0
    overlapped_branches: int = 0
    overlapped_loads: int = 0
    # Synchronization behaviour (multi-threaded workloads).
    sync_stall_cycles: int = 0
    barrier_waits: int = 0
    lock_acquisitions: int = 0
    lock_contended: int = 0
    # Miscellaneous.
    dispatch_stall_cycles: int = 0
    committed_stores: int = 0
    committed_loads: int = 0
    # Issue-queue traffic (detailed model only): wake notifications the
    # event-driven issue queue delivered, per-cycle ready scans it avoided,
    # and the largest ready set it ever popped in one cycle.
    issue_wakeups: int = host_counter()
    issue_scans_skipped: int = host_counter()
    ready_bucket_peak: int = host_counter(merge=max)
    # Fault-injection traffic (nonzero only when a fault plan is armed):
    # injected fault events, the re-fetches they forced, flaky-DRAM retries
    # and the extra cycles those retries (plus degraded links) charged.
    faults_injected: int = host_counter()
    refetches_forced: int = host_counter()
    dram_retries: int = host_counter()
    retry_cycles: int = host_counter()
    # CPI-stack components (cycles attributed to each penalty class by the
    # interval model; the detailed model leaves them at zero).
    base_cycles: int = 0
    icache_penalty_cycles: int = 0
    branch_penalty_cycles: int = 0
    long_load_penalty_cycles: int = 0
    serializing_penalty_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle committed by this core."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def cpi(self) -> float:
        """Cycles per instruction committed by this core."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    @property
    def branch_misprediction_rate(self) -> float:
        """Mispredictions per executed branch."""
        if self.branch_lookups == 0:
            return 0.0
        return self.branch_mispredictions / self.branch_lookups

    @property
    def miss_events(self) -> int:
        """Total miss events (interval delimiters) this core saw.

        The interval taxonomy of the paper: I-cache and I-TLB misses, branch
        mispredictions, long-latency loads and serializing instructions.
        This is the event count the interval-at-a-time kernel pays real work
        for — everything between two events is charged arithmetically — so
        ``miss_events / instructions`` is the lever behind simulation speed.
        """
        return (
            self.icache_misses
            + self.itlb_misses
            + self.branch_mispredictions
            + self.long_latency_loads
            + self.serializing_instructions
        )

    @property
    def l1d_miss_rate(self) -> float:
        """L1 D-cache misses per data-cache access."""
        if self.dcache_accesses == 0:
            return 0.0
        return self.l1d_misses / self.dcache_accesses

    def merge(self, other: "CoreStats") -> None:
        """Accumulate another core's statistics into this one.

        Every counter is summed except host counters declared with another
        merge (``ready_bucket_peak`` is a high-water mark, merged by max).
        """
        for counter in fields(self):
            name = counter.name
            if name == "core_id":
                continue
            combine = counter.metadata.get(_HOST_MERGE, operator.add)
            setattr(self, name, combine(getattr(self, name), getattr(other, name)))

    def as_dict(self) -> Dict[str, float]:
        """Return a flat dictionary of all counters plus derived rates."""
        # An instance's __dict__ holds exactly its fields, in declaration
        # order (nothing sets other attributes); copying it is several times
        # faster than walking fields(), which matters for 64-256-core runs.
        result: Dict[str, float] = dict(self.__dict__)
        result["ipc"] = self.ipc
        result["cpi"] = self.cpi
        result["branch_misprediction_rate"] = self.branch_misprediction_rate
        result["l1d_miss_rate"] = self.l1d_miss_rate
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CoreStats":
        """Rebuild per-core statistics from an :meth:`as_dict` dictionary.

        Derived keys (``ipc``, ``cpi``, rate fields) present in the
        dictionary are ignored — they are recomputed from the counters.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    def cpi_stack(self) -> Dict[str, float]:
        """Per-instruction cycle breakdown (CPI stack) recorded by the model.

        Only meaningful for simulators that attribute penalties to miss-event
        classes (the interval and one-IPC models); components are normalized
        by the committed instruction count.
        """
        if self.instructions == 0:
            return {}
        return {
            "base": self.base_cycles / self.instructions,
            "icache": self.icache_penalty_cycles / self.instructions,
            "branch": self.branch_penalty_cycles / self.instructions,
            "memory": self.long_load_penalty_cycles / self.instructions,
            "serializing": self.serializing_penalty_cycles / self.instructions,
            "sync": self.sync_stall_cycles / self.instructions,
        }


#: Name → merge function of every :func:`host_counter` field of
#: :class:`CoreStats`, in declaration order.
HOST_COUNTERS: Dict[str, Callable[[int, int], int]] = {
    counter.name: counter.metadata[_HOST_MERGE]
    for counter in fields(CoreStats)
    if _HOST_MERGE in counter.metadata
}


@dataclass
class SimulationStats:
    """Aggregate statistics of one simulation run.

    Attributes
    ----------
    cores:
        Per-core statistics, indexed by core id.
    total_cycles:
        Multi-core simulated time (cycles) at the end of the run.
    wall_clock_seconds:
        Host wall-clock time taken by the simulation — used for the
        Figure 9/10 simulation-speedup experiments.
    simulator:
        Name of the simulator that produced the run ("interval", "detailed",
        "oneipc"), recorded so result tables can label their rows.
    driver_stats:
        Run-level host counters: the event driver's ``events_popped``,
        ``cores_parked`` and ``park_cycles_skipped``, and the coherence
        controller's ``snoop_probes`` (remote L1d probes over warm-up and
        timed region).  They quantify host-side work, not simulated
        behavior — like wall-clock time they are excluded from
        :meth:`deterministic_dict` (the spin and parked drivers produce
        identical simulated statistics but very different heap-pop counts,
        and a broadcast snoop would probe far more caches than the sharer
        filter for the same coherence traffic).
    """

    cores: List[CoreStats] = field(default_factory=list)
    total_cycles: int = 0
    wall_clock_seconds: float = 0.0
    simulator: str = ""
    memory_stats: Dict[str, int] = field(default_factory=dict)
    driver_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def num_cores(self) -> int:
        """Number of cores in the simulated machine."""
        return len(self.cores)

    @property
    def total_instructions(self) -> int:
        """Total instructions committed across all cores."""
        return sum(core.instructions for core in self.cores)

    @property
    def aggregate_ipc(self) -> float:
        """Chip-level IPC: total instructions over multi-core cycles."""
        if self.total_cycles == 0:
            return 0.0
        return self.total_instructions / self.total_cycles

    def core_ipcs(self) -> List[float]:
        """Per-core IPC values."""
        return [core.ipc for core in self.cores]

    def per_core_cycles(self) -> List[int]:
        """Per-core cycle counts (completion time of each core)."""
        return [core.cycles for core in self.cores]

    def simulated_kips(self) -> float:
        """Simulation throughput in thousands of simulated instructions/second."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.total_instructions / self.wall_clock_seconds / 1000.0

    @property
    def total_miss_events(self) -> int:
        """Total miss events (interval delimiters) across all cores."""
        return sum(core.miss_events for core in self.cores)

    @property
    def events_per_instruction(self) -> float:
        """Miss events per committed instruction (the interval density)."""
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return self.total_miss_events / instructions

    def host_counters(self) -> Dict[str, int]:
        """Every host-only counter of the run, merged across cores.

        Each :data:`HOST_COUNTERS` entry is combined over the cores with its
        declared merge (summed, or max for high-water marks), and the event
        driver's and coherence controller's run-level counters
        (:attr:`driver_stats`) are folded in alongside.
        None of these take part in :meth:`deterministic_dict`.
        """
        totals: Dict[str, int] = {}
        for name, combine in HOST_COUNTERS.items():
            total = 0
            for core in self.cores:
                total = combine(total, getattr(core, name))
            totals[name] = total
        totals.update(self.driver_stats)
        return totals

    def as_dict(self) -> Dict[str, object]:
        """Flatten the run's statistics for reporting."""
        return {
            "simulator": self.simulator,
            "num_cores": self.num_cores,
            "total_cycles": self.total_cycles,
            "total_instructions": self.total_instructions,
            "aggregate_ipc": self.aggregate_ipc,
            "wall_clock_seconds": self.wall_clock_seconds,
            "cores": [core.as_dict() for core in self.cores],
            "memory": dict(self.memory_stats),
            "driver": dict(self.driver_stats),
        }

    def deterministic_dict(self) -> Dict[str, object]:
        """:meth:`as_dict` without host-dependent timing or host counters.

        Wall-clock time varies run to run even for identical simulations,
        and the driver and :data:`HOST_COUNTERS` counters measure host-side
        traffic (which the fast paths and their references trade off
        differently while producing identical simulated results), so
        reproducibility checks (e.g. parallel-versus-sequential sweeps, the
        golden corpus, the fast-versus-reference rigs) compare this
        dictionary instead of :meth:`as_dict`.
        """
        result = self.as_dict()
        result.pop("wall_clock_seconds", None)
        result.pop("driver", None)
        for core in result["cores"]:
            for name in HOST_COUNTERS:
                core.pop(name, None)
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulationStats":
        """Rebuild run statistics from an :meth:`as_dict` dictionary."""
        return cls(
            cores=[CoreStats.from_dict(core) for core in data.get("cores", [])],
            total_cycles=int(data.get("total_cycles", 0)),
            wall_clock_seconds=float(data.get("wall_clock_seconds", 0.0)),
            simulator=str(data.get("simulator", "")),
            memory_stats={
                str(key): int(value)
                for key, value in dict(data.get("memory", {})).items()
            },
            driver_stats={
                str(key): int(value)
                for key, value in dict(data.get("driver", {})).items()
            },
        )


class Stopwatch:
    """Wall-clock stopwatch used for simulation-speed measurements."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        """Start (or restart) the stopwatch."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the stopwatch and return the accumulated elapsed time."""
        if self._start is not None:
            self.elapsed += time.perf_counter() - self._start
            self._start = None
        return self.elapsed
