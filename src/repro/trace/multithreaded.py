"""Synthetic multi-threaded (PARSEC-like) trace generation.

The paper's multi-threaded workloads (PARSEC, run in full-system mode) incur
inter-thread synchronization and cache-coherence effects.  This module
generates a set of per-thread traces that exhibit those effects:

* **Barriers** — the parallel work is divided into phases; at the end of each
  phase every thread executes a ``SYNC(BARRIER)`` pseudo-instruction with a
  common barrier identifier.  The multi-core simulators stall a core at a
  barrier until all participating threads have reached it.
* **Locks** — critical sections are delimited by ``SYNC(LOCK_ACQUIRE)`` /
  ``SYNC(LOCK_RELEASE)`` pairs over a small set of lock objects; contention
  produces serialization.
* **Sharing** — a fraction of data accesses (``profile.shared_fraction``)
  targets a region common to all threads, which the MOESI protocol then keeps
  coherent, generating coherence misses and invalidations.
* **Load imbalance** — per-phase work per thread is perturbed with a
  configurable coefficient of variation, reproducing the poor scaling of
  benchmarks such as ``vips``.
* **Serial sections** — a ``1 - parallel_fraction`` share of the work is
  executed by thread 0 alone while the other threads idle at the next
  barrier (Amdahl-style serial fraction).

The total amount of work is fixed per workload (it does not grow with the
thread count), so running the same workload on more cores yields shorter
execution times — exactly the scaling experiment of Figure 7.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Optional

from ..common.isa import InstructionClass, SyncKind
from .columnar import TraceBatch
from .profiles import WorkloadProfile
from .stream import ThreadTrace, Workload
from .synthetic import SyntheticTraceGenerator, _ONE, _SHARED_BASE

__all__ = ["MultiThreadedTraceGenerator", "generate_multithreaded_workload"]


_SYNC_PC_BASE = 0x00F0_0000
_SHARED_INIT_PC = 0x0040_0500
_NUM_LOCKS = 8
_SYNC = int(InstructionClass.SYNC)


class MultiThreadedTraceGenerator:
    """Generates the per-thread traces of one parallel (PARSEC-like) program.

    Each thread's work comes from its own
    :class:`~repro.trace.synthetic.SyntheticTraceGenerator`, emitted in
    chunks into that thread's :class:`~repro.trace.columnar.TraceBatch`; the
    synchronization pseudo-ops between the chunks are appended to the same
    columns.

    Parameters
    ----------
    profile:
        A PARSEC-like :class:`~repro.trace.profiles.WorkloadProfile`.
    num_threads:
        Number of worker threads (one per core in the paper's experiments).
    total_instructions:
        Total dynamic work of the program across all threads.  ``None``
        selects ``profile.instructions``; constant with respect to
        ``num_threads`` so that more threads mean less work per thread.
    seed:
        Deterministic seed.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        num_threads: int,
        total_instructions: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if num_threads <= 0:
            raise ValueError("need at least one thread")
        self.profile = profile
        self.num_threads = num_threads
        self.total_instructions = (
            profile.instructions if total_instructions is None else total_instructions
        )
        if self.total_instructions <= 0:
            raise ValueError("total instruction count must be positive")
        self.seed = seed
        # crc32: stable across processes, unlike the salted builtin hash().
        self._rng = random.Random(seed ^ zlib.crc32(profile.name.encode()))

    def generate(self) -> Workload:
        """Produce the workload: one trace per thread plus sync structure."""
        profile = self.profile
        num_threads = self.num_threads

        generators = [
            SyntheticTraceGenerator(
                profile,
                seed=self.seed + 1,
                thread_id=tid,
                shared_region_base=_SHARED_BASE,
                shared_region_size=max(64 * 1024, profile.l2_working_set // 2),
            )
            for tid in range(num_threads)
        ]
        batches = [TraceBatch() for _ in range(num_threads)]

        # Data-initialization phase: every thread sweeps its private working
        # sets, and the main thread additionally initializes the shared
        # region (the way a real parallel program allocates and fills its
        # shared data before spawning workers).  Experiments cover this phase
        # with functional warm-up.
        per_thread_budget = max(0, self.total_instructions // max(num_threads, 1) // 5)
        for generator, batch in zip(generators, batches):
            generator.emit_init_phase(batch, budget=per_thread_budget)
        self._shared_region_init(generators[0], batches[0], budget=per_thread_budget)

        serial_work = int(self.total_instructions * (1.0 - profile.parallel_fraction))
        parallel_work = self.total_instructions - serial_work

        barrier_interval = profile.barrier_interval or parallel_work
        num_phases = max(1, round(parallel_work / max(barrier_interval, 1)))
        phase_work = parallel_work // num_phases
        barrier_id = 0

        # Leading serial section: thread 0 works, everyone then synchronizes.
        if serial_work > 0:
            generators[0].emit(batches[0], serial_work // 2)
            barrier_id = self._emit_barrier(batches, barrier_id)

        for phase in range(num_phases):
            shares = self._phase_shares(phase_work)
            for tid in range(num_threads):
                self._emit_parallel_work(generators[tid], batches[tid], shares[tid])
            if profile.barrier_interval > 0 or phase < num_phases - 1:
                barrier_id = self._emit_barrier(batches, barrier_id)

        # Trailing serial section (e.g. result aggregation by the main thread).
        if serial_work > 0:
            generators[0].emit(batches[0], serial_work - serial_work // 2)
            barrier_id = self._emit_barrier(batches, barrier_id)

        traces = [
            ThreadTrace(batch.seal(), thread_id=tid, name=f"{profile.name}.t{tid}")
            for tid, batch in enumerate(batches)
        ]
        return Workload(
            name=f"{profile.name} ({num_threads} threads)",
            traces=traces,
            core_assignment=list(range(num_threads)),
            kind="multithreaded",
            num_barriers=barrier_id,
        )

    # -- helpers -----------------------------------------------------------------

    def _shared_region_init(
        self, generator: SyntheticTraceGenerator, batch: TraceBatch, budget: int
    ) -> None:
        """Main-thread sweep over the shared region (stores, one per line)."""
        base = generator.shared_region_base
        addresses = range(base, base + generator.shared_region_size, 64)[:budget]
        count = len(addresses)
        batch.append_records(
            [0] * count, int(InstructionClass.STORE), [_SHARED_INIT_PC] * count,
            addresses, _ONE[1],
        )

    def _phase_shares(self, phase_work: int) -> List[int]:
        """Split one phase's work across threads with load imbalance."""
        profile = self.profile
        base_share = phase_work / self.num_threads
        shares = []
        for _ in range(self.num_threads):
            noise = self._rng.gauss(1.0, profile.load_imbalance) if profile.load_imbalance > 0 else 1.0
            shares.append(max(16, int(base_share * max(0.1, noise))))
        return shares

    def _emit_parallel_work(
        self,
        generator: SyntheticTraceGenerator,
        batch: TraceBatch,
        amount: int,
    ) -> None:
        """Emit a thread's share of one parallel phase, with critical sections."""
        profile = self.profile
        remaining = amount
        lock_interval = profile.lock_interval
        while remaining > 0:
            if lock_interval > 0:
                chunk = min(remaining, max(8, int(self._rng.expovariate(1.0 / lock_interval))))
            else:
                chunk = remaining
            generator.emit(batch, chunk)
            remaining -= chunk
            if lock_interval > 0 and remaining > 0:
                remaining -= self._emit_critical_section(
                    generator, batch, min(remaining, profile.critical_section_length)
                )

    def _emit_critical_section(
        self,
        generator: SyntheticTraceGenerator,
        batch: TraceBatch,
        length: int,
    ) -> int:
        """Emit a lock-protected critical section; returns instructions used."""
        lock_id = self._rng.randrange(_NUM_LOCKS)
        pc = _SYNC_PC_BASE + 8 * lock_id
        _append_sync(batch, pc, SyncKind.LOCK_ACQUIRE, lock_id)
        body = max(1, length)
        generator.emit(batch, body)
        _append_sync(batch, pc + 4, SyncKind.LOCK_RELEASE, lock_id)
        return body + 2

    def _emit_barrier(self, batches: List[TraceBatch], barrier_id: int) -> int:
        """Append a barrier pseudo-instruction to every thread's stream."""
        for batch in batches:
            _append_sync(batch, _SYNC_PC_BASE + 0x1000, SyncKind.BARRIER, barrier_id)
        return barrier_id + 1


def _append_sync(batch: TraceBatch, pc: int, kind: SyncKind, sync_object: int) -> None:
    """Append one synchronization pseudo-op (sequence number 0) to ``batch``."""
    batch.append_records((0,), _SYNC, (pc,), (None,), (), int(kind), sync_object)


def generate_multithreaded_workload(
    profile: WorkloadProfile,
    num_threads: int,
    total_instructions: Optional[int] = None,
    seed: int = 0,
) -> Workload:
    """Convenience wrapper building a multi-threaded workload in one call."""
    generator = MultiThreadedTraceGenerator(
        profile, num_threads, total_instructions=total_instructions, seed=seed
    )
    return generator.generate()
