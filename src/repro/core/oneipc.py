"""One-IPC core model — the simplistic baseline the paper argues against.

Section 6 of the paper notes that, to sidestep slow detailed simulation, "a
common assumption is to assume that all cores execute one instruction per
cycle (i.e., a non-memory IPC equal to one)" and positions interval
simulation as an "easy-to-implement, fast and more accurate alternative for
the one-IPC performance model".

:class:`OneIPCCore` implements exactly that baseline *model*: every
non-memory instruction takes one cycle; memory accesses and branch
mispredictions add their miss penalties (determined by the same
branch-predictor and memory-hierarchy simulators the other models use).
Having the baseline in the package lets the ablation benchmarks quantify how
much accuracy interval analysis adds over the naive model.

Execution engine
----------------
Although the *model* is simple, it no longer executes as a slow per-cycle
loop: :class:`OneIPCCore` runs on the shared execution-kernel layer
(:mod:`repro.core.kernel`) and is embarrassingly batchable.  Under one-IPC
semantics every instruction between two miss events costs exactly one cycle,
so :meth:`OneIPCCore.simulate_interval` commits whole inter-event runs over
the columnar :class:`~repro.trace.columnar.TraceBatch` as constant-time
arithmetic (``instructions += run``, ``sim_time += run``), with fetches
verified interval-at-a-time through the hierarchy's batched probe
(:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_block`).  Per-
instruction work survives only where the model genuinely interacts with
another simulator: branch-predictor accesses, data-side probes and
synchronization pseudo-ops.  The kernel is bit-identical to the reference
per-cycle formulation (``tests/regression`` pins it against the frozen
golden corpus).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..branch import BranchPredictor
from ..common.stats import CoreStats
from ..memory.hierarchy import MemoryHierarchy
from ..multicore.simulator import _SK_LOCK_ACQUIRE, CoreModel, MulticoreSimulator
from ..multicore.sync import SynchronizationManager
from ..trace.columnar import KLASS_PLAIN, TraceBatch
from ..trace.stream import TraceCursor
from .kernel import (
    F_NOFETCH as _F_NOFETCH,
    KLASS_BRANCH as _BRANCH,
    KLASS_LOAD as _LOAD,
    KLASS_STORE as _STORE,
    KLASS_SYNC as _SYNC,
    ColumnarKernelCore,
)

__all__ = ["OneIPCCore", "OneIPCSimulator"]


class OneIPCCore(ColumnarKernelCore):
    """A core that commits one instruction per cycle plus miss penalties."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._run_ends: Sequence[int] = ()

    def _bind_batch(self, batch: TraceBatch, cursor: TraceCursor) -> None:
        """Cache the batch's plain-run column for the arithmetic commits."""
        self._run_ends = batch.plain_run_ends()

    def simulate_interval(self, run_until: int) -> None:
        """Run the one-IPC kernel until ``sim_time`` reaches ``run_until``.

        Whole runs of plain instructions inside the verified-fetch window
        commit as one arithmetic step (each is exactly one cycle under the
        one-IPC assumption); the hierarchy, the branch predictor and the
        synchronization manager are consulted only where the reference
        per-cycle formulation consulted them, at the same simulated times.
        """
        if self.finished or self._cursor is None:
            return
        sim_time = self.sim_time
        if sim_time >= run_until:
            return
        batch = self._batch
        assert batch is not None

        # Blocked-at-barrier event steps dominate sync-heavy workloads under
        # the spin reference (tied waiting cores interleave one cycle at a
        # time); charge or park them without paying the full alias hoist
        # below.
        pos = self._head
        if pos < self._n and batch.klass[pos] == _SYNC:
            kind = batch.sync_kind[pos]
            sync_object = batch.sync_object[pos]
            if not self._handle_sync_kind(kind, sync_object, sim_time):
                if self.park_blocked:
                    # The attempt just performed was charged at sim_time;
                    # stalls back-fill from sim_time, retries from the next
                    # cycle.
                    self._store_kernel_state(
                        pos, self._fetch_limit, sim_time, self.stats.instructions
                    )
                    self._park(
                        kind == _SK_LOCK_ACQUIRE, sync_object, sim_time,
                        sim_time + 1,
                    )
                    return
                span = self._blocked_stall_span(sim_time, run_until)
                self._charge_blocked_retries(kind, span)
                self.stats.sync_stall_cycles += span
                self.sim_time = sim_time + span
                return
            # The sync op completed: commit it exactly like the main loop.
            self.stats.instructions += 1
            pos += 1
            sim_time += 1
            self._store_kernel_state(
                pos, self._fetch_limit, sim_time, self.stats.instructions
            )
            if pos >= self._n:
                self._finish(sim_time - 1)
                return
            if self.sync is not None and self.sync.wake_pending:
                # The op released parked waiters: yield so the driver can
                # re-insert them before this core runs further ahead.
                return
            if sim_time >= run_until:
                return

        # -- hot-loop aliases -----------------------------------------------------
        stats = self.stats
        klass = batch.klass
        pcs = batch.pc
        addrs = batch.mem_addr
        sync_kind_col = batch.sync_kind
        sync_obj_col = batch.sync_object
        instrs = batch.instructions
        # Traces without sync pseudo-ops skip the per-position flag test in
        # the batched probe entirely.
        skip_flags = batch.fetch_skip_template if batch.has_sync else None
        run_ends = self._run_ends
        line_runs = self._line_runs
        plain = KLASS_PLAIN
        n = self._n
        pos = self._head
        fetch_limit = self._fetch_limit

        hierarchy = self.hierarchy
        core_id = self.core_id
        probe = hierarchy.instruction_probe
        fetch_block = hierarchy.access_block
        data_probe = hierarchy.data_probe
        predictor_access = self.predictor.access
        fe_depth = self.core_config.frontend_pipeline_depth
        instr_count = stats.instructions
        sync_mgr = self.sync
        park_blocked = self.park_blocked
        # Dispatch cycle of the trace's final instruction, stamped onto the
        # thread-finished release (penalties may advance sim_time past it).
        fin_cycle = sim_time

        while sim_time < run_until:
            if pos >= n:
                break  # stream empty at cycle start (empty trace)
            k = klass[pos]

            if plain[k] and pos < fetch_limit:
                # -- whole inter-event run: a constant-time arithmetic commit --
                # Every instruction in [pos, limit) is plain (no data access,
                # no branch, no sync) with its fetch already verified as a
                # hit, so each costs exactly one cycle.
                limit = run_ends[pos]
                if limit > fetch_limit:
                    limit = fetch_limit
                span = limit - pos
                budget = run_until - sim_time  # driver bound (may be inf)
                if span > budget:
                    span = int(budget)
                sim_time += span
                instr_count += span
                pos += span
                if pos >= n:
                    fin_cycle = sim_time - 1
                    break
                continue

            if k == _SYNC:
                # -- synchronization pseudo-instruction (no fetch) --
                kind = sync_kind_col[pos]
                sync_object = sync_obj_col[pos]
                if not self._handle_sync_kind(kind, sync_object, sim_time):
                    if park_blocked:
                        # Hand the blocked core to the driver's wait lists;
                        # the failed attempt was charged at sim_time.
                        self._store_kernel_state(
                            pos, fetch_limit, sim_time, instr_count
                        )
                        self._park(
                            kind == _SK_LOCK_ACQUIRE, sync_object, sim_time,
                            sim_time + 1,
                        )
                        return
                    # Spin reference: nothing can unblock the core before
                    # run_until, so the whole stall is charged in one step
                    # (with the skipped retries' side effects).
                    span = self._blocked_stall_span(sim_time, run_until)
                    self._charge_blocked_retries(kind, span)
                    stats.sync_stall_cycles += span
                    sim_time += span
                    continue
                instr_count += 1
                pos += 1
                sim_time += 1
                if pos >= n:
                    fin_cycle = sim_time - 1
                    break
                if sync_mgr is not None and sync_mgr.wake_pending:
                    # The op released parked waiters: yield so the driver
                    # re-inserts them before this core runs further ahead.
                    self._store_kernel_state(pos, fetch_limit, sim_time, instr_count)
                    return
                continue

            penalty = 0

            # -- instruction fetch --
            if pos >= fetch_limit:
                # One batched probe commits every upcoming fetch hit and
                # stops at the next I-side miss event.
                fetch_limit = fetch_block(
                    core_id, pcs, pos, n, skip_flags, _F_NOFETCH, line_runs
                )
                if fetch_limit == pos:
                    result = probe(core_id, pcs[pos], sim_time)
                    fetch_limit = pos + 1
                    if result is not None:
                        if result.l1_miss:
                            stats.icache_misses += 1
                        if result.tlb_miss:
                            stats.itlb_misses += 1
                        penalty = result.penalty

            if plain[k]:
                if penalty == 0:
                    continue  # fetch verified: the batched path takes the run
                instr_count += 1
                pos += 1
                sim_time += 1 + penalty
                if pos >= n:
                    fin_cycle = sim_time - 1 - penalty
                    break
                continue

            if k == _BRANCH:
                # -- branch prediction: mispredictions refill the front end --
                stats.branch_lookups += 1
                if not predictor_access(instrs[pos]):
                    stats.branch_mispredictions += 1
                    penalty += fe_depth
            elif k == _LOAD or k == _STORE:
                # -- data access: loads observe the whole miss penalty --
                is_store = k == _STORE
                result = data_probe(core_id, addrs[pos], is_store, sim_time)
                stats.dcache_accesses += 1
                if result is None:
                    # L1/TLB hit: no penalty.
                    if is_store:
                        stats.committed_stores += 1
                    else:
                        stats.committed_loads += 1
                else:
                    if result.l1_miss:
                        stats.l1d_misses += 1
                    if result.tlb_miss:
                        stats.dtlb_misses += 1
                    if is_store:
                        # Stores retire through the store buffer; they do not
                        # stall the one-IPC core.
                        stats.committed_stores += 1
                    else:
                        stats.committed_loads += 1
                        penalty += result.penalty
                        if result.long_latency:
                            stats.long_latency_loads += 1
            # else: serializing — fetch-only under one-IPC semantics.

            instr_count += 1
            pos += 1
            sim_time += 1 + penalty
            if pos >= n:
                fin_cycle = sim_time - 1 - penalty
                break

        self._store_kernel_state(pos, fetch_limit, sim_time, instr_count)
        if pos >= n and not self.finished:
            self._finish(fin_cycle)

    # -- kernel bookkeeping --------------------------------------------------------

    def _store_kernel_state(
        self, pos: int, fetch_limit: int, sim_time: int, instructions: int
    ) -> None:
        """Write the kernel's loop-local state back onto the core objects."""
        self._head = pos
        self._fetch_limit = fetch_limit
        self.sim_time = sim_time
        self.stats.instructions = instructions
        cursor = self._cursor
        if cursor is not None and cursor.position < pos:
            cursor.advance_to(pos)


class OneIPCSimulator(MulticoreSimulator):
    """Multi-core simulator built from :class:`OneIPCCore` models."""

    name = "oneipc"

    def _create_core(
        self,
        core_id: int,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: CoreStats,
        sync: Optional[SynchronizationManager],
    ) -> CoreModel:
        """Build a :class:`OneIPCCore` for ``core_id``."""
        return OneIPCCore(
            core_id=core_id,
            config=self.config,
            hierarchy=hierarchy,
            predictor=predictor,
            stats=stats,
            sync=sync,
        )
