"""Multi-core simulation driver shared by all timing models.

The paper's framework (Figure 2) couples three simulators — branch predictor,
memory hierarchy and the core timing model — around a multi-core driver that
keeps a *multi-core simulated time* and per-core simulated times: a core is
only simulated in cycles where its own time has caught up with the global
time, which makes the core-level simulation event-driven.

This module factors that driver out of the individual timing models:
:class:`MulticoreSimulator` builds the shared memory hierarchy, the per-core
branch predictors and the synchronization manager, binds workload threads to
cores, and runs the global time loop.  Concrete simulators (interval,
detailed, one-IPC) only provide their per-core model by implementing
:meth:`MulticoreSimulator._create_core`.

The global loop is a min-heap over (per-core time, core id) with a parked
state for synchronization: cores blocked on an unreleased barrier or a held
lock leave the heap and wait on the sync object itself, and the releasing
step — or a wake timer the core set when it parked — re-inserts them with
their stall cycles back-filled (see :meth:`MulticoreSimulator._wake_parked`
for the equivalence argument against the per-cycle spin reference, which
`park_blocked_cores = False` restores).
"""

from __future__ import annotations

import abc
import heapq
from typing import List, Optional, Sequence

from ..branch import BranchPredictor, create_branch_predictor
from ..common.config import MachineConfig
from ..common.isa import InstructionClass, SyncKind
from ..common.stats import CoreStats, SimulationStats, Stopwatch
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..memory.hierarchy import MemoryHierarchy
from ..trace.columnar import FLAG_NO_FETCH, KLASS_PLAIN
from ..trace.stream import TraceCursor, Workload
from .sync import SynchronizationManager, WakeRecord

__all__ = ["CoreModel", "CycleLimitExceeded", "MulticoreSimulator"]

#: Sentinel upper bound for a core that can run to completion uninterrupted
#: (compares greater than any integer simulated time).
_UNBOUNDED = float("inf")

# Synchronization-kind codes, hoisted so the timing models compare plain ints.
_SK_BARRIER = int(SyncKind.BARRIER)
_SK_LOCK_ACQUIRE = int(SyncKind.LOCK_ACQUIRE)
_SK_LOCK_RELEASE = int(SyncKind.LOCK_RELEASE)


class CycleLimitExceeded(RuntimeError):
    """The multi-core simulated time passed the run's ``max_cycles`` bound.

    A :class:`RuntimeError`, so existing handlers still catch it.  Its one
    argument is the message, which keeps it picklable out of worker
    processes.
    """


class CoreModel(abc.ABC):
    """Interface every per-core timing model implements.

    A core model owns a per-core simulated time (:attr:`sim_time`), consumes
    one thread's instruction stream through a cursor bound with
    :meth:`bind_thread`, and advances its state one global cycle at a time
    through :meth:`simulate_cycle`.
    """

    def __init__(self, core_id: int, stats: CoreStats) -> None:
        self.core_id = core_id
        self.stats = stats
        self.sim_time = 0
        self.finished = False
        # Subclasses assign the bound thread's cursor here in bind_thread().
        self._cursor: Optional[TraceCursor] = None
        # Parked-driver contract.  When ``park_blocked`` is set (by the
        # driver, for multithreaded workloads), a core hitting an unreleased
        # barrier / held lock records what it is blocked on and returns from
        # its event step instead of spinning; the driver then parks it off
        # the event heap.  ``blocked_on`` is ``(is_lock, sync_object)`` while
        # blocked/parked, ``None`` otherwise; ``park_cycle`` is the first
        # cycle whose sync stall was not charged at the block site and
        # ``park_retry_cycle`` the first cycle whose failing lock attempt was
        # not counted — both back-filled by the driver at wake.
        # ``park_wake`` is the cycle of a *timed* park's wake timer (the
        # first cycle the core can act without a release, e.g. when its
        # pending fetch miss returns), ``None`` for a park only a release
        # ends.
        self.park_blocked = False
        self.blocked_on: Optional[tuple] = None
        self.park_cycle = 0
        self.park_retry_cycle = 0
        self.park_wake: Optional[int] = None
        # The shared synchronization manager, or None for single-threaded
        # runs; subclasses that synchronize overwrite this in __init__.
        self.sync: Optional[SynchronizationManager] = None
        # The bound software thread (set in bind_thread) and the barrier it
        # has arrived at but not yet passed, for _handle_sync_kind.
        self._thread_id: Optional[int] = None
        self._waiting_barrier: Optional[int] = None

    def _park(
        self,
        is_lock: bool,
        sync_object: int,
        park_cycle: int,
        retry_cycle: int,
        wake_cycle: Optional[int] = None,
    ) -> None:
        """Mark this core blocked on a sync object (driver parks it next).

        ``wake_cycle`` sets a wake timer: the driver resumes the core at
        that cycle unless a release wakes it first.
        """
        self.blocked_on = (is_lock, sync_object)
        self.park_cycle = park_cycle
        self.park_retry_cycle = retry_cycle
        self.park_wake = wake_cycle

    def _handle_sync_kind(self, kind: int, sync_object: int, cycle: int = 0) -> bool:
        """Interpret a synchronization pseudo-instruction.

        Every timing model gives barriers and locks the same semantics
        against the shared :class:`~repro.multicore.sync.SynchronizationManager`
        through this method.  Returns ``True`` when the instruction completes
        (and may be dispatched), ``False`` when the core must stall this
        cycle.  ``cycle`` is the dispatch cycle of the attempt; it stamps any
        barrier/lock release this op performs so parked waiters resume at
        the right cycle.
        """
        if self.sync is None or self._thread_id is None:
            return True
        if kind == _SK_BARRIER:
            if self._waiting_barrier != sync_object:
                self.sync.barrier_arrive(
                    self._thread_id, sync_object, cycle, self.core_id
                )
                self._waiting_barrier = sync_object
                self.stats.barrier_waits += 1
            if self.sync.barrier_released(sync_object):
                self._waiting_barrier = None
                return True
            return False
        if kind == _SK_LOCK_ACQUIRE:
            acquired = self.sync.lock_try_acquire(self._thread_id, sync_object)
            if acquired:
                self.stats.lock_acquisitions += 1
                return True
            self.stats.lock_contended += 1
            return False
        if kind == _SK_LOCK_RELEASE:
            # Only release locks this thread actually holds; a mismatched
            # release can occur when functional warm-up skipped the matching
            # acquire and is simply ignored.
            if self.sync.lock_holder(sync_object) == self._thread_id:
                self.sync.lock_release(
                    self._thread_id, sync_object, cycle, self.core_id
                )
            return True
        # Other sync kinds (spawn/join) are treated as no-ops by the timing model.
        return True

    @abc.abstractmethod
    def bind_thread(self, cursor: TraceCursor, thread_id: int) -> None:
        """Attach a software thread's instruction stream to this core."""

    @abc.abstractmethod
    def simulate_cycle(self, multi_core_time: int) -> None:
        """Simulate this core for global cycle ``multi_core_time``.

        Implementations must leave ``self.sim_time`` strictly greater than
        ``multi_core_time`` when the core has more work (either by charging a
        miss penalty or by the end-of-cycle increment), or set
        :attr:`finished` when the bound trace is exhausted.
        """

    def simulate_interval(self, run_until: int) -> None:
        """Simulate this core until its time reaches ``run_until`` (or it
        finishes).

        The event-heap driver hands every core the longest span it can run
        without another core needing to interleave; simulating the whole span
        in one call removes the per-cycle driver round trip.  The default
        implementation steps :meth:`simulate_cycle` at the core's own time
        repeatedly — exactly the call sequence the per-cycle driver would
        have produced for a core that is the unique earliest — so any
        :class:`CoreModel` batches correctly.  Models with an interval-level
        kernel (:class:`~repro.core.interval_core.IntervalCore`) override
        this with a columnar implementation.

        Two parked-driver exits cut the span short: a step that blocks the
        core on a sync object returns immediately (the driver parks the
        core), and a step that *releases* parked waiters finishes its cycle
        and returns so the driver can re-insert the waiters before this core
        runs further ahead.
        """
        sync = self.sync
        while not self.finished and self.sim_time < run_until:
            before = self.sim_time
            self.simulate_cycle(before)
            if self.blocked_on is not None:
                return
            if self.sim_time == before and not self.finished:
                raise RuntimeError(
                    f"core {self.core_id} made no progress at cycle {before}; "
                    "simulate_cycle must advance sim_time or finish"
                )
            if sync is not None and sync.wake_pending:
                return

    @property
    def has_thread(self) -> bool:
        """``True`` when a thread is bound to this core."""
        return self._cursor is not None


class MulticoreSimulator(abc.ABC):
    """Template for a full-chip timing simulator.

    Parameters
    ----------
    config:
        The machine to simulate (number of cores, core resources, memory
        hierarchy, idealization flags).
    """

    #: Human-readable simulator name recorded in result tables.
    name = "abstract"

    #: When ``True`` (the default), cores blocked on a barrier or lock are
    #: parked off the event heap until the release (O(1) heap traffic per
    #: block).  Setting it to ``False`` restores the per-cycle spin
    #: reference driver — kept for the equivalence test rig, which asserts
    #: both modes produce bit-identical statistics.
    park_blocked_cores = True

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    # -- hooks for concrete simulators ---------------------------------------------

    @abc.abstractmethod
    def _create_core(
        self,
        core_id: int,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: CoreStats,
        sync: Optional[SynchronizationManager],
    ) -> CoreModel:
        """Build the per-core timing model for ``core_id``."""

    # -- the simulation loop ----------------------------------------------------------

    def run(
        self,
        workload: Workload,
        max_cycles: Optional[int] = None,
        warmup_instructions: int = 0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> SimulationStats:
        """Simulate ``workload`` to completion and return run statistics.

        Parameters
        ----------
        workload:
            The workload to run.  Every thread must map onto a distinct core
            of the configured machine.
        max_cycles:
            Optional safety bound on the multi-core simulated time; exceeding
            it raises :class:`CycleLimitExceeded` (useful to catch
            synchronization deadlocks in tests).
        warmup_instructions:
            Number of leading instructions per thread used for *functional
            warming*: they update the caches, TLBs and branch predictors but
            are excluded from timing (the standard technique for removing
            cold-start bias from sampled/short simulations).  Both the
            interval and the detailed simulator warm the same way, so the
            comparison between them is unaffected.
        fault_plan:
            Optional deterministic fault schedule
            (:class:`~repro.faults.plan.FaultPlan`).  The injector is armed
            *after* functional warm-up, its point events are applied only at
            event-heap pop boundaries, and every core's ``run_until`` is
            clamped to the next pending fault cycle — so the injected fault
            schedule is a pure function of simulated time, identical across
            the spin/parked drivers, the fast/reference kernels and all
            three timing models.
        """
        self._validate_workload(workload)
        hierarchy = MemoryHierarchy(self.config)
        sync = (
            SynchronizationManager(workload.num_threads)
            if workload.kind == "multithreaded"
            else None
        )

        core_stats = [CoreStats(core_id=i) for i in range(self.config.num_cores)]
        predictors = [
            create_branch_predictor(
                self.config.core.branch_predictor,
                perfect=self.config.perfect.branch_predictor,
            )
            for _ in range(self.config.num_cores)
        ]
        cores: List[CoreModel] = [
            self._create_core(i, hierarchy, predictors[i], core_stats[i], sync)
            for i in range(self.config.num_cores)
        ]

        # Bind each software thread to its core, warming the shared state
        # with the leading part of each trace first.
        assert workload.core_assignment is not None
        cursors = [trace.cursor() for trace in workload.traces]
        if warmup_instructions > 0:
            self._functional_warmup(
                workload, cursors, hierarchy, predictors, warmup_instructions, sync
            )
        for cursor, trace, core_id in zip(
            cursors, workload.traces, workload.core_assignment
        ):
            cores[core_id].bind_thread(cursor, trace.thread_id)

        # Arm the fault injector only after warm-up so warming is always
        # fault-free (and dram.reset() at the end of warm-up cannot disarm
        # the window-fault state it installs).
        injector = (
            FaultInjector(fault_plan, hierarchy)
            if fault_plan is not None and not fault_plan.is_empty
            else None
        )

        active = [core for core in cores if core.has_thread]
        for core in cores:
            if not core.has_thread:
                core.finished = True
        park_blocked = self.park_blocked_cores and sync is not None
        for core in active:
            core.park_blocked = park_blocked

        stopwatch = Stopwatch()
        stopwatch.start()
        # Event-heap driver: the queue holds (per-core time, core id, core)
        # for every unfinished, unparked core, so each global step pops the
        # earliest core in O(log cores) instead of rebuilding O(cores)
        # lists.  Ties pop in core-id order (the per-cycle reference
        # driver's iteration order) and a tied core runs exactly one event
        # step; a core that is the *unique* earliest runs uninterrupted
        # until the next core's time, which is where the interval kernel
        # consumes whole intervals per call.
        #
        # Blocked cores leave the heap entirely: a core whose step ends
        # blocked on an unreleased barrier or held lock is parked on that
        # sync object's wait list, and the step that releases the object
        # yields so the waiters can be re-inserted at their resume cycles
        # with the skipped stall cycles back-filled in one arithmetic step
        # (`_wake_parked`).  Under the spin reference (park_blocked_cores =
        # False) any blocked core instead stays in the heap and crawls: its
        # time tracks the heap top, so every tied retry is a single-cycle
        # event step.  Both modes produce bit-identical statistics; parking
        # turns O(stall cycles × waiting cores) heap pops into O(1) per
        # block, which is what makes 64–256-core sync-heavy runs tractable.
        #
        # A core may also park with a wake timer (`park_wake`): a detailed
        # core blocked on a sync object with an empty ROB while its front
        # end waits on an I-cache miss can do nothing but fail its retry
        # until the miss returns, and that retry touches no shared state.
        # Its timer waits in `timers` as (wake cycle, core id, seq, core) —
        # the seq keeps two entries from ever tying on their key — and
        # fires ahead of every heap entry after it in (time, core id)
        # order, so the core resumes exactly where its spin would have
        # interleaved; every run_until stops at the earliest timer, so no
        # core runs past a timed wake.  Firing unparks the core as if a
        # core ranked before all others had released its object at the
        # wake cycle, which back-fills the skipped stalls the same way.  A
        # timer whose core a release already woke (it is running, or
        # parked again with another timer or none) is stale and skipped.
        event_queue = [
            (core.sim_time, core.core_id, core)
            for core in active
            if not core.finished
        ]
        heapq.heapify(event_queue)
        heappush = heapq.heappush
        heappop = heapq.heappop
        timers: List[tuple] = []
        timer_seq = 0
        time_cap = None if max_cycles is None else max_cycles + 1
        events_popped = 0
        while event_queue or timers:
            if timers:
                wake_cycle, waiter_id, _, waiter = timers[0]
                if waiter.blocked_on is None or waiter.park_wake != wake_cycle:
                    heappop(timers)
                    continue
                if not event_queue or (wake_cycle, waiter_id) < event_queue[0][:2]:
                    heappop(timers)
                    assert sync is not None
                    self._wake_parked(
                        sync.unpark(waiter, wake_cycle), sync, heappush, event_queue
                    )
                    continue
            core_time, core_id, core = heappop(event_queue)
            events_popped += 1
            if max_cycles is not None and core_time > max_cycles:
                raise CycleLimitExceeded(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(possible deadlock in {workload.name!r})"
                )
            if injector is not None and core_time >= injector.next_cycle:
                # Apply point faults due at or before this pop's time.  The
                # run_until clamp below guarantees no core has simulated past
                # an unapplied fault, so the mutation happens at a state that
                # is a pure function of simulated time.
                injector.apply_due(core_time)
            if event_queue:
                run_until = event_queue[0][0]
                if timers and timers[0][0] < run_until:
                    run_until = timers[0][0]
            elif timers:
                run_until = timers[0][0]
            else:
                # Last heap core: run to completion (or the time cap, or the
                # next sync block/release while other cores sit parked).
                run_until = _UNBOUNDED
            if time_cap is not None and run_until > time_cap:
                run_until = time_cap
            if run_until <= core_time:
                run_until = core_time + 1
            if injector is not None and run_until > injector.next_cycle:
                # Never simulate past the next pending fault; after
                # apply_due, next_cycle > core_time, so this keeps
                # run_until >= core_time + 1.
                run_until = injector.next_cycle

            core.simulate_interval(run_until)
            if core.blocked_on is not None:
                is_lock, sync_object = core.blocked_on
                assert sync is not None
                sync.park(core, is_lock, sync_object)
                if core.park_wake is not None:
                    timer_seq += 1
                    heappush(timers, (core.park_wake, core_id, timer_seq, core))
            elif not core.finished:
                if core.sim_time <= core_time:
                    raise RuntimeError(
                        f"core {core_id} made no progress at cycle {core_time}"
                    )
                heappush(event_queue, (core.sim_time, core_id, core))
            if sync is not None and sync.wake_pending:
                for wake in sync.drain_wakes():
                    self._wake_parked(wake, sync, heappush, event_queue)
        wall_clock = stopwatch.stop()
        if injector is not None:
            injector.merge_into(core_stats)
        if sync is not None:
            sync.stats.events_popped = events_popped
            if sync.parked_count:
                parked = sorted(sync.parked_cores(), key=lambda c: c.core_id)
                detail = "; ".join(
                    f"core {c.core_id} parked at cycle {c.park_cycle} on "
                    f"{'lock' if c.blocked_on[0] else 'barrier'} "
                    f"{c.blocked_on[1]}"
                    for c in parked
                )
                raise RuntimeError(
                    f"synchronization deadlock in {workload.name!r}: "
                    f"{len(parked)} core(s) still parked after all runnable "
                    f"cores finished: {detail}"
                )

        # Finalize per-core cycle counts for cores that never recorded them.
        for core in active:
            if core.stats.cycles == 0:
                core.stats.cycles = core.sim_time

        stats = SimulationStats(
            cores=[core.stats for core in cores],
            total_cycles=max((core.stats.cycles for core in active), default=0),
            wall_clock_seconds=wall_clock,
            simulator=self.name,
            memory_stats=hierarchy.collect_stats(),
            driver_stats={
                "events_popped": events_popped,
                "cores_parked": sync.stats.cores_parked if sync else 0,
                "park_cycles_skipped": (
                    sync.stats.park_cycles_skipped if sync else 0
                ),
                "park_timer_wakes": sync.stats.park_timer_wakes if sync else 0,
                "snoop_probes": hierarchy.coherence.stats.snoop_probes,
            },
        )
        return stats

    @staticmethod
    def _wake_parked(
        wake: WakeRecord, sync: SynchronizationManager, heappush, event_queue
    ) -> None:
        """Re-insert one released waiter with its skipped stalls back-filled.

        Under the spin reference any blocked core's time tracks the heap
        top, so at the release — dispatched by core ``b`` at cycle ``R`` —
        every spinning waiter sits at ``R`` or ``R + 1``: waiters with
        core id < ``b`` were popped before ``b`` at ``R`` (their retry
        failed, pushing them to ``R + 1``) while waiters with id > ``b``
        were still queued at ``R`` and succeed there.  Hence the resume
        cycle is ``R`` when the waiter's id exceeds the releaser's and
        ``R + 1`` otherwise, and the stall cycles in
        ``[park_cycle, resume)`` — plus, for locks, the failed acquire
        attempts in ``[retry_cycle, resume)`` — are exactly what the spin
        would have charged one cycle at a time.

        A wake timer firing at cycle ``T`` arrives here as a release at
        ``T`` by core ``-1`` (:meth:`SynchronizationManager.unpark`), so the
        waiter resumes at ``T`` itself: the timer fires ahead of every heap
        entry after ``(T, waiter id)``, which is where the spinning waiter
        would have run cycle ``T``.
        """
        waiter = wake.core
        release = wake.release_cycle
        resume = release if waiter.core_id > wake.releaser_id else release + 1
        skipped = resume - wake.park_cycle
        waiter.stats.sync_stall_cycles += skipped
        sync.stats.park_cycles_skipped += skipped
        if wake.is_lock:
            retries = resume - wake.retry_cycle
            if retries > 0:
                waiter.stats.lock_contended += retries
                sync.stats.lock_contentions += retries
        waiter.blocked_on = None
        waiter.sim_time = resume
        heappush(event_queue, (resume, waiter.core_id, waiter))

    # -- functional warming -----------------------------------------------------------

    def _functional_warmup(
        self,
        workload: Workload,
        cursors: List[TraceCursor],
        hierarchy: MemoryHierarchy,
        predictors: List[BranchPredictor],
        warmup_instructions: int,
        sync: Optional[SynchronizationManager] = None,
    ) -> None:
        """Warm caches, TLBs and branch predictors with each trace's prefix.

        The prefix is consumed from the cursors (so timing starts after it)
        and is replayed against the shared memory hierarchy and the per-core
        predictors in round-robin chunks, which interleaves the threads'
        warm-up traffic in the shared L2 roughly the way the timed portion
        interleaves it.

        Barrier arrivals inside the warm-up prefix are registered with the
        synchronization manager: threads consume different numbers of
        barriers during warm-up (serial sections and load imbalance make the
        prefixes asymmetric), and a thread still in front of barrier *k* must
        not wait forever for peers that already passed it during warm-up.
        Lock operations are not replayed — critical sections skipped by
        warm-up have no lasting effect on the timed region.

        The replay runs on the columnar trace batch.  Fetch warming goes
        through the hierarchy's batched
        :meth:`~repro.memory.hierarchy.MemoryHierarchy.access_block`: one
        call commits the fetch hit path up to the next I-side *miss*, which
        is completed in place when its instruction's turn comes (fetch hits
        touch only the core's private L1i/I-TLB, so committing them early
        preserves every structure's access order against the individually
        replayed data accesses, which do contend for the shared L2 and the
        DRAM bus).
        """
        assert workload.core_assignment is not None
        # Round-robin chunking only matters when several threads interleave
        # their warm-up traffic in the shared levels; a lone thread warms its
        # whole prefix in one pass.
        chunk = 256 if len(cursors) > 1 else max(256, warmup_instructions)
        barrier_kind = int(SyncKind.BARRIER)
        sync_code = int(InstructionClass.SYNC)
        load_code = int(InstructionClass.LOAD)
        store_code = int(InstructionClass.STORE)
        branch_code = int(InstructionClass.BRANCH)
        plain = KLASS_PLAIN
        # Never let warm-up consume more than half of a thread's trace: the
        # timed region must retain a meaningful instruction count even when
        # the workload splits its work across many short per-thread traces.
        remaining = [
            min(warmup_instructions, cursor.remaining // 2) for cursor in cursors
        ]
        # Exclusive end of each thread's verified-fetch run (carried across
        # round-robin chunks; fetch hits stay valid because nothing evicts a
        # private I-side line except this core's own fetch misses).
        fetch_done = [cursor.position for cursor in cursors]
        while any(count > 0 for count in remaining):
            for index, cursor in enumerate(cursors):
                if remaining[index] <= 0:
                    continue
                core_id = workload.core_assignment[index]
                predictor = predictors[core_id]
                batch = cursor.trace.batch()
                klass = batch.klass
                pcs = batch.pc
                addrs = batch.mem_addr
                sync_kinds = batch.sync_kind
                sync_objects = batch.sync_object
                instructions = batch.instructions
                skip_sync = batch.fetch_skip_template if batch.has_sync else None
                run_ends = batch.plain_run_ends()
                line_runs = hierarchy.fetch_line_runs(batch)
                thread_id = cursor.trace.thread_id
                position = cursor.position
                fetch_limit = fetch_done[index]
                stop = min(position + min(chunk, remaining[index]), batch.length)
                while position < stop:
                    k = klass[position]
                    if k == sync_code:
                        # Sync pseudo-ops touch no cache; register barrier
                        # arrivals so warmed-ahead threads cannot deadlock
                        # the timed region.
                        if sync is not None and sync_kinds[position] == barrier_kind:
                            sync.barrier_arrive(thread_id, sync_objects[position])
                        position += 1
                        continue
                    if position >= fetch_limit:
                        fetch_limit = hierarchy.access_block(
                            core_id, pcs, position, stop, skip_sync,
                            FLAG_NO_FETCH, line_runs,
                        )
                        if fetch_limit == position:
                            # The fetch itself misses: complete it in place.
                            hierarchy.instruction_probe(core_id, pcs[position], 0)
                            fetch_limit = position + 1
                    if plain[k]:
                        # Plain instructions only touch the (already warmed)
                        # fetch path: skip the whole verified run at once.
                        end = run_ends[position]
                        if end > stop:
                            end = stop
                        if end > fetch_limit:
                            end = fetch_limit
                        position = end
                        continue
                    if k == load_code or k == store_code:
                        address = addrs[position]
                        if address is not None:
                            hierarchy.warm_data(core_id, address, k == store_code)
                    elif k == branch_code:
                        predictor.access(instructions[position])
                    position += 1
                cursor.advance_to(position)
                fetch_done[index] = fetch_limit
                remaining[index] = max(0, remaining[index] - chunk)
        # Warm-up traffic should not pollute the statistics reported for the
        # timed region: clear predictor counters and memory-bus reservations
        # (cache/TLB *contents* are of course kept — that is the point).
        for predictor in predictors:
            predictor.stats.reset()
        hierarchy.dram.reset()

    # -- validation ----------------------------------------------------------------------

    def _validate_workload(self, workload: Workload) -> None:
        """Check that the workload fits on the configured machine."""
        assert workload.core_assignment is not None
        if workload.num_cores_required > self.config.num_cores:
            raise ValueError(
                f"workload {workload.name!r} needs "
                f"{workload.num_cores_required} cores but the machine has "
                f"{self.config.num_cores}"
            )
        if len(set(workload.core_assignment)) != len(workload.core_assignment):
            raise ValueError("each core can run at most one thread")
