"""Detailed cycle-level out-of-order core model.

This is the reproduction's stand-in for the M5 out-of-order CPU model the
paper uses as its cycle-accurate reference.  Unlike the interval model it
tracks every instruction through the machine cycle by cycle:

* the :class:`~repro.detailed.frontend.FrontEnd` fetches from the functional
  stream, charges I-cache/I-TLB misses and branch-misprediction redirects,
  and imposes the front-end pipeline delay;
* dispatch moves instructions into the reorder buffer / issue queue /
  load-store queue, stalling when any of those resources is exhausted;
* issue selects up to ``issue_width`` ready instructions per cycle, subject
  to functional-unit availability; loads access the shared memory hierarchy
  at issue and observe the full miss latency;
* commit retires up to ``commit_width`` completed instructions per cycle in
  program order; stores drain through the store buffer to the memory system.

The same branch predictor and memory hierarchy objects as the interval
simulator are used, so both simulators observe identical miss events — the
difference is purely in how core-level timing is derived, which is exactly
the comparison the paper makes.
"""

from __future__ import annotations

import heapq
import operator
from typing import Dict, List, Optional

from ..branch import BranchPredictor
from ..common.config import MachineConfig
from ..common.isa import Instruction, InstructionClass, SyncKind
from ..common.stats import CoreStats
from ..memory.hierarchy import MemoryHierarchy
from ..multicore.simulator import CoreModel
from ..multicore.sync import SynchronizationManager
from ..trace.stream import TraceCursor
from .frontend import FrontEnd
from .structures import (
    FunctionalUnitPool,
    LoadStoreQueue,
    ReorderBuffer,
    RobEntry,
    StoreBuffer,
)

__all__ = ["DetailedCore"]

# Instruction-class codes, hoisted so the stage loops compare plain ints
# (the front end delivers each instruction's code alongside the object).
_LOAD = int(InstructionClass.LOAD)
_STORE = int(InstructionClass.STORE)
_SERIALIZING = int(InstructionClass.SERIALIZING)
_SYNC = int(InstructionClass.SYNC)

# Sort key restoring ROB (dispatch) order among merged ready buckets.
_dispatch_index = operator.attrgetter("idx")


class DetailedCore(CoreModel):
    """Cycle-level out-of-order core (the detailed reference model).

    Issue is event-driven by default: every ROB entry subscribes to its
    still-unissued producers at dispatch, a producer's issue wakes its
    subscribers with its exact ``complete_cycle``, and entries whose operand
    count hits zero land in a ready-at-cycle bucket.  ``_issue_stage_event``
    therefore only ever touches entries that could actually issue at ``now``
    instead of rescanning the whole unissued window every cycle.  The
    per-cycle reference scan stays available behind
    ``DetailedCore.event_driven_issue = False`` (test-only, the
    ``park_blocked_cores`` pattern) and the two are held bit-identical on
    every golden workload by ``tests/detailed/test_event_issue.py``.
    """

    #: Class-level switch for the issue-stage implementation.  ``True``
    #: (default) uses the event-driven ready buckets; ``False`` restores the
    #: per-cycle unissued-window scan as a test-only equivalence reference.
    event_driven_issue = True

    def __init__(
        self,
        core_id: int,
        config: MachineConfig,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: CoreStats,
        sync: Optional[SynchronizationManager] = None,
    ) -> None:
        super().__init__(core_id, stats)
        self.config = config
        self.core_config = config.core
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.sync = sync
        self.frontend = FrontEnd(core_id, config.core, hierarchy, predictor, stats)
        self.rob = ReorderBuffer(config.core.rob_entries)
        self.lsq = LoadStoreQueue(config.core.load_store_queue_entries)
        self.store_buffer = StoreBuffer(config.core.store_buffer_entries)
        self.fu_pool = FunctionalUnitPool(config.core)
        self._thread_id: Optional[int] = None
        self._register_producers: Dict[int, RobEntry] = {}
        self._unissued_count = 0
        self._serializing_in_flight: Optional[RobEntry] = None
        self._waiting_barrier: Optional[int] = None
        # (is_lock, sync_object) of a dispatch attempt that blocked this
        # cycle; reset every cycle.  The core parks on it once the pipeline
        # is quiescent (nothing in flight that could still make progress).
        self._sync_block: Optional[tuple] = None
        self._completion_heap: List[int] = []
        self._issue_scan_needed = True
        self._l1d_hit_latency = config.memory.l1d.hit_latency
        self._lat: List[int] = []
        # Event-driven issue state: ready entries bucketed by the cycle they
        # become eligible, a min-heap of occupied bucket cycles, and a
        # monotonic dispatch counter whose order is the ROB order (the sort
        # key that keeps event-driven issue bit-identical to the scan).
        self._event_issue: bool = self.event_driven_issue
        self._ready_buckets: Dict[int, List[RobEntry]] = {}
        self._bucket_heap: List[int] = []
        self._dispatch_seq = 0

    # -- CoreModel interface -----------------------------------------------------

    def bind_thread(self, cursor: TraceCursor, thread_id: int) -> None:
        """Attach a software thread's instruction stream to this core."""
        self.frontend.bind(cursor)
        self._cursor = cursor  # kept for the has_thread property
        self._thread_id = thread_id
        # Per-class execution latencies resolved once, indexed by class code.
        self._lat = cursor.trace.batch().latency_table(
            self.core_config.execution_latencies
        )

    def simulate_cycle(self, multi_core_time: int) -> None:
        """Simulate one clock cycle: commit, issue, dispatch, fetch."""
        if self.finished:
            return
        if self.sim_time != multi_core_time:
            return
        now = self.sim_time

        self._sync_block = None
        self._commit_stage(now)
        if self._event_issue:
            self._issue_stage_event(now)
        else:
            self._issue_stage(now)
        self._dispatch_stage(now)
        self.frontend.fetch_cycle(now)

        self.sim_time = now + 1

        if self.frontend.exhausted and self.rob.is_empty:
            self._finish(now)
            return
        if (
            self.park_blocked
            and self._sync_block is not None
            and self.rob.is_empty
            and not self._completion_heap
            and self.frontend.fetch_quiescent
        ):
            # Dispatch blocked on a sync object and the rest of the pipeline
            # can make no progress without it (back end drained, front end
            # full/exhausted, no miss timer pending): every further cycle
            # would repeat this one exactly, so park.  The stall/contention
            # for cycle `now` was charged live; back-fill starts at now + 1.
            is_lock, sync_object = self._sync_block
            self._park(is_lock, sync_object, now + 1, now + 1)
            return
        if self._event_issue and self._sync_block is None:
            target = self._dormant_until(now)
            if target is not None:
                self.sim_time = target

    # -- dormant-span skip -----------------------------------------------------------

    def _dormant_until(self, now: int) -> Optional[int]:
        """The next cycle this core can act, or ``None`` if that is ``now + 1``.

        Event-driven counterpart of the per-cycle crawl through dead time
        (I-miss stalls, branch redirects, long-load windows).  Evaluated on
        end-of-cycle state: every pipeline stage must be provably frozen
        until some future cycle — commit until the ROB head's completion,
        issue until the earliest ready bucket, dispatch until the fetch
        queue's head turns dispatchable or a resource frees, fetch until its
        miss timer — and during the span the core touches no shared state,
        so skipping straight to the earliest wake candidate is invisible to
        the other cores.  The only per-cycle observable in a frozen span is
        the reference's dispatch stall charge (ROB/issue-queue/LSQ full,
        checked in the reference's gate order on the frozen state), which is
        back-filled arithmetically — the same argument as the parked
        driver's stall back-fill, one level down.
        """
        frontend = self.frontend
        gate = frontend.fetch_gate(now + 1)
        if gate == 0:
            return None  # fetch can progress by itself next cycle
        wake = gate  # None, or the I-miss timer's wake cycle

        heap = self._bucket_heap
        if heap:
            cycle = heap[0]
            if wake is None or cycle < wake:
                wake = cycle
        head = self.rob.head()
        if head is not None and head.issued:
            cycle = head.complete_cycle
            if cycle <= now:
                # Commit stopped on width or a full store buffer with a
                # completed head: it can act again next cycle.
                return None
            if wake is None or cycle < wake:
                wake = cycle

        # Dispatch: replay the reference gate order on the frozen state to
        # find the per-cycle stall charge (or discover dispatch can act).
        charge = 0
        if (
            self.rob.is_full
            or self._unissued_count >= self.core_config.issue_queue_entries
        ):
            charge = 1
        else:
            peeked = frontend.head_entry()
            if peeked is not None:
                kcode, dispatch_ready = peeked
                if dispatch_ready > now + 1:
                    # The head turning dispatchable ends the frozen span.
                    if wake is None or dispatch_ready < wake:
                        wake = dispatch_ready
                elif self._serializing_in_flight is not None:
                    pass  # dispatch breaks silently until the barrier commits
                elif kcode == _SYNC or kcode == _SERIALIZING:
                    if self.rob.is_empty:
                        return None  # dispatch acts on it next cycle
                elif (kcode == _LOAD or kcode == _STORE) and self.lsq.is_full:
                    charge = 1
                else:
                    return None  # plainly dispatchable next cycle

        if wake is None or wake <= now + 1:
            return None
        span = wake - (now + 1)
        if charge:
            self.stats.dispatch_stall_cycles += span
        self.stats.issue_scans_skipped += span
        return wake

    # -- commit ---------------------------------------------------------------------

    def _commit_stage(self, now: int) -> None:
        """Retire up to ``commit_width`` completed instructions in order."""
        committed = 0
        stats = self.stats
        while committed < self.core_config.commit_width:
            entry = self.rob.head()
            if (
                entry is None
                or not entry.issued
                or entry.complete_cycle is None
                or entry.complete_cycle > now
            ):
                break
            instruction = entry.instruction
            kcode = entry.kcode
            is_memory = kcode == _LOAD or kcode == _STORE
            if kcode == _STORE:
                if self.store_buffer.is_full(now):
                    break
                # The store's memory access happens as it drains from the
                # store buffer; the access updates the caches and coherence
                # state shared with the other cores.  Address 0 is a valid
                # address — only a missing address is a trace bug, so the
                # guard must be an identity check, not truthiness.
                assert instruction.mem_addr is not None
                result = self.hierarchy.data_probe(
                    self.core_id, instruction.mem_addr, True, now
                )
                stats.dcache_accesses += 1
                if result is None:
                    # Penalty-free hit: the write drains at the hit latency.
                    self.store_buffer.push(now + self._l1d_hit_latency)
                else:
                    if result.l1_miss:
                        stats.l1d_misses += 1
                    if result.tlb_miss:
                        stats.dtlb_misses += 1
                    self.store_buffer.push(now + result.total_latency)
                stats.committed_stores += 1
            self.rob.pop_head()
            if is_memory:
                self.lsq.release()
                if kcode == _LOAD:
                    stats.committed_loads += 1
            if self._serializing_in_flight is entry:
                self._serializing_in_flight = None
            if self._register_producers.get(instruction.dst_reg) is entry:
                # The committed value now lives in the architectural register
                # file; later consumers are trivially ready.
                del self._register_producers[instruction.dst_reg]
            stats.instructions += 1
            committed += 1

    # -- issue ----------------------------------------------------------------------

    def _schedule_ready(self, entry: RobEntry, cycle: int) -> None:
        """Place a fully-ready entry in the bucket for ``cycle``."""
        bucket = self._ready_buckets.get(cycle)
        if bucket is None:
            self._ready_buckets[cycle] = [entry]
            heapq.heappush(self._bucket_heap, cycle)
        else:
            bucket.append(entry)

    def _issue_stage_event(self, now: int) -> None:
        """Issue up to ``issue_width`` instructions from the ready buckets.

        Equivalence with the reference scan: an entry enters a bucket exactly
        when its last constraint resolves (its dispatch ``ready_cycle`` or
        the ``complete_cycle`` of its slowest producer, whichever is later),
        so the candidates popped at ``now`` are precisely the entries
        ``_operands_ready`` would accept.  Sorting them by dispatch index
        reproduces the scan's ROB order, which fixes the functional-unit
        acquisition sequence and — through loads probing the hierarchy at
        issue — the shared-memory access order, bit for bit.  Entries denied
        by width or functional units stay ready and re-enter the next
        cycle's bucket, mirroring the scan revisiting them.
        """
        heap = self._bucket_heap
        if not heap or heap[0] > now:
            # Nothing can possibly issue this cycle; the reference would
            # have either rescanned or consulted its scan-needed latch.
            self.stats.issue_scans_skipped += 1
            return
        buckets = self._ready_buckets
        candidates = buckets.pop(heapq.heappop(heap))
        while heap and heap[0] <= now:
            # Multiple due buckets only happen after a parked core skips
            # cycles; merge them, the idx sort below restores ROB order.
            candidates.extend(buckets.pop(heapq.heappop(heap)))
        if len(candidates) > 1:
            candidates.sort(key=_dispatch_index)
        if len(candidates) > self.stats.ready_bucket_peak:
            self.stats.ready_bucket_peak = len(candidates)

        issue_width = self.core_config.issue_width
        fu_pool = self.fu_pool
        issued = 0
        overflow = None
        for position, entry in enumerate(candidates):
            if issued >= issue_width:
                overflow = position
                break
            if not fu_pool.try_acquire(entry.kcode, now):
                self._schedule_ready(entry, now + 1)
                continue
            self._issue_entry(entry, now)
            issued += 1
        if overflow is not None:
            retry = now + 1
            for entry in candidates[overflow:]:
                self._schedule_ready(entry, retry)

    def _issue_stage(self, now: int) -> None:
        """Issue up to ``issue_width`` ready instructions to functional units."""
        # Wake up on completions: if nothing completed and nothing was
        # dispatched since the last unsuccessful scan, the ready set cannot
        # have changed, so the scan can be skipped (keeps the detailed model
        # from wasting host time during long memory stalls).
        woke_up = False
        while self._completion_heap and self._completion_heap[0] <= now:
            heapq.heappop(self._completion_heap)
            woke_up = True
        if woke_up:
            self._issue_scan_needed = True
        if not self._issue_scan_needed:
            self.stats.issue_scans_skipped += 1
            return

        issued = 0
        blocked_by_resources = False
        for entry in self.rob.unissued_entries():
            if issued >= self.core_config.issue_width:
                blocked_by_resources = True
                break
            if not self._operands_ready(entry, now):
                continue
            if not self.fu_pool.try_acquire(entry.kcode, now):
                blocked_by_resources = True
                continue
            self._issue_entry(entry, now)
            issued += 1

        self._issue_scan_needed = issued > 0 or blocked_by_resources

    def _operands_ready(self, entry: RobEntry, now: int) -> bool:
        """Check whether all of an entry's producers have produced their value."""
        if entry.ready_cycle > now:
            return False
        for producer in entry.producers:
            if not producer.issued:
                return False
            if producer.complete_cycle is None or producer.complete_cycle > now:
                return False
        return True

    def _issue_entry(self, entry: RobEntry, now: int) -> None:
        """Issue one instruction: access memory if needed, schedule completion."""
        instruction = entry.instruction
        kcode = entry.kcode
        latency = self._lat[kcode]

        if kcode == _LOAD:
            assert instruction.mem_addr is not None
            result = self.hierarchy.data_probe(
                self.core_id, instruction.mem_addr, False, now
            )
            self.stats.dcache_accesses += 1
            if result is None:
                # Penalty-free hit: the load completes at the hit latency.
                latency = max(latency, self._l1d_hit_latency)
            else:
                if result.l1_miss:
                    self.stats.l1d_misses += 1
                if result.tlb_miss:
                    self.stats.dtlb_misses += 1
                if result.long_latency:
                    self.stats.long_latency_loads += 1
                latency = max(latency, result.total_latency)
                entry.memory_penalty = result.penalty
        elif kcode == _STORE:
            # Address generation only; the write happens at commit.
            latency = 1

        entry.issued = True
        entry.issue_cycle = now
        complete = now + max(1, latency)
        entry.complete_cycle = complete
        self._unissued_count -= 1
        if self._event_issue:
            # Wake every subscribed consumer with this entry's exact
            # completion cycle; the last producer to issue schedules it.
            waiters = entry.waiters
            if waiters is not None:
                self.stats.issue_wakeups += len(waiters)
                for waiter in waiters:
                    if waiter.ready_at < complete:
                        waiter.ready_at = complete
                    waiter.wait_count -= 1
                    if waiter.wait_count == 0:
                        self._schedule_ready(waiter, waiter.ready_at)
                entry.waiters = None
        else:
            heapq.heappush(self._completion_heap, complete)

        if entry.mispredicted:
            # Fetch resumes on the correct path once the branch has executed;
            # the front-end refill delay applies to the newly fetched
            # instructions.
            self.frontend.redirect_resolved(entry.complete_cycle)

    # -- dispatch -------------------------------------------------------------------

    def _dispatch_stage(self, now: int) -> None:
        """Move up to ``dispatch_width`` instructions into the back end."""
        dispatched = 0
        while dispatched < self.core_config.dispatch_width:
            if self.rob.is_full:
                self.stats.dispatch_stall_cycles += 1
                break
            if self._unissued_count >= self.core_config.issue_queue_entries:
                self.stats.dispatch_stall_cycles += 1
                break
            if self._serializing_in_flight is not None:
                break
            peeked = self.frontend.peek_dispatchable(now)
            if peeked is None:
                break
            instruction, kcode, predicted_correctly = peeked

            if kcode == _SYNC:
                if not self.rob.is_empty:
                    break
                if not self._handle_sync(instruction, now):
                    self.stats.sync_stall_cycles += 1
                    self._sync_block = (
                        instruction.sync == SyncKind.LOCK_ACQUIRE,
                        instruction.sync_object,
                    )
                    break
                self.frontend.pop_dispatchable()
                self.stats.instructions += 1
                dispatched += 1
                continue

            if kcode == _SERIALIZING and not self.rob.is_empty:
                # Serializing instructions wait for the window to drain.
                break
            is_memory = kcode == _LOAD or kcode == _STORE
            if is_memory and self.lsq.is_full:
                self.stats.dispatch_stall_cycles += 1
                break

            self.frontend.pop_dispatchable()
            entry = self._allocate_entry(instruction, kcode, is_memory, now)
            entry.mispredicted = not predicted_correctly
            if kcode == _SERIALIZING:
                self._serializing_in_flight = entry
                self.stats.serializing_instructions += 1
            dispatched += 1
        self._issue_scan_needed = self._issue_scan_needed or dispatched > 0

    def _allocate_entry(
        self, instruction: Instruction, kcode: int, is_memory: bool, now: int
    ) -> RobEntry:
        """Create a ROB entry, snapshot its producers, allocate resources."""
        register_producers = self._register_producers
        entry = RobEntry(
            instruction, dispatch_cycle=now, ready_cycle=now + 1, kcode=kcode
        )
        if self._event_issue:
            # Subscribe to unissued producers; fold issued producers'
            # completion cycles straight into the ready cycle (a completion
            # at or before ``now`` is the reference's "trivially ready" case
            # and cannot raise ready_at above the dispatch ready_cycle).
            ready_at = entry.ready_at
            wait_count = 0
            for register in instruction.src_regs:
                producer = register_producers.get(register)
                if producer is None:
                    continue
                if producer.issued:
                    complete = producer.complete_cycle
                    if complete > ready_at:
                        ready_at = complete
                else:
                    if producer.waiters is None:
                        producer.waiters = [entry]
                    else:
                        producer.waiters.append(entry)
                    wait_count += 1
            entry.ready_at = ready_at
            entry.wait_count = wait_count
            entry.idx = self._dispatch_seq
            self._dispatch_seq += 1
            if wait_count == 0:
                self._schedule_ready(entry, ready_at)
        else:
            producers = []
            for register in instruction.src_regs:
                producer = register_producers.get(register)
                if producer is not None and not (
                    producer.issued
                    and producer.complete_cycle is not None
                    and producer.complete_cycle <= now
                ):
                    producers.append(producer)
            entry.producers = producers
        self.rob.append(entry)
        self._unissued_count += 1
        if is_memory:
            self.lsq.allocate()
        if instruction.dst_reg is not None:
            register_producers[instruction.dst_reg] = entry
        return entry

    # -- synchronization -------------------------------------------------------------

    def _handle_sync(self, instruction: Instruction, cycle: int = 0) -> bool:
        """Interpret a synchronization pseudo-instruction at dispatch.

        ``cycle`` stamps any barrier/lock release this op performs so parked
        waiters resume at the right cycle.
        """
        if self.sync is None or self._thread_id is None:
            return True
        kind = instruction.sync
        if kind == SyncKind.BARRIER:
            if self._waiting_barrier != instruction.sync_object:
                self.sync.barrier_arrive(
                    self._thread_id, instruction.sync_object, cycle, self.core_id
                )
                self._waiting_barrier = instruction.sync_object
                self.stats.barrier_waits += 1
            if self.sync.barrier_released(instruction.sync_object):
                self._waiting_barrier = None
                return True
            return False
        if kind == SyncKind.LOCK_ACQUIRE:
            if self.sync.lock_try_acquire(self._thread_id, instruction.sync_object):
                self.stats.lock_acquisitions += 1
                return True
            self.stats.lock_contended += 1
            return False
        if kind == SyncKind.LOCK_RELEASE:
            # Ignore releases of locks this thread does not hold (the
            # matching acquire may have fallen into the warm-up prefix).
            if self.sync.lock_holder(instruction.sync_object) == self._thread_id:
                self.sync.lock_release(
                    self._thread_id, instruction.sync_object, cycle, self.core_id
                )
            return True
        return True

    # -- completion -----------------------------------------------------------------

    def _finish(self, final_cycle: Optional[int] = None) -> None:
        """Record completion of this core's trace.

        ``final_cycle`` stamps the cycle the trace's last instruction
        retired — the release cycle of any barriers the finish unblocks.
        """
        if self.finished:
            return
        self.finished = True
        self.stats.cycles = self.sim_time
        if self.sync is not None and self._thread_id is not None:
            if final_cycle is None:
                final_cycle = self.sim_time
            self.sync.thread_finished(self._thread_id, final_cycle, self.core_id)
