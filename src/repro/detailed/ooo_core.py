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
from ..common.isa import InstructionClass
from ..common.stats import CoreStats
from ..memory.hierarchy import MemoryHierarchy
from ..multicore.simulator import _SK_LOCK_ACQUIRE, CoreModel
from ..multicore.sync import SynchronizationManager
from ..trace.columnar import TraceBatch
from ..trace.stream import TraceCursor
from .frontend import FrontEnd
from .structures import (
    _UNIT_KIND_TABLE,
    FunctionalUnitPool,
    LoadStoreQueue,
    ReorderBuffer,
    RobEntry,
    StoreBuffer,
)

__all__ = ["DetailedCore"]

# Instruction-class codes, hoisted so the stage loops compare plain ints
# (read off the trace batch's ``klass`` column).
_LOAD = int(InstructionClass.LOAD)
_STORE = int(InstructionClass.STORE)
_BRANCH = int(InstructionClass.BRANCH)
_SERIALIZING = int(InstructionClass.SERIALIZING)
_SYNC = int(InstructionClass.SYNC)

#: Functional-unit pool index per class code: 0 integer, 1 load/store, 2 FP.
_UNIT_INDEX = tuple(("int", "mem", "fp").index(kind) for kind in _UNIT_KIND_TABLE)

#: Wake cycle of a pipeline that nothing but an outside event can restart.
_NEVER = float("inf")

# Sort key restoring ROB (dispatch) order among merged ready buckets.
_dispatch_index = operator.attrgetter("idx")

_heappush = heapq.heappush
_heappop = heapq.heappop


class DetailedCore(CoreModel):
    """Cycle-level out-of-order core (the detailed reference model).

    :meth:`simulate_interval` is one fused loop: each simulated cycle runs
    commit, issue, dispatch and fetch in that order on locals hoisted once
    per call, then the end-of-cycle finish, park, dormant-skip and
    wake-yield checks.  ROB entries and fetch-queue slots carry trace
    positions; every instruction field comes from the bound
    :class:`~repro.trace.columnar.TraceBatch`, and an
    :class:`~repro.common.isa.Instruction` is built only for the branch
    predictor.

    Issue is event-driven: every ROB entry subscribes to its still-unissued
    producers at dispatch, a producer's issue wakes its subscribers with its
    exact ``complete_cycle``, and entries whose operand count hits zero land
    in a ready-at-cycle bucket, so issue only ever touches entries that
    could actually issue now.  A cycle in which no stage can act ends a
    *dormant span* that is skipped in one step (see the end of the loop).

    Under the parked driver a cycle whose dispatch blocked on a barrier or
    lock with an empty ROB parks the core at once when the front end cannot
    change that either: with the fetch queue full, a redirect pending or
    the trace fully fetched it parks until a release, and while an I-side
    miss holds fetch until ``fetch_ready`` it parks with a wake timer for
    that cycle (:attr:`CoreModel.park_wake`), since every cycle before it
    is the same failing retry and touches no shared state.

    ``DetailedCore.event_driven_issue = False`` (test-only, the
    ``park_blocked_cores`` pattern) selects the per-stage reference instead:
    :meth:`simulate_cycle` calls one method per stage, issue rescans the
    unissued window every cycle, and no cycle is skipped.  The two are held
    bit-identical on every golden workload by
    ``tests/detailed/test_event_issue.py``.
    """

    #: Class-level switch for the cycle implementation.  ``True`` (default)
    #: runs the fused event-driven loop; ``False`` restores the per-stage
    #: reference cycle with the unissued-window scan, as a test-only
    #: equivalence reference.
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
        self._register_producers: Dict[int, RobEntry] = {}
        self._unissued_count = 0
        self._serializing_in_flight: Optional[RobEntry] = None
        self._l1d_hit_latency = config.memory.l1d.hit_latency
        self._batch: Optional[TraceBatch] = None
        self._lat: List[int] = []
        # Event-driven issue state: ready entries bucketed by the cycle they
        # become eligible, a min-heap of occupied bucket cycles, and a
        # monotonic dispatch counter whose order is the ROB order (the sort
        # key that keeps event-driven issue bit-identical to the scan).
        self._event_issue: bool = self.event_driven_issue
        self._ready_buckets: Dict[int, List[RobEntry]] = {}
        self._bucket_heap: List[int] = []
        self._dispatch_seq = 0
        # Every reference the fused loop needs that stays fixed after
        # bind_thread, unpacked in one step per simulate_interval call.
        self._loop_refs: tuple = ()
        # Per-stage reference state: (is_lock, sync_object) of a dispatch
        # attempt that blocked this cycle, the completion cycles that re-arm
        # the issue scan, and the scan-needed latch.
        self._sync_block: Optional[tuple] = None
        self._completion_heap: List[int] = []
        self._issue_scan_needed = True

    # -- CoreModel interface -----------------------------------------------------

    def bind_thread(self, cursor: TraceCursor, thread_id: int) -> None:
        """Attach a software thread's instruction stream to this core."""
        frontend = self.frontend
        frontend.bind(cursor)
        self._cursor = cursor  # kept for the has_thread property
        self._thread_id = thread_id
        batch = cursor.trace.batch()
        self._batch = batch
        cfg = self.core_config
        # Per-class execution latencies resolved once, indexed by class code.
        lat = batch.latency_table(cfg.execution_latencies)
        self._lat = lat
        # Issue-to-completion cycles of every class but loads, which add
        # their memory latency at issue; a store only generates its address.
        issue_lat = [max(1, cycles) for cycles in lat]
        issue_lat[_STORE] = 1
        hierarchy = self.hierarchy
        self._loop_refs = (
            self.stats, frontend, cursor, frontend._queue, frontend._capacity,
            self.rob._entries, self.rob.capacity, self.lsq, self.lsq.capacity,
            self.store_buffer._drain_cycles, self.store_buffer.capacity,
            self._ready_buckets, self._bucket_heap, self._register_producers,
            batch.klass, batch.pc, batch.src_regs, batch.dst_reg,
            batch.mem_addr, batch.sync_kind, batch.sync_object,
            batch.instructions, batch.length, frontend._line_runs,
            lat[_LOAD], issue_lat, self._l1d_hit_latency, _UNIT_INDEX,
            [cfg.int_alu_units, cfg.load_store_units, cfg.fp_units],
            cfg.fetch_width, cfg.frontend_pipeline_depth, cfg.dispatch_width,
            cfg.issue_width, cfg.commit_width, cfg.issue_queue_entries,
            self.core_id, hierarchy.access_block, hierarchy.instruction_probe,
            hierarchy.data_probe, self.predictor.access, self.sync,
        )

    def simulate_cycle(self, multi_core_time: int) -> None:
        """Simulate one clock cycle: commit, issue, dispatch, fetch.

        With event-driven issue this is one step of the fused loop (which
        may skip a dormant span beyond the cycle); otherwise it runs the
        per-stage reference cycle.
        """
        if self.finished:
            return
        if self.sim_time != multi_core_time:
            return
        if self._event_issue:
            self.simulate_interval(multi_core_time + 1)
            return
        now = multi_core_time

        self._sync_block = None
        self._commit_stage(now)
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

    def simulate_interval(self, run_until: int) -> None:
        """Run whole cycles until ``sim_time`` reaches ``run_until``.

        The fused loop; see the class docstring.  Like the per-stage
        reference stepped by :meth:`CoreModel.simulate_interval`, it returns
        early when the core finishes, parks on a sync object, or releases
        parked waiters (after finishing that cycle).
        """
        if not self._event_issue:
            super().simulate_interval(run_until)
            return
        now = self.sim_time
        if self.finished or now >= run_until:
            return
        (  # line for line as built in bind_thread
            stats, frontend, cursor, fq, fq_cap,
            rob, rob_cap, lsq, lsq_cap,
            store_buffer, sb_cap,
            buckets, bucket_heap, producers_of,
            klass, pcs, src_col, dst_col,
            addr_col, sync_kind_col, sync_obj_col,
            instructions, n, line_runs,
            load_lat, issue_lat, l1d_hit, unit_of,
            unit_limits,
            fetch_width, fe_depth, dispatch_width,
            issue_width, commit_width, iq_cap,
            core_id, fetch_block, fetch_probe,
            data_probe, predict, sync,
        ) = self._loop_refs
        producer_of = producers_of.get
        fpos = cursor.position
        fetch_limit = frontend._fetch_limit
        fetch_ready = frontend._fetch_ready_cycle
        redirect = frontend._redirect_pending
        unissued = self._unissued_count
        lsq_used = lsq._occupancy
        serializing = self._serializing_in_flight
        dispatch_seq = self._dispatch_seq
        park_blocked = self.park_blocked
        finished = parked = False
        park_wake = None

        while True:
            # -- commit: retire up to commit_width completed instructions --
            committed = 0
            while rob and committed < commit_width:
                entry = rob[0]
                if not entry.issued or entry.complete_cycle > now:
                    break
                kcode = entry.kcode
                if kcode == _STORE:
                    # The store's memory access happens as it drains from
                    # the store buffer; the access updates the caches and
                    # coherence state shared with the other cores.
                    while store_buffer and store_buffer[0] <= now:
                        store_buffer.popleft()
                    if len(store_buffer) >= sb_cap:
                        break
                    result = data_probe(core_id, addr_col[entry.pos], True, now)
                    stats.dcache_accesses += 1
                    if result is None:
                        # Penalty-free hit: the write drains at the hit latency.
                        store_buffer.append(now + l1d_hit)
                    else:
                        if result.l1_miss:
                            stats.l1d_misses += 1
                        if result.tlb_miss:
                            stats.dtlb_misses += 1
                        store_buffer.append(now + result.total_latency)
                    stats.committed_stores += 1
                    lsq_used -= 1
                elif kcode == _LOAD:
                    lsq_used -= 1
                    stats.committed_loads += 1
                rob.popleft()
                if entry is serializing:
                    serializing = None
                dst = dst_col[entry.pos]
                if producer_of(dst) is entry:
                    # The committed value now lives in the architectural
                    # register file; later consumers are trivially ready.
                    del producers_of[dst]
                committed += 1
            if committed:
                stats.instructions += committed

            # -- issue: up to issue_width entries from the due ready buckets --
            # An entry enters a bucket exactly when its last constraint
            # resolves (its dispatch ready cycle or its slowest producer's
            # completion), so the candidates due now are precisely the
            # entries the reference scan would accept.  Sorting them by
            # dispatch index reproduces the scan's ROB order, which fixes
            # the functional-unit grants and, through loads probing the
            # hierarchy at issue, the shared-memory access order.  Entries
            # denied by width or functional units re-enter the next cycle's
            # bucket, mirroring the scan revisiting them.
            if bucket_heap and bucket_heap[0] <= now:
                candidates = buckets.pop(_heappop(bucket_heap))
                while bucket_heap and bucket_heap[0] <= now:
                    # Multiple due buckets only happen after a skipped span;
                    # the idx sort below restores ROB order.
                    candidates.extend(buckets.pop(_heappop(bucket_heap)))
                count = len(candidates)
                if count > 1:
                    candidates.sort(key=_dispatch_index)
                if count > stats.ready_bucket_peak:
                    stats.ready_bucket_peak = count
                free_units = unit_limits[:]
                retry = now + 1
                issued = 0
                for index, entry in enumerate(candidates):
                    if issued >= issue_width:
                        deferred = candidates[index:]
                        bucket = buckets.get(retry)
                        if bucket is None:
                            buckets[retry] = deferred
                            _heappush(bucket_heap, retry)
                        else:
                            bucket.extend(deferred)
                        break
                    kcode = entry.kcode
                    unit = unit_of[kcode]
                    if not free_units[unit]:
                        bucket = buckets.get(retry)
                        if bucket is None:
                            buckets[retry] = [entry]
                            _heappush(bucket_heap, retry)
                        else:
                            bucket.append(entry)
                        continue
                    free_units[unit] -= 1
                    issued += 1
                    if kcode == _LOAD:
                        latency = load_lat
                        result = data_probe(core_id, addr_col[entry.pos], False, now)
                        stats.dcache_accesses += 1
                        if result is None:
                            # Penalty-free hit: completes at the hit latency.
                            if latency < l1d_hit:
                                latency = l1d_hit
                        else:
                            if result.l1_miss:
                                stats.l1d_misses += 1
                            if result.tlb_miss:
                                stats.dtlb_misses += 1
                            if result.long_latency:
                                stats.long_latency_loads += 1
                            if latency < result.total_latency:
                                latency = result.total_latency
                        complete = now + (latency if latency > 1 else 1)
                    else:
                        complete = now + issue_lat[kcode]
                    entry.issued = True
                    entry.complete_cycle = complete
                    unissued -= 1
                    # Wake every subscribed consumer with this entry's exact
                    # completion cycle; the last producer to issue schedules it.
                    waiters = entry.waiters
                    if waiters is not None:
                        stats.issue_wakeups += len(waiters)
                        for waiter in waiters:
                            if waiter.ready_at < complete:
                                waiter.ready_at = complete
                            waiter.wait_count -= 1
                            if not waiter.wait_count:
                                ready = waiter.ready_at
                                bucket = buckets.get(ready)
                                if bucket is None:
                                    buckets[ready] = [waiter]
                                    _heappush(bucket_heap, ready)
                                else:
                                    bucket.append(waiter)
                        entry.waiters = None
                    if entry.mispredicted and redirect:
                        # Fetch resumes on the correct path once the branch
                        # has executed; the front-end refill delay applies to
                        # the newly fetched instructions.
                        redirect = False
                        if fetch_ready <= complete:
                            fetch_ready = complete + 1
            else:
                stats.issue_scans_skipped += 1

            # -- dispatch: up to dispatch_width instructions into the back end --
            sync_block = None
            dispatched = 0
            while dispatched < dispatch_width:
                if len(rob) >= rob_cap or unissued >= iq_cap:
                    stats.dispatch_stall_cycles += 1
                    break
                if serializing is not None or not fq:
                    break
                pos, kcode, dispatch_ready, predicted = fq[0]
                if dispatch_ready > now:
                    break
                if kcode == _SYNC:
                    if rob:
                        break
                    kind = sync_kind_col[pos]
                    if not self._handle_sync_kind(kind, sync_obj_col[pos], now):
                        stats.sync_stall_cycles += 1
                        sync_block = (kind == _SK_LOCK_ACQUIRE, sync_obj_col[pos])
                        break
                    fq.popleft()
                    stats.instructions += 1
                    dispatched += 1
                    continue
                if kcode == _SERIALIZING and rob:
                    # Serializing instructions wait for the window to drain.
                    break
                if kcode == _LOAD or kcode == _STORE:
                    if lsq_used >= lsq_cap:
                        stats.dispatch_stall_cycles += 1
                        break
                    lsq_used += 1
                fq.popleft()
                # Subscribe to unissued producers; fold issued producers'
                # completion cycles straight into the ready cycle (a
                # completion at or before ``now`` cannot raise it above the
                # dispatch ready cycle).
                ready_at = now + 1
                entry = RobEntry(pos, kcode, ready_at, not predicted)
                wait_count = 0
                for register in src_col[pos]:
                    producer = producer_of(register)
                    if producer is None:
                        continue
                    if producer.issued:
                        if producer.complete_cycle > ready_at:
                            ready_at = producer.complete_cycle
                    else:
                        waiters = producer.waiters
                        if waiters is None:
                            producer.waiters = [entry]
                        else:
                            waiters.append(entry)
                        wait_count += 1
                entry.idx = dispatch_seq
                dispatch_seq += 1
                entry.ready_at = ready_at
                if wait_count:
                    entry.wait_count = wait_count
                else:
                    bucket = buckets.get(ready_at)
                    if bucket is None:
                        buckets[ready_at] = [entry]
                        _heappush(bucket_heap, ready_at)
                    else:
                        bucket.append(entry)
                rob.append(entry)
                unissued += 1
                dst = dst_col[pos]
                if dst is not None:
                    producers_of[dst] = entry
                if kcode == _SERIALIZING:
                    serializing = entry
                    stats.serializing_instructions += 1
                dispatched += 1

            # -- fetch: up to fetch_width instructions into the fetch queue --
            if not redirect and now >= fetch_ready:
                fetched = 0
                while fetched < fetch_width and fpos < n and len(fq) < fq_cap:
                    if fpos >= fetch_limit:
                        # One batched probe commits every upcoming fetch hit
                        # and stops at the next I-side miss event.
                        fetch_limit = fetch_block(
                            core_id, pcs, fpos, n, line_runs=line_runs
                        )
                        if fetch_limit == fpos:
                            result = fetch_probe(core_id, pcs[fpos], now)
                            if result is not None:
                                if result.l1_miss:
                                    stats.icache_misses += 1
                                if result.tlb_miss:
                                    stats.itlb_misses += 1
                                # Retry once the line has arrived.
                                fetch_ready = now + result.penalty
                                break
                            fetch_limit = fpos + 1
                    kcode = klass[fpos]
                    if kcode == _BRANCH:
                        stats.branch_lookups += 1
                        if not predict(instructions[fpos]):
                            stats.branch_mispredictions += 1
                            fq.append((fpos, kcode, now + fe_depth, False))
                            fpos += 1
                            # Stop fetching until the branch resolves.
                            redirect = True
                            break
                    fq.append((fpos, kcode, now + fe_depth, True))
                    fpos += 1
                    fetched += 1

            # -- end of cycle --
            now += 1
            if fpos >= n and not fq and not rob:
                finished = True
                break
            if sync_block is not None and park_blocked and not rob:
                if redirect or fpos >= n or len(fq) >= fq_cap:
                    # Dispatch blocked on a sync object and the rest of the
                    # pipeline can make no progress without it: every
                    # further cycle would repeat this one exactly, so park.
                    parked = True
                    break
                if now < fetch_ready:
                    # Fetch waits on a miss until fetch_ready; until then
                    # every cycle is the same failing retry, which touches
                    # no shared state, so park with a timer for the miss.
                    parked = True
                    park_wake = fetch_ready
                    break
            if sync_block is None:
                # Dormant-span skip.  Every stage must be provably frozen
                # until some future cycle — fetch until its miss timer,
                # issue until the earliest ready bucket, commit until the ROB
                # head's completion, dispatch until the fetch queue's head
                # turns dispatchable or a resource frees — and during the
                # span the core touches no shared state, so jumping to the
                # earliest wake candidate is invisible to the other cores.
                # The only per-cycle observable is the dispatch stall charge
                # (ROB/issue-queue/LSQ full, tested in dispatch's order on
                # the frozen state), back-filled arithmetically.
                if redirect or fpos >= n or len(fq) >= fq_cap:
                    wake = _NEVER
                elif now < fetch_ready:
                    wake = fetch_ready
                else:
                    wake = 0  # fetch can progress by itself
                if wake and bucket_heap and bucket_heap[0] < wake:
                    wake = bucket_heap[0]
                if wake and rob:
                    head = rob[0]
                    if head.issued:
                        if head.complete_cycle < now:
                            # Commit stopped on width or a full store buffer
                            # with a completed head: it acts again now.
                            wake = 0
                        elif head.complete_cycle < wake:
                            wake = head.complete_cycle
                charge = False
                if wake:
                    if len(rob) >= rob_cap or unissued >= iq_cap:
                        charge = True
                    elif fq:
                        kcode = fq[0][1]
                        dispatch_ready = fq[0][2]
                        if dispatch_ready > now:
                            if dispatch_ready < wake:
                                wake = dispatch_ready
                        elif serializing is not None:
                            pass  # dispatch waits for the barrier to commit
                        elif kcode == _SYNC or kcode == _SERIALIZING:
                            if not rob:
                                wake = 0
                        elif kcode == _LOAD or kcode == _STORE:
                            if lsq_used >= lsq_cap:
                                charge = True
                            else:
                                wake = 0
                        else:
                            wake = 0
                if wake > now and wake != _NEVER:
                    span = wake - now
                    if charge:
                        stats.dispatch_stall_cycles += span
                    stats.issue_scans_skipped += span
                    now = wake
            if sync is not None and sync.wake_pending:
                # This cycle released parked waiters: yield so the driver
                # re-inserts them before this core runs further ahead.
                break
            if now >= run_until:
                break

        self.sim_time = now
        self._unissued_count = unissued
        lsq._occupancy = lsq_used
        self._serializing_in_flight = serializing
        self._dispatch_seq = dispatch_seq
        frontend._fetch_limit = fetch_limit
        frontend._fetch_ready_cycle = fetch_ready
        frontend._redirect_pending = redirect
        if fpos != cursor.position:
            cursor.advance_to(fpos)
        if finished:
            self._finish(now - 1)
        elif parked:
            # The stall/contention for the blocked cycle was charged live;
            # back-fill starts at the next one.
            is_lock, sync_object = sync_block
            self._park(is_lock, sync_object, now, now, park_wake)

    # -- per-stage reference ------------------------------------------------------

    def _commit_stage(self, now: int) -> None:
        """Retire up to ``commit_width`` completed instructions in order."""
        committed = 0
        stats = self.stats
        batch = self._batch
        while committed < self.core_config.commit_width:
            entry = self.rob.head()
            if (
                entry is None
                or not entry.issued
                or entry.complete_cycle is None
                or entry.complete_cycle > now
            ):
                break
            kcode = entry.kcode
            is_memory = kcode == _LOAD or kcode == _STORE
            if kcode == _STORE:
                if self.store_buffer.is_full(now):
                    break
                result = self.hierarchy.data_probe(
                    self.core_id, batch.mem_addr[entry.pos], True, now
                )
                stats.dcache_accesses += 1
                if result is None:
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
            dst = batch.dst_reg[entry.pos]
            if self._register_producers.get(dst) is entry:
                del self._register_producers[dst]
            stats.instructions += 1
            committed += 1

    def _issue_stage(self, now: int) -> None:
        """Issue up to ``issue_width`` ready instructions to functional units."""
        # Wake up on completions: if nothing completed and nothing was
        # dispatched since the last unsuccessful scan, the ready set cannot
        # have changed, so the scan can be skipped.
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
        kcode = entry.kcode
        latency = self._lat[kcode]

        if kcode == _LOAD:
            result = self.hierarchy.data_probe(
                self.core_id, self._batch.mem_addr[entry.pos], False, now
            )
            self.stats.dcache_accesses += 1
            if result is None:
                latency = max(latency, self._l1d_hit_latency)
            else:
                if result.l1_miss:
                    self.stats.l1d_misses += 1
                if result.tlb_miss:
                    self.stats.dtlb_misses += 1
                if result.long_latency:
                    self.stats.long_latency_loads += 1
                latency = max(latency, result.total_latency)
        elif kcode == _STORE:
            # Address generation only; the write happens at commit.
            latency = 1

        entry.issued = True
        entry.complete_cycle = now + max(1, latency)
        self._unissued_count -= 1
        heapq.heappush(self._completion_heap, entry.complete_cycle)
        if entry.mispredicted:
            self.frontend.redirect_resolved(entry.complete_cycle)

    def _dispatch_stage(self, now: int) -> None:
        """Move up to ``dispatch_width`` instructions into the back end."""
        batch = self._batch
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
            pos, kcode, predicted_correctly = peeked

            if kcode == _SYNC:
                if not self.rob.is_empty:
                    break
                kind = batch.sync_kind[pos]
                sync_object = batch.sync_object[pos]
                if not self._handle_sync_kind(kind, sync_object, now):
                    self.stats.sync_stall_cycles += 1
                    self._sync_block = (kind == _SK_LOCK_ACQUIRE, sync_object)
                    break
                self.frontend.pop_dispatchable()
                self.stats.instructions += 1
                dispatched += 1
                continue

            if kcode == _SERIALIZING and not self.rob.is_empty:
                break
            is_memory = kcode == _LOAD or kcode == _STORE
            if is_memory and self.lsq.is_full:
                self.stats.dispatch_stall_cycles += 1
                break

            self.frontend.pop_dispatchable()
            entry = self._allocate_entry(pos, kcode, is_memory, now)
            entry.mispredicted = not predicted_correctly
            if kcode == _SERIALIZING:
                self._serializing_in_flight = entry
                self.stats.serializing_instructions += 1
            dispatched += 1
        self._issue_scan_needed = self._issue_scan_needed or dispatched > 0

    def _allocate_entry(
        self, pos: int, kcode: int, is_memory: bool, now: int
    ) -> RobEntry:
        """Create a ROB entry, snapshot its producers, allocate resources."""
        batch = self._batch
        register_producers = self._register_producers
        entry = RobEntry(pos, kcode, now + 1)
        producers = []
        for register in batch.src_regs[pos]:
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
        dst = batch.dst_reg[pos]
        if dst is not None:
            register_producers[dst] = entry
        return entry

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
