"""Inter-thread synchronization modeling.

The multi-threaded (PARSEC-like) workloads contain barrier and lock
pseudo-instructions (see :mod:`repro.trace.multithreaded`).  All timing
simulators interpret them through this module so that thread interleavings
are governed by the simulated timing, as in the paper's functional-first
framework: a core reaching a barrier stalls until every participating thread
has arrived; a core trying to enter a held critical section stalls until the
lock is released.

The same :class:`SynchronizationManager` instance is shared by all cores of a
simulation.  It tracks the functional state (who holds which lock, who
arrived at which barrier) **and** the parked-core wait lists of the event
driver: a core blocked on an unreleased barrier or a held lock leaves the
event heap entirely and is recorded on the owning sync object's wait list
(:meth:`SynchronizationManager.park`).  When a release happens, every waiter
is moved onto :attr:`SynchronizationManager.wake_pending` stamped with the
release cycle and the releasing core's id; the driver drains that list,
back-fills each waiter's stall cycles in one arithmetic step and re-inserts
it into the heap (see :mod:`repro.multicore.simulator` for the resume-time
rule that keeps this bit-identical to the per-cycle spin reference).  A core
parked with a wake timer leaves its wait list through
:meth:`SynchronizationManager.unpark` when the timer fires first.  The
*timing* consequence (stall cycles) is still accounted on the core models'
statistics — the manager only carries the bookkeeping needed to back-fill
them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

__all__ = ["SyncStats", "ParkedCore", "WakeRecord", "SynchronizationManager"]


@dataclass
class SyncStats:
    """Counters of synchronization activity across the whole simulation.

    The last four counters instrument the event driver itself: ``events_popped``
    (heap pops over the whole run, filled in by the driver),
    ``cores_parked`` (park operations — cores that left the heap blocked on a
    sync object), ``park_cycles_skipped`` (stall cycles back-filled
    arithmetically at wake instead of being spun through the heap) and
    ``park_timer_wakes`` (parked cores resumed by their wake timer rather
    than by a release).  They make the parked-driver win measurable: the
    spin reference pays roughly one heap pop per stall cycle per waiting
    core, the parked driver pays none.
    """

    barrier_arrivals: int = 0
    barrier_releases: int = 0
    lock_acquisitions: int = 0
    lock_contentions: int = 0
    lock_releases: int = 0
    events_popped: int = 0
    cores_parked: int = 0
    park_cycles_skipped: int = 0
    park_timer_wakes: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.barrier_arrivals = 0
        self.barrier_releases = 0
        self.lock_acquisitions = 0
        self.lock_contentions = 0
        self.lock_releases = 0
        self.events_popped = 0
        self.cores_parked = 0
        self.park_cycles_skipped = 0
        self.park_timer_wakes = 0


@dataclass
class ParkedCore:
    """One core waiting on a sync object, off the event heap.

    ``park_cycle`` is the first cycle whose stall was *not* yet charged to the
    core's statistics; ``retry_cycle`` is the first cycle whose failing lock
    attempt was not yet counted as a contention (always ``park_cycle`` or
    ``park_cycle + 1``, depending on whether the blocking attempt itself was
    charged at the park site).  Both are back-filled at wake.
    """

    core: object
    park_cycle: int
    retry_cycle: int


@dataclass
class WakeRecord:
    """A parked core released at ``release_cycle`` by core ``releaser_id``.

    The driver turns each record into a heap re-insertion at the resume
    cycle derived from the (release cycle, releaser id, waiter id) triple,
    with the waiter's skipped stall cycles back-filled arithmetically.
    """

    core: object
    park_cycle: int
    retry_cycle: int
    release_cycle: int
    releaser_id: int
    is_lock: bool


class SynchronizationManager:
    """Tracks barrier arrivals, lock ownership and parked-core wait lists."""

    def __init__(self, num_threads: int) -> None:
        if num_threads <= 0:
            raise ValueError("need at least one thread")
        self.num_threads = num_threads
        self.stats = SyncStats()
        self._barrier_arrivals: Dict[int, Set[int]] = {}
        self._released_barriers: Set[int] = set()
        self._lock_holders: Dict[int, Optional[int]] = {}
        self._finished_threads: Set[int] = set()
        # Parked-driver state: per-object wait lists plus the drained-by-the-
        # driver wake queue.  Both stay empty under the spin reference driver
        # (which never parks), so there is a single code path for both modes.
        self._barrier_waiters: Dict[int, List[ParkedCore]] = {}
        self._lock_waiters: Dict[int, List[ParkedCore]] = {}
        self.wake_pending: List[WakeRecord] = []
        self.parked_count = 0

    # -- barriers -----------------------------------------------------------------

    def barrier_arrive(
        self, thread_id: int, barrier_id: int, cycle: int = 0, core_id: int = -1
    ) -> None:
        """Record that ``thread_id`` reached barrier ``barrier_id``.

        ``cycle``/``core_id`` stamp a release this arrival may trigger (the
        dispatch cycle of the arriving core); functional warm-up omits them —
        no core can be parked before timed simulation starts.
        """
        self._check_thread(thread_id)
        arrivals = self._barrier_arrivals.setdefault(barrier_id, set())
        if thread_id not in arrivals:
            arrivals.add(thread_id)
            self.stats.barrier_arrivals += 1
        self._maybe_release(barrier_id, cycle, core_id)

    def barrier_released(self, barrier_id: int) -> bool:
        """``True`` once every participating thread has arrived at the barrier.

        Threads that already finished their trace no longer participate (this
        can only happen after the final barrier of a well-formed workload,
        but the manager stays robust to imbalanced traces).  A release this
        query triggers can never have parked waiters — a parked waiter
        implies an arrival, and every arrival/finish already ran the release
        check — so no release stamp is needed here.
        """
        self._maybe_release(barrier_id, 0, -1)
        return barrier_id in self._released_barriers

    def _maybe_release(self, barrier_id: int, cycle: int, core_id: int) -> None:
        """Release the barrier when arrivals plus finished threads cover all."""
        if barrier_id in self._released_barriers:
            return
        arrivals = self._barrier_arrivals.get(barrier_id, set())
        if len(arrivals | self._finished_threads) >= self.num_threads:
            self._released_barriers.add(barrier_id)
            self.stats.barrier_releases += 1
            waiters = self._barrier_waiters.pop(barrier_id, None)
            if waiters:
                self._wake(waiters, cycle, core_id, is_lock=False)

    # -- locks --------------------------------------------------------------------

    def lock_try_acquire(self, thread_id: int, lock_id: int) -> bool:
        """Attempt to acquire ``lock_id``; returns ``True`` on success.

        Re-acquiring a lock the thread already holds succeeds (the synthetic
        traces never nest the same lock, but robustness is cheap).
        """
        self._check_thread(thread_id)
        holder = self._lock_holders.get(lock_id)
        if holder is None or holder == thread_id:
            self._lock_holders[lock_id] = thread_id
            self.stats.lock_acquisitions += 1
            return True
        self.stats.lock_contentions += 1
        return False

    def lock_release(
        self, thread_id: int, lock_id: int, cycle: int = 0, core_id: int = -1
    ) -> None:
        """Release ``lock_id``.  Releasing a lock held by another thread is an error.

        ``cycle``/``core_id`` stamp the release for parked waiters: all of
        them wake (the heap's (time, core id) order picks the next holder,
        matching the spin reference's thundering-herd retry; losers re-fail
        and park again).
        """
        holder = self._lock_holders.get(lock_id)
        if holder is not None and holder != thread_id:
            raise ValueError(
                f"thread {thread_id} released lock {lock_id} held by thread {holder}"
            )
        self._lock_holders[lock_id] = None
        self.stats.lock_releases += 1
        waiters = self._lock_waiters.pop(lock_id, None)
        if waiters:
            self._wake(waiters, cycle, core_id, is_lock=True)

    def lock_holder(self, lock_id: int) -> Optional[int]:
        """Thread currently holding ``lock_id``, or ``None``."""
        return self._lock_holders.get(lock_id)

    # -- parked cores -------------------------------------------------------------

    def park(self, core, is_lock: bool, sync_object: int) -> None:
        """Take a blocked core off the event heap onto the object's wait list.

        The driver calls this right after a core's event step reports
        ``blocked_on``; ``core.park_cycle``/``core.park_retry_cycle`` carry
        the back-fill bookkeeping recorded at the block site.
        """
        if not is_lock and sync_object in self._released_barriers:
            raise RuntimeError(
                f"core {core.core_id} parked on already-released barrier "
                f"{sync_object}"
            )
        waiters = self._lock_waiters if is_lock else self._barrier_waiters
        waiters.setdefault(sync_object, []).append(
            ParkedCore(core, core.park_cycle, core.park_retry_cycle)
        )
        self.parked_count += 1
        self.stats.cores_parked += 1

    def unpark(self, core, cycle: int) -> WakeRecord:
        """Take a timed-parked core off its wait list as its timer fires.

        Returns the core's wake record as if a core ranked before every
        other (id ``-1``) had released the object at ``cycle``, so the
        driver resumes the core at ``cycle`` itself and back-fills its
        skipped stalls and lock retries exactly as for a release.
        """
        is_lock, sync_object = core.blocked_on
        by_object = self._lock_waiters if is_lock else self._barrier_waiters
        waiters = by_object.get(sync_object, [])
        for index, parked in enumerate(waiters):
            if parked.core is core:
                break
        else:
            raise RuntimeError(
                f"core {core.core_id} is not parked on "
                f"{'lock' if is_lock else 'barrier'} {sync_object}"
            )
        del waiters[index]
        if not waiters:
            del by_object[sync_object]
        self.parked_count -= 1
        self.stats.park_timer_wakes += 1
        return WakeRecord(
            core=core,
            park_cycle=parked.park_cycle,
            retry_cycle=parked.retry_cycle,
            release_cycle=cycle,
            releaser_id=-1,
            is_lock=is_lock,
        )

    def _wake(
        self, waiters: List[ParkedCore], cycle: int, core_id: int, is_lock: bool
    ) -> None:
        """Queue wake records for the driver to drain after the current step."""
        for parked in waiters:
            self.wake_pending.append(
                WakeRecord(
                    core=parked.core,
                    park_cycle=parked.park_cycle,
                    retry_cycle=parked.retry_cycle,
                    release_cycle=cycle,
                    releaser_id=core_id,
                    is_lock=is_lock,
                )
            )
        self.parked_count -= len(waiters)

    def drain_wakes(self) -> List[WakeRecord]:
        """Return and clear the pending wake records."""
        wakes = self.wake_pending
        self.wake_pending = []
        return wakes

    def parked_cores(self) -> List[object]:
        """All cores currently parked (for deadlock diagnostics)."""
        cores: List[object] = []
        for waiters in self._barrier_waiters.values():
            cores.extend(parked.core for parked in waiters)
        for waiters in self._lock_waiters.values():
            cores.extend(parked.core for parked in waiters)
        return cores

    # -- thread lifecycle -----------------------------------------------------------

    def thread_finished(
        self, thread_id: int, cycle: int = 0, core_id: int = -1
    ) -> None:
        """Mark a thread as finished so it no longer blocks barriers.

        ``cycle`` is the dispatch cycle of the finishing thread's final
        instruction — the moment any barriers it unblocks are released.
        """
        self._check_thread(thread_id)
        self._finished_threads.add(thread_id)
        for barrier_id in list(self._barrier_arrivals):
            self._maybe_release(barrier_id, cycle, core_id)

    def _check_thread(self, thread_id: int) -> None:
        """Validate a thread identifier."""
        if not 0 <= thread_id < self.num_threads:
            raise ValueError(
                f"thread_id {thread_id} out of range for {self.num_threads} threads"
            )
