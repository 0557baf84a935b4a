"""Parked-barrier event driver: equivalence, wake order and observability.

The parked driver is a *performance* refactor of the multicore event loop:
blocked cores leave the heap and wait on the sync object itself, and the
release re-inserts them with their stall cycles back-filled arithmetically.
The per-cycle spin reference stays available behind
``MulticoreSimulator.park_blocked_cores = False`` (test-only), and these
tests hold the two drivers to bit-identical simulated statistics on every
multithreaded golden workload, pin the deterministic wake order, and check
the driver's observability counters end to end (stats → RunResult).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.common.stats import CoreStats
from repro.multicore.simulator import MulticoreSimulator
from repro.multicore.sync import SynchronizationManager
from repro.trace.workloads import manycore_workload

#: The multithreaded members of the golden corpus (same budgets), plus the
#: 4-thread sync-heavy shapes: every (model, sync pattern) pair the parked
#: driver must reproduce bit for bit.
EQUIVALENCE_COMBOS = [
    ("interval", "streamcluster", 4, 12000, 1000),
    ("interval", "fluidanimate", 2, 8000, 1000),
    ("oneipc", "vips", 2, 8000, 1000),
    ("oneipc", "fluidanimate", 4, 12000, 1000),
    ("oneipc", "dedup", 2, 8000, 1000),
    ("detailed", "fluidanimate", 2, 6000, 1000),
    ("detailed", "streamcluster", 2, 6000, 1000),
]


def _run_multithreaded(simulator, benchmark, threads, total, warmup, parked):
    """One multithreaded run under the requested driver mode."""
    previous = MulticoreSimulator.park_blocked_cores
    MulticoreSimulator.park_blocked_cores = parked
    try:
        return (
            Session()
            .simulator(simulator)
            .multithreaded(benchmark, threads=threads, total_instructions=total, seed=0)
            .warmup(warmup)
            .max_cycles(50_000_000)
            .run()
        )
    finally:
        MulticoreSimulator.park_blocked_cores = previous


@pytest.mark.parametrize(
    # NB: not named "benchmark" — that collides with pytest-benchmark's fixture.
    "simulator,bench,threads,total,warmup",
    EQUIVALENCE_COMBOS,
    ids=[f"{s}-{b}-mt{t}" for s, b, t, _, _ in EQUIVALENCE_COMBOS],
)
def test_parked_driver_matches_spin_reference(simulator, bench, threads, total, warmup):
    """Spin and parked drivers produce bit-identical simulated statistics."""
    spin = _run_multithreaded(simulator, bench, threads, total, warmup, False)
    parked = _run_multithreaded(simulator, bench, threads, total, warmup, True)
    assert (
        parked.stats.deterministic_dict() == spin.stats.deterministic_dict()
    ), f"parked driver diverged from spin reference on {simulator}/{bench}"
    # The spin driver never parks; the parked driver must do strictly fewer
    # heap pops on these sync-heavy workloads (that is the whole point).
    assert spin.stats.driver_stats["cores_parked"] == 0
    assert parked.stats.driver_stats["cores_parked"] > 0
    assert (
        parked.stats.driver_stats["events_popped"]
        < spin.stats.driver_stats["events_popped"]
    )


# -- deterministic wake order -----------------------------------------------------


def _fake_core(core_id, park_cycle):
    """Minimal stand-in exposing the attributes park()/_wake_parked() touch."""
    return SimpleNamespace(
        core_id=core_id,
        park_cycle=park_cycle,
        park_retry_cycle=park_cycle,
        blocked_on=(False, 0),
        sim_time=park_cycle,
        stats=CoreStats(core_id=core_id),
    )


def _park_shuffled_and_release(num_threads, releaser_id, release_cycle, rng):
    """Park all non-releaser threads in random order, then release barrier 0."""
    import heapq

    sync = SynchronizationManager(num_threads)
    waiter_ids = [tid for tid in range(num_threads) if tid != releaser_id]
    rng.shuffle(waiter_ids)
    for tid in waiter_ids:
        sync.barrier_arrive(tid, 0)
        core = _fake_core(tid, park_cycle=10 + tid)
        core.blocked_on = (False, 0)
        sync.park(core, is_lock=False, sync_object=0)
    sync.barrier_arrive(releaser_id, 0, cycle=release_cycle, core_id=releaser_id)
    assert sync.parked_count == 0

    heap = []
    for wake in sync.drain_wakes():
        MulticoreSimulator._wake_parked(wake, sync, heapq.heappush, heap)
    return sync, [heapq.heappop(heap) for _ in range(len(heap))]


def test_wake_order_is_core_id_order_regardless_of_park_order():
    """N cores released in one cycle re-enter the heap in core-id order."""
    rng = random.Random(1234)
    for trial in range(20):
        num_threads = rng.randrange(3, 65)
        releaser = rng.randrange(num_threads)
        release_cycle = rng.randrange(100, 10_000)
        sync, pops = _park_shuffled_and_release(
            num_threads, releaser, release_cycle, rng
        )
        resumed_ids = [core_id for _, core_id, _ in pops]
        # Heap order is (time, core_id): ids above the releaser resume at the
        # release cycle, ids below at release + 1 — each group id-sorted.
        expected = sorted(i for i in range(num_threads) if i > releaser) + sorted(
            i for i in range(num_threads) if i < releaser
        )
        assert resumed_ids == expected, f"trial {trial}: wake order diverged"
        for resume, core_id, core in pops:
            assert resume == (
                release_cycle if core_id > releaser else release_cycle + 1
            )
            assert core.blocked_on is None
            assert core.sim_time == resume
            # Back-fill: every skipped cycle in [park_cycle, resume) charged.
            assert core.stats.sync_stall_cycles == resume - (10 + core_id)


def test_park_on_released_barrier_is_rejected():
    """Parking on an already-released barrier is a driver bug, caught loudly."""
    sync = SynchronizationManager(1)
    sync.barrier_arrive(0, 0)
    assert sync.barrier_released(0)
    with pytest.raises(RuntimeError, match="already-released barrier"):
        sync.park(_fake_core(0, park_cycle=5), is_lock=False, sync_object=0)


def test_lock_wake_backfills_contention_retries():
    """Lock waiters woken by a release are charged their skipped retries."""
    import heapq

    sync = SynchronizationManager(2)
    assert sync.lock_try_acquire(0, lock_id=7)
    assert not sync.lock_try_acquire(1, lock_id=7)  # charged at the block site
    core = _fake_core(1, park_cycle=20)
    core.park_retry_cycle = 21  # the failing attempt at 20 was already counted
    core.blocked_on = (True, 7)
    sync.park(core, is_lock=True, sync_object=7)
    contentions_before = sync.stats.lock_contentions

    sync.lock_release(0, lock_id=7, cycle=100, core_id=0)
    heap = []
    for wake in sync.drain_wakes():
        MulticoreSimulator._wake_parked(wake, sync, heapq.heappush, heap)
    (resume, core_id, woken) = heap[0]
    assert (resume, core_id) == (100, 1)  # waiter id 1 > releaser id 0
    assert woken.stats.sync_stall_cycles == 100 - 20
    assert woken.stats.lock_contended == 100 - 21
    assert sync.stats.lock_contentions == contentions_before + (100 - 21)


# -- observability ---------------------------------------------------------------


def test_driver_counters_surface_in_run_result_metrics():
    """events_popped/cores_parked/park_cycles_skipped reach RunResult metrics."""
    result = _run_multithreaded("interval", "fluidanimate", 4, 8000, 0, True)
    driver = result.stats.driver_stats
    assert driver["events_popped"] > 0
    assert driver["cores_parked"] > 0
    assert driver["park_cycles_skipped"] > 0
    metrics = result.as_dict()["metrics"]
    for key in ("events_popped", "cores_parked", "park_cycles_skipped"):
        assert metrics[key] == driver[key]


def test_driver_counters_survive_deterministic_dict_exclusion():
    """Driver counters round-trip as_dict/from_dict but stay out of the
    deterministic comparison (spin and parked runs differ only there)."""
    from repro.common.stats import SimulationStats

    result = _run_multithreaded("interval", "fluidanimate", 2, 4000, 0, True)
    assert "driver" not in result.stats.deterministic_dict()
    restored = SimulationStats.from_dict(result.stats.as_dict())
    assert restored.driver_stats == result.stats.driver_stats


# -- many-core scale-out ---------------------------------------------------------


def test_manycore_64_threads_runs_and_parks():
    """A 64-core sync-heavy run completes with heavy parking activity."""
    workload = manycore_workload("fluidanimate", 64, instructions_per_thread=100)
    result = (
        Session()
        .cores(64)
        .simulator("interval")
        .workload(workload)
        .max_cycles(50_000_000)
        .run()
    )
    assert result.stats.total_instructions > 0
    driver = result.stats.driver_stats
    assert driver["cores_parked"] >= 63  # at least one full barrier of waiters
    assert driver["park_cycles_skipped"] > 0


# -- deadlock diagnostics --------------------------------------------------------


def _deadlock_workload():
    """Two threads, one genuine deadlock: thread 1 exits holding lock 3.

    Thread 1 acquires the lock immediately and finishes without releasing
    it; thread 0 computes long enough to guarantee the acquisition ordering,
    then blocks on the held lock forever.  (A barrier cannot deadlock here:
    finished threads release barriers by design.)
    """
    from repro.common.isa import Instruction, InstructionClass, SyncKind
    from repro.trace.stream import ThreadTrace, Workload

    def alu(seq, thread_id):
        return Instruction(
            seq=seq, pc=0x1000 + 4 * (seq % 64), klass=InstructionClass.INT_ALU,
            dst_reg=1, thread_id=thread_id,
        )

    def acquire(seq, thread_id):
        return Instruction(
            seq=seq, pc=0x9000, klass=InstructionClass.SYNC,
            sync=SyncKind.LOCK_ACQUIRE, sync_object=3, thread_id=thread_id,
        )

    blocked = [alu(seq, 0) for seq in range(300)] + [acquire(300, 0), alu(301, 0)]
    holder = [acquire(0, 1)] + [alu(seq, 1) for seq in range(1, 40)]
    return Workload(
        name="deadlock",
        traces=[ThreadTrace(blocked, thread_id=0), ThreadTrace(holder, thread_id=1)],
        kind="multithreaded",
    )


def test_deadlock_error_names_each_parked_core_and_sync_object():
    """The driver's deadlock error pins who is stuck, where, and on what.

    The exact format is load-bearing for debuggability (users paste it into
    issues), so this match is deliberately strict: core id, park cycle and
    the lock/barrier object must all appear.
    """
    with pytest.raises(
        RuntimeError,
        match=(
            r"synchronization deadlock in 'deadlock': 1 core\(s\) still "
            r"parked after all runnable cores finished: "
            r"core 0 parked at cycle \d+ on lock 3$"
        ),
    ):
        (
            Session()
            .cores(2)
            .simulator("interval")
            .workload(_deadlock_workload())
            .max_cycles(1_000_000)
            .run()
        )
