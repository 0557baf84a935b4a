"""Parked-barrier event driver: equivalence, wake order and observability.

The parked driver is a *performance* refactor of the multicore event loop:
blocked cores leave the heap and wait on the sync object itself, and the
release re-inserts them with their stall cycles back-filled arithmetically.
The per-cycle spin reference stays available behind
``MulticoreSimulator.park_blocked_cores = False`` (test-only), and these
tests hold the two drivers to bit-identical simulated statistics on every
multithreaded golden workload, pin the deterministic wake order, and check
the driver's observability counters end to end (stats → RunResult).  The
detailed model's timed parks (blocked on a sync object with an empty ROB
while fetch waits on a miss, resumed by a wake timer unless a release comes
first) get their own equivalence cases, releases placed on and just before
the timer's cycle, and a heap-pop count guard.
"""

from __future__ import annotations

import importlib.util
import os
import random
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.common.isa import Instruction, InstructionClass, SyncKind
from repro.common.stats import CoreStats
from repro.multicore.simulator import MulticoreSimulator
from repro.multicore.sync import SynchronizationManager
from repro.trace.stream import ThreadTrace, Workload
from repro.trace.workloads import manycore_workload


def _throughput_gate():
    """The CI throughput gate script, loaded for its fault plans."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "throughput_gate.py"
    )
    spec = importlib.util.spec_from_file_location("throughput_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def _run_multithreaded(
    simulator, benchmark, threads, total, warmup, parked, faults=None
):
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
            .faults(faults)
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


# -- timed parks (detailed) --------------------------------------------------------

#: Detailed runs whose parked driver fires at least one wake timer, at
#: budgets small enough for the spin reference: the two barrier-heavy
#: benchmarks on 64 threads, lock-heavy vips, and the throughput gate's
#: faulty-sync plan (degraded links, corrupted lines) on fluidanimate.
TIMED_PARK_COMBOS = [
    ("fluidanimate", 64, 1500, 500, None),
    ("streamcluster", 64, 1000, 500, None),
    ("vips", 8, 8000, 2000, None),
    ("fluidanimate", 8, 8000, 0, "FAULTY_SYNC"),
]


@pytest.mark.parametrize(
    "bench,threads,total,warmup,plan",
    TIMED_PARK_COMBOS,
    ids=[
        f"{b}-mt{t}" + ("-faulty-sync" if p else "")
        for b, t, _, _, p in TIMED_PARK_COMBOS
    ],
)
def test_detailed_timed_parks_match_spin_reference(bench, threads, total, warmup, plan):
    """Timed parks leave every simulated statistic as the spin driver's."""
    faults = getattr(_throughput_gate(), plan) if plan else None
    spin = _run_multithreaded("detailed", bench, threads, total, warmup, False, faults)
    parked = _run_multithreaded("detailed", bench, threads, total, warmup, True, faults)
    assert parked.stats.deterministic_dict() == spin.stats.deterministic_dict()
    assert spin.stats.driver_stats["park_timer_wakes"] == 0
    assert parked.stats.driver_stats["park_timer_wakes"] > 0


def _barrier(seq, thread_id):
    return Instruction(
        seq=seq, pc=0x9000, klass=InstructionClass.SYNC,
        sync=SyncKind.BARRIER, sync_object=0, thread_id=thread_id,
    )


def _chained_alu(seq, thread_id, pc):
    return Instruction(
        seq=seq, pc=pc, klass=InstructionClass.INT_ALU,
        src_regs=(1,), dst_reg=1, thread_id=thread_id,
    )


def _load(seq, thread_id, pc, address):
    return Instruction(
        seq=seq, pc=pc, klass=InstructionClass.LOAD,
        src_regs=(2,), dst_reg=3, mem_addr=address, thread_id=thread_id,
    )


def _timed_barrier_workload(
    releaser_work, waiter_thread, releaser_loads=0, bystander=0
):
    """Threads 0 and 1 meet at one barrier; the waiter parks with a timer.

    The waiter fetches the barrier, then misses in the I-cache on each of
    the next lines, so its barrier attempt blocks with an empty ROB while
    fetch waits on a miss.  The releaser runs ``releaser_work`` dependent
    ALU ops from one I-cache line (one cycle each once the line is in), so
    its work sets the release cycle cycle by cycle, then ``releaser_loads``
    loads to distinct pages (DRAM traffic the waiter's misses queue
    behind) before it arrives.  A ``bystander`` thread 2 of that many
    instructions, with a load every 50, keeps the event heap occupied
    without taking part in the barrier.
    """
    releaser_thread = 1 - waiter_thread
    waiter = [_barrier(0, waiter_thread)] + [
        _chained_alu(1 + line, waiter_thread, 0x40000 + 64 * line)
        for line in range(4)
    ]
    releaser = [
        _chained_alu(seq, releaser_thread, 0x1000 + 4 * (seq % 16))
        for seq in range(releaser_work)
    ]
    releaser += [
        _load(releaser_work + k, releaser_thread, 0x1000 + 4 * k, 0x800000 + 4096 * k)
        for k in range(releaser_loads)
    ]
    releaser += [
        _barrier(len(releaser), releaser_thread),
        _chained_alu(len(releaser) + 1, releaser_thread, 0x1000),
    ]
    traces = [None, None]
    traces[waiter_thread] = ThreadTrace(waiter, thread_id=waiter_thread)
    traces[releaser_thread] = ThreadTrace(releaser, thread_id=releaser_thread)
    if bystander:
        traces.append(
            ThreadTrace(
                [
                    _load(seq, 2, 0x2000 + 4 * (seq % 16), 0x900000 + 4096 * seq)
                    if seq % 50 == 0
                    else _chained_alu(seq, 2, 0x2000 + 4 * (seq % 16))
                    for seq in range(bystander)
                ],
                thread_id=2,
            )
        )
    return Workload(
        name="timed-barrier", traces=traces, kind="multithreaded", num_barriers=1
    )


def _run_timed_barrier(releaser_work, waiter_thread, parked, monkeypatch, **shape):
    """Run the barrier workload; returns (result, first wake timer, release
    cycle)."""
    seen = {}
    park = SynchronizationManager.park
    arrive = SynchronizationManager.barrier_arrive

    def recording_park(self, core, is_lock, sync_object):
        seen.setdefault("timer", core.park_wake)
        park(self, core, is_lock, sync_object)

    def recording_arrive(self, thread_id, barrier_id, cycle=0, core_id=-1):
        if thread_id != waiter_thread:
            seen["release"] = cycle
        arrive(self, thread_id, barrier_id, cycle, core_id)

    with monkeypatch.context() as patch:
        patch.setattr(SynchronizationManager, "park", recording_park)
        patch.setattr(SynchronizationManager, "barrier_arrive", recording_arrive)
        patch.setattr(MulticoreSimulator, "park_blocked_cores", parked)
        workload = _timed_barrier_workload(releaser_work, waiter_thread, **shape)
        result = (
            Session()
            .cores(workload.num_threads)
            .simulator("detailed")
            .workload(workload)
            .max_cycles(100_000)
            .run()
        )
    return result, seen.get("timer"), seen.get("release")


@pytest.mark.parametrize("offset", [0, -1], ids=["at-timer", "cycle-before"])
@pytest.mark.parametrize(
    "waiter_thread", [1, 0], ids=["waiter-above-releaser", "waiter-below-releaser"]
)
def test_release_near_the_wake_timer_matches_spin(waiter_thread, offset, monkeypatch):
    """A release at the timer's cycle or the one before it resumes the
    waiter where the spin reference does, whichever core id is higher.

    Only a release at the timer's own cycle by a higher-numbered core comes
    after the timer in (cycle, core id) order, so only there does the timer
    fire; in the other three cases the release wakes the waiter first and
    the timer goes stale.
    """
    work = 200
    for _ in range(6):
        parked, timer, release = _run_timed_barrier(
            work, waiter_thread, True, monkeypatch
        )
        assert timer is not None, "the waiter never parked with a wake timer"
        if release - timer == offset:
            break
        work += offset - (release - timer)
    assert release - timer == offset
    spin, _, _ = _run_timed_barrier(work, waiter_thread, False, monkeypatch)
    assert parked.stats.deterministic_dict() == spin.stats.deterministic_dict()
    timer_fires = offset == 0 and waiter_thread < 1 - waiter_thread
    assert parked.stats.driver_stats["park_timer_wakes"] == int(timer_fires)


def test_no_core_runs_past_a_wake_timer(monkeypatch):
    """With a bystander core in the heap, the releaser's run still stops
    at the waiter's timer: its loads after that cycle must queue behind
    the waiter's fetch misses on the memory bus, as under the spin driver."""
    shape = dict(releaser_loads=8, bystander=1000)
    parked, timer, release = _run_timed_barrier(120, 0, True, monkeypatch, **shape)
    assert timer is not None and release > timer
    spin, _, _ = _run_timed_barrier(120, 0, False, monkeypatch, **shape)
    assert parked.stats.deterministic_dict() == spin.stats.deterministic_dict()
    assert parked.stats.driver_stats["park_timer_wakes"] > 0


@pytest.fixture(scope="module")
def fluidanimate_64():
    """fluidanimate on 64 threads (16k instructions) under each model."""
    return {
        model: _run_multithreaded(model, "fluidanimate", 64, 16_000, 8_000, True)
        for model in ("interval", "oneipc", "detailed")
    }


def test_park_timer_wakes_fire_only_for_detailed(fluidanimate_64):
    """Detailed parks on fetch misses; interval and one-IPC park at once."""
    for model, result in fluidanimate_64.items():
        wakes = result.stats.driver_stats["park_timer_wakes"]
        assert result.as_dict()["metrics"]["park_timer_wakes"] == wakes
        assert "park_timer_wakes" not in str(result.stats.deterministic_dict())
        if model == "detailed":
            assert wakes > 0
        else:
            assert wakes == 0, model


def test_detailed_heap_pops_stay_near_oneipc(fluidanimate_64):
    """A sync-blocked detailed core does not crawl the heap while its fetch
    miss is outstanding: its heap pops stay within 2x one-IPC's (a core
    stepping one or two cycles per pop instead makes about 5x)."""
    pops = {
        model: result.stats.driver_stats["events_popped"]
        for model, result in fluidanimate_64.items()
    }
    assert pops["detailed"] <= 2 * pops["oneipc"], pops


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
    """The driver's counters reach RunResult metrics."""
    result = _run_multithreaded("interval", "fluidanimate", 4, 8000, 0, True)
    driver = result.stats.driver_stats
    assert driver["events_popped"] > 0
    assert driver["cores_parked"] > 0
    assert driver["park_cycles_skipped"] > 0
    metrics = result.as_dict()["metrics"]
    for key in (
        "events_popped", "cores_parked", "park_cycles_skipped", "park_timer_wakes"
    ):
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
