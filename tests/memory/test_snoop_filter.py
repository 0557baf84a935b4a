"""The sharer-filtered snoop must match a broadcast snoop exactly.

:class:`repro.memory.coherence.CoherenceController` probes only the L1ds
whose bit is set in its sharer map.  The map is a superset of the true
sharers, and probing is side-effect free, so the filtered controller must
make exactly the state transitions, epoch bumps and statistics of a
controller that probes every other L1d.  ``BroadcastController`` below is
that reference: the snoop loop the filter replaced, kept only here.

The differential test drives two identical hierarchies, one with the real
controller and one with the reference, through seeded random load/store
streams over a small shared address pool, interleaved with line drops, line
corruption and whole-cache flushes (the events that leave stale bits).
Core counts 64 and 70 put sharers on both sides of bit 63.
"""

from __future__ import annotations

import random
from dataclasses import astuple, fields, replace
from typing import List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, default_machine_config
from repro.memory.cache import CoherenceState, SetAssociativeCache
from repro.memory.coherence import CoherenceController, CoherenceStats, SnoopResult
from repro.memory.hierarchy import MemoryHierarchy


class BroadcastController(CoherenceController):
    """Reference controller: every request probes every other L1d in order."""

    def read_request(self, core_id: int, line_address: int) -> SnoopResult:
        self.stats.read_requests += 1
        epochs = self.epochs
        result = SnoopResult()
        for remote_id, cache in enumerate(self._caches):
            if remote_id == core_id:
                continue
            state = cache.probe(line_address)
            if state is None or not state.is_valid:
                continue
            result.had_remote_sharers = True
            if state.can_supply and not result.supplied_by_cache:
                result.supplied_by_cache = True
                result.supplier_core = remote_id
                self.stats.cache_to_cache_transfers += 1
                epochs[remote_id] += 1
                if self.protocol == "MOESI":
                    if state == CoherenceState.MODIFIED:
                        cache.set_state(line_address, CoherenceState.OWNED)
                    elif state == CoherenceState.EXCLUSIVE:
                        cache.set_state(line_address, CoherenceState.SHARED)
                else:
                    if state.is_dirty:
                        result.writeback_to_memory = True
                        self.stats.writebacks += 1
                    cache.set_state(line_address, CoherenceState.SHARED)
            elif state == CoherenceState.EXCLUSIVE:
                cache.set_state(line_address, CoherenceState.SHARED)
                epochs[remote_id] += 1
        return result

    def write_request(
        self, core_id: int, line_address: int, already_resident: bool
    ) -> SnoopResult:
        self.stats.write_requests += 1
        if already_resident:
            self.stats.upgrades += 1
        epochs = self.epochs
        result = SnoopResult()
        for remote_id, cache in enumerate(self._caches):
            if remote_id == core_id:
                continue
            state = cache.probe(line_address)
            if state is None or not state.is_valid:
                continue
            result.had_remote_sharers = True
            if state.is_dirty and not result.supplied_by_cache:
                result.supplied_by_cache = True
                result.supplier_core = remote_id
                self.stats.cache_to_cache_transfers += 1
            cache.invalidate_line(line_address)
            epochs[remote_id] += 1
            result.invalidations += 1
            self.stats.invalidations_sent += 1
        return result


LINE = 64
#: A 512-byte, 2-way L1d: 4 sets, so a 16-line pool keeps evicting.
TINY_L1D = CacheConfig(size_bytes=512, associativity=2, line_size=LINE, hit_latency=2)
POOL = [0x40_0000 + line * LINE for line in range(16)]


def _machine(num_cores: int, protocol: str):
    machine = default_machine_config(num_cores)
    memory = replace(machine.memory, l1d=TINY_L1D, coherence_protocol=protocol)
    return replace(machine, memory=memory)


def _recording(controller: CoherenceController, log: List[tuple]) -> None:
    """Log every request's arguments and SnoopResult fields."""
    read, write = controller.read_request, controller.write_request

    def read_request(core_id, line_address):
        result = read(core_id, line_address)
        log.append(("read", core_id, line_address, astuple(result)))
        return result

    def write_request(core_id, line_address, already_resident):
        result = write(core_id, line_address, already_resident)
        log.append(("write", core_id, line_address, already_resident, astuple(result)))
        return result

    controller.read_request = read_request
    controller.write_request = write_request


def _pair(num_cores: int, protocol: str):
    """(filtered hierarchy, broadcast hierarchy, filtered log, broadcast log)."""
    machine = _machine(num_cores, protocol)
    filtered = MemoryHierarchy(machine)
    reference = MemoryHierarchy(machine)
    for cache in reference.l1d:
        cache._sharers = None  # released: plain fills, no sharer map
    reference.coherence = BroadcastController(
        reference.l1d, protocol, epochs=reference._l1d_epoch
    )
    filtered_log: List[tuple] = []
    reference_log: List[tuple] = []
    _recording(filtered.coherence, filtered_log)
    _recording(reference.coherence, reference_log)
    return filtered, reference, filtered_log, reference_log


def _contents(caches: Sequence[SetAssociativeCache]):
    return [list(cache.resident_lines()) for cache in caches]


def _coherence_counts(stats: CoherenceStats):
    return {
        f.name: getattr(stats, f.name)
        for f in fields(stats)
        if f.name != "snoop_probes"
    }


def _cache_counts(cache: SetAssociativeCache):
    # The reference leaves coherence_downgrades at zero.
    stats = cache.stats
    return (stats.accesses, stats.misses, stats.evictions, stats.writebacks,
            stats.invalidations_received)


def _assert_superset(hierarchy: MemoryHierarchy) -> None:
    sharers = hierarchy.coherence._sharers
    for core, cache in enumerate(hierarchy.l1d):
        for block, _ in cache.resident_lines():
            assert sharers.get(block, 0) >> core & 1, (core, hex(block))


def _exact_map(hierarchy: MemoryHierarchy):
    expected = {}
    for core, cache in enumerate(hierarchy.l1d):
        for block, _ in cache.resident_lines():
            expected[block] = expected.get(block, 0) | 1 << core
    return expected


def _active_cores(num_cores: int) -> List[int]:
    # Few enough cores to share lines often, spread to cross bit 63.
    return sorted({0, 1, num_cores // 2, min(63, num_cores - 1),
                   num_cores - 2, num_cores - 1})


def _run_stream(num_cores: int, protocol: str, seed: int, steps: int,
                disturb: bool) -> MemoryHierarchy:
    filtered, reference, filtered_log, reference_log = _pair(num_cores, protocol)
    rng = random.Random(seed)
    cores = _active_cores(num_cores)
    now = 0
    for _ in range(steps):
        now += rng.randrange(1, 40)
        roll = rng.random()
        core = rng.choice(cores)
        address = rng.choice(POOL) + rng.randrange(0, LINE, 8)
        if disturb and roll < 0.04:
            for hierarchy in (filtered, reference):
                hierarchy.fault_drop_line(core, address)
        elif disturb and roll < 0.07:
            for hierarchy in (filtered, reference):
                hierarchy.fault_corrupt_line(address)
        elif disturb and roll < 0.09:
            for hierarchy in (filtered, reference):
                hierarchy.l1d[core].flush()
                hierarchy.reset_data_memo()
        else:
            is_write = rng.random() < 0.4
            if rng.random() < 0.5:
                outcomes = [h.data_probe(core, address, is_write, now)
                            for h in (filtered, reference)]
                got, want = (None if o is None else astuple(o) for o in outcomes)
                assert got == want
            else:
                for hierarchy in (filtered, reference):
                    hierarchy.warm_data(core, address, is_write)
        assert filtered_log == reference_log
        assert _contents(filtered.l1d) == _contents(reference.l1d)
        assert filtered._l1d_epoch == reference._l1d_epoch
        _assert_superset(filtered)
    assert _coherence_counts(filtered.coherence.stats) == _coherence_counts(
        reference.coherence.stats
    )
    assert [_cache_counts(c) for c in filtered.l1d] == [
        _cache_counts(c) for c in reference.l1d
    ]
    return filtered


@settings(max_examples=24, deadline=None)
@given(
    num_cores=st.sampled_from([2, 4, 64, 70]),
    protocol=st.sampled_from(["MOESI", "MESI", "MSI"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_filtered_snoop_matches_broadcast(num_cores, protocol, seed):
    _run_stream(num_cores, protocol, seed, steps=160, disturb=True)


@settings(max_examples=12, deadline=None)
@given(
    num_cores=st.sampled_from([2, 4, 64, 70]),
    protocol=st.sampled_from(["MOESI", "MESI", "MSI"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sharer_map_is_exact_without_drops_or_flushes(num_cores, protocol, seed):
    """Fills, evictions and snoops alone keep the map exact, hence bounded."""
    filtered = _run_stream(num_cores, protocol, seed, steps=160, disturb=False)
    assert filtered.coherence._sharers == _exact_map(filtered)


def test_every_protocol_and_core_count_is_exercised():
    for num_cores in (2, 4, 64, 70):
        for protocol in ("MOESI", "MESI", "MSI"):
            filtered = _run_stream(
                num_cores, protocol, seed=num_cores, steps=300, disturb=True
            )
            stats = filtered.coherence.stats
            assert stats.cache_to_cache_transfers > 0
            assert stats.invalidations_sent > 0


def test_controller_seeds_the_map_from_resident_lines():
    config = CacheConfig(size_bytes=32 * 1024, associativity=4, line_size=64)
    caches = [SetAssociativeCache(config, name=f"l1d{i}") for i in range(3)]
    caches[2].fill(0x1000, CoherenceState.MODIFIED)
    controller = CoherenceController(caches, "MOESI")
    snoop = controller.read_request(0, 0x1000)
    assert snoop.supplied_by_cache and snoop.supplier_core == 2
    assert controller.stats.snoop_probes == 1


@given(
    holders=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=69),
            st.sampled_from(list(CoherenceState)[1:]),
        ),
        min_size=1,
        max_size=6,
    ),
    is_write=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_visit_order_matches_broadcast_on_hand_built_states(holders, is_write):
    """Even incoherent hand-built states resolve as under broadcast.

    Reachable states have at most one supplier, so visit order only shows
    on states the protocol never builds: several M/E/O copies at once.
    """
    config = CacheConfig(size_bytes=32 * 1024, associativity=4, line_size=64)
    outcomes = []
    for controller_class in (CoherenceController, BroadcastController):
        caches = [SetAssociativeCache(config, name=f"l1d{i}") for i in range(70)]
        controller = controller_class(caches, "MOESI")
        for core, state in holders:
            caches[core].fill(0x1000, state)
        if is_write:
            snoop = controller.write_request(0, 0x1000, already_resident=False)
        else:
            snoop = controller.read_request(0, 0x1000)
        outcomes.append((astuple(snoop), _contents(caches), list(controller.epochs)))
    assert outcomes[0] == outcomes[1]


def _controller(protocol: str, num_cores: int = 2):
    config = CacheConfig(size_bytes=32 * 1024, associativity=4, line_size=64)
    caches = [SetAssociativeCache(config, name=f"l1d{i}") for i in range(num_cores)]
    return caches, CoherenceController(caches, protocol)


class TestDowngradesAreCounted:
    def test_moesi_modified_supplier_becomes_owned(self):
        caches, controller = _controller("MOESI")
        caches[1].fill(0x1000, CoherenceState.MODIFIED)
        controller.read_request(0, 0x1000)
        assert caches[1].probe(0x1000) == CoherenceState.OWNED
        assert caches[1].stats.coherence_downgrades == 1

    def test_moesi_exclusive_supplier_becomes_shared(self):
        caches, controller = _controller("MOESI")
        caches[1].fill(0x1000, CoherenceState.EXCLUSIVE)
        controller.read_request(0, 0x1000)
        assert caches[1].stats.coherence_downgrades == 1

    def test_moesi_owned_supplier_is_not_downgraded(self):
        caches, controller = _controller("MOESI", num_cores=3)
        caches[1].fill(0x1000, CoherenceState.OWNED)
        controller.read_request(0, 0x1000)
        assert caches[1].probe(0x1000) == CoherenceState.OWNED
        assert caches[1].stats.coherence_downgrades == 0

    def test_mesi_modified_supplier_becomes_shared(self):
        caches, controller = _controller("MESI")
        caches[1].fill(0x1000, CoherenceState.MODIFIED)
        controller.read_request(0, 0x1000)
        assert caches[1].probe(0x1000) == CoherenceState.SHARED
        assert caches[1].stats.coherence_downgrades == 1
        assert caches[0].stats.coherence_downgrades == 0

    def test_write_counts_one_invalidation_per_remote_copy(self):
        caches, controller = _controller("MOESI", num_cores=3)
        caches[1].fill(0x1000, CoherenceState.SHARED)
        caches[2].fill(0x1000, CoherenceState.SHARED)
        controller.write_request(0, 0x1000, already_resident=False)
        assert [c.stats.invalidations_received for c in caches] == [0, 1, 1]
        assert [c.stats.coherence_downgrades for c in caches] == [0, 0, 0]


def test_manycore_mcf_reports_filtered_probe_count(monkeypatch):
    """snoop_probes reaches the results, stays host-only, beats broadcast."""
    import json

    from repro.api.session import Session
    from repro.multicore import simulator as simulator_module
    from repro.trace.workloads import manycore_workload

    built: List[MemoryHierarchy] = []

    class CapturedHierarchy(MemoryHierarchy):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(simulator_module, "MemoryHierarchy", CapturedHierarchy)
    workload = manycore_workload(
        "mcf", 64, instructions_per_thread=250, seed=0, shared_fraction=0.2
    )
    result = (
        Session(default_machine_config(64))
        .simulator("interval")
        .workload(workload)
        .warmup(16_000)
        .run()
    )
    coherence = built[0].coherence.stats
    probes = result.stats.host_counters()["snoop_probes"]
    assert probes == coherence.snoop_probes
    assert result.as_dict()["metrics"]["snoop_probes"] == probes
    assert "snoop_probes" not in json.dumps(result.stats.deterministic_dict())
    broadcast = (coherence.read_requests + coherence.write_requests) * 63
    assert 0 < probes < broadcast
