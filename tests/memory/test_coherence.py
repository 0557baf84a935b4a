"""Tests for the MOESI coherence protocol and the memory-hierarchy facade."""

from __future__ import annotations

import pytest

from repro.common.config import (
    CacheConfig,
    MachineConfig,
    MemoryConfig,
    PerfectStructures,
    default_machine_config,
)
from repro.memory.cache import CoherenceState, SetAssociativeCache
from repro.memory.coherence import CoherenceController
from repro.memory.hierarchy import MemoryHierarchy


def make_l1s(num_cores=2):
    config = CacheConfig(size_bytes=32 * 1024, associativity=4, line_size=64)
    return [SetAssociativeCache(config, name=f"l1d{i}") for i in range(num_cores)]


class TestCoherenceController:
    def test_read_miss_no_sharers(self):
        caches = make_l1s()
        controller = CoherenceController(caches, "MOESI")
        snoop = controller.read_request(0, 0x1000)
        assert not snoop.had_remote_sharers
        assert controller.requester_read_state(snoop) == CoherenceState.EXCLUSIVE

    def test_read_miss_with_clean_sharer(self):
        caches = make_l1s()
        controller = CoherenceController(caches, "MOESI")
        caches[1].fill(0x1000, CoherenceState.EXCLUSIVE)
        snoop = controller.read_request(0, 0x1000)
        assert snoop.had_remote_sharers
        assert controller.requester_read_state(snoop) == CoherenceState.SHARED
        assert caches[1].probe(0x1000) == CoherenceState.SHARED

    def test_read_miss_with_dirty_sharer_moesi(self):
        caches = make_l1s()
        controller = CoherenceController(caches, "MOESI")
        caches[1].fill(0x1000, CoherenceState.MODIFIED)
        snoop = controller.read_request(0, 0x1000)
        assert snoop.supplied_by_cache
        assert snoop.supplier_core == 1
        # MOESI keeps the dirty copy on chip in the Owned state.
        assert caches[1].probe(0x1000) == CoherenceState.OWNED
        assert not snoop.writeback_to_memory

    def test_read_miss_with_dirty_sharer_mesi_writes_back(self):
        caches = make_l1s()
        controller = CoherenceController(caches, "MESI")
        caches[1].fill(0x1000, CoherenceState.MODIFIED)
        snoop = controller.read_request(0, 0x1000)
        assert snoop.supplied_by_cache
        assert snoop.writeback_to_memory
        assert caches[1].probe(0x1000) == CoherenceState.SHARED

    def test_write_invalidates_all_sharers(self):
        caches = make_l1s(4)
        controller = CoherenceController(caches, "MOESI")
        for cache in caches[1:]:
            cache.fill(0x1000, CoherenceState.SHARED)
        snoop = controller.write_request(0, 0x1000, already_resident=False)
        assert snoop.invalidations == 3
        for cache in caches[1:]:
            assert cache.probe(0x1000) is None

    def test_upgrade_counts_as_upgrade(self):
        caches = make_l1s()
        controller = CoherenceController(caches, "MOESI")
        caches[0].fill(0x1000, CoherenceState.SHARED)
        caches[1].fill(0x1000, CoherenceState.SHARED)
        controller.write_request(0, 0x1000, already_resident=True)
        assert controller.stats.upgrades == 1
        assert caches[1].probe(0x1000) is None

    def test_protocol_none_never_snoops(self):
        caches = make_l1s()
        controller = CoherenceController(caches, "NONE")
        caches[1].fill(0x1000, CoherenceState.MODIFIED)
        snoop = controller.read_request(0, 0x1000)
        assert not snoop.had_remote_sharers

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            CoherenceController(make_l1s(), "TOKEN")


class TestMemoryHierarchy:
    def test_data_access_miss_then_hit(self):
        hierarchy = MemoryHierarchy(default_machine_config(1))
        miss = hierarchy.data_access(0, 0x1234, is_write=False)
        hit = hierarchy.data_access(0, 0x1238, is_write=False)
        assert miss.l1_miss and not hit.l1_miss
        assert miss.penalty > hit.penalty

    def test_l2_hit_faster_than_dram(self):
        hierarchy = MemoryHierarchy(default_machine_config(1))
        first = hierarchy.data_access(0, 0x8000, is_write=False)   # L2 miss -> DRAM
        hierarchy.l1d[0].flush()
        second = hierarchy.data_access(0, 0x8000, is_write=False)  # L1 miss, L2 hit
        assert first.l2_miss and not second.l2_miss
        assert second.penalty < first.penalty

    def test_instruction_access_miss(self):
        hierarchy = MemoryHierarchy(default_machine_config(1))
        result = hierarchy.instruction_access(0, 0x400000)
        assert result.l1_miss
        again = hierarchy.instruction_access(0, 0x400000)
        assert not again.l1_miss

    def test_coherence_miss_between_cores(self):
        hierarchy = MemoryHierarchy(default_machine_config(2))
        hierarchy.data_access(0, 0x7000, is_write=True)   # core 0 owns the line (M)
        result = hierarchy.data_access(1, 0x7000, is_write=False)
        assert result.coherence_miss
        assert result.long_latency

    def test_store_invalidates_remote_copy(self):
        hierarchy = MemoryHierarchy(default_machine_config(2))
        hierarchy.data_access(0, 0x7000, is_write=False)
        hierarchy.data_access(1, 0x7000, is_write=False)
        hierarchy.data_access(0, 0x7000, is_write=True)
        # Core 1's copy must be gone: its next read is an L1 miss again.
        result = hierarchy.data_access(1, 0x7000, is_write=False)
        assert result.l1_miss

    def test_perfect_l1d_never_misses(self):
        machine = default_machine_config(1).with_perfect(
            PerfectStructures(l1d=True, dtlb=True)
        )
        hierarchy = MemoryHierarchy(machine)
        for address in range(0, 1 << 16, 4096):
            result = hierarchy.data_access(0, address, is_write=False)
            assert not result.l1_miss and result.penalty == 0

    def test_perfect_l2_bounds_penalty(self):
        machine = default_machine_config(1).with_perfect(
            PerfectStructures(l2=True, dtlb=True)
        )
        hierarchy = MemoryHierarchy(machine)
        result = hierarchy.data_access(0, 0xDEADB000, is_write=False)
        assert result.l1_miss and not result.l2_miss
        assert result.penalty == machine.memory.l2.hit_latency
        assert not result.long_latency

    def test_no_l2_goes_straight_to_dram(self):
        memory = MemoryConfig(l2=None)
        machine = MachineConfig(num_cores=1, memory=memory)
        hierarchy = MemoryHierarchy(machine)
        result = hierarchy.data_access(0, 0xABC000, is_write=False)
        assert result.l2_miss
        assert result.penalty >= memory.dram_latency

    def test_tlb_miss_flagged_long_latency(self):
        hierarchy = MemoryHierarchy(default_machine_config(1))
        result = hierarchy.data_access(0, 0x5_0000_0000, is_write=False)
        assert result.tlb_miss
        assert result.long_latency

    def test_invalid_core_id_rejected(self):
        hierarchy = MemoryHierarchy(default_machine_config(1))
        with pytest.raises(ValueError):
            hierarchy.data_access(3, 0x1000, is_write=False)

    def test_collect_stats_keys(self):
        hierarchy = MemoryHierarchy(default_machine_config(2))
        hierarchy.data_access(0, 0x1000, is_write=False)
        hierarchy.instruction_access(1, 0x400000)
        stats = hierarchy.collect_stats()
        for key in ("l1d_accesses", "l1i_accesses", "l2_accesses", "dram_accesses",
                    "coherence_transfers"):
            assert key in stats

    def test_access_result_total_latency(self):
        hierarchy = MemoryHierarchy(default_machine_config(1))
        result = hierarchy.data_access(0, 0x1000, is_write=False)
        assert result.total_latency == result.hit_latency + result.penalty
