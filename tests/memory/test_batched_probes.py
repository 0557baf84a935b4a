"""Batched/allocation-free hierarchy probes must mirror the per-access API.

The interval kernel relies on three guarantees:

* :meth:`~repro.memory.hierarchy.MemoryHierarchy.instruction_probe` /
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.data_probe` have exactly the
  observable effects of ``instruction_access`` / ``data_access`` (state, LRU
  order, statistics), returning ``None`` instead of a penalty-free result;
* :meth:`~repro.memory.hierarchy.MemoryHierarchy.access_block` commits hit
  after hit and stops *before* the first access that would miss, leaving
  that access untouched for the caller to charge at the right time;
* :meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_block` performs every
  access, completing misses in place.

These tests pin the equivalences by running mirrored hierarchies side by
side.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import PerfectStructures, TLBConfig, default_machine_config
from repro.common.isa import Instruction, InstructionClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.columnar import TraceBatch


def _fresh_pair():
    config = default_machine_config(num_cores=1)
    return MemoryHierarchy(config), MemoryHierarchy(config)


def _fetch_state(hierarchy):
    return {
        "l1i_accesses": hierarchy.l1i[0].stats.accesses,
        "l1i_misses": hierarchy.l1i[0].stats.misses,
        "itlb": (hierarchy.itlb[0].stats.accesses, hierarchy.itlb[0].stats.misses),
        "l2": (hierarchy.l2.stats.accesses, hierarchy.l2.stats.misses),
        "dram": hierarchy.dram.stats.accesses,
        "lines": sorted(block for block, _ in hierarchy.l1i[0].resident_lines()),
    }


#: A fetch stream with line reuse (hot loop), a line transition and a far jump.
FETCH_STREAM = (
    [0x40_0000 + 4 * i for i in range(24)]      # straight-line code, two lines
    + [0x40_0000 + 4 * (i % 8) for i in range(16)]  # hot loop on line one
    + [0x80_0000, 0x80_0004, 0x40_0000]         # jump far away and back
)


class TestInstructionProbe:
    def test_probe_matches_access_on_every_fetch(self):
        probing, reference = _fresh_pair()
        for pc in FETCH_STREAM:
            result = probing.instruction_probe(0, pc, 0)
            mirror = reference.instruction_access(0, pc, now=0)
            if result is None:
                assert not mirror.l1_miss and not mirror.tlb_miss
            else:
                assert (result.l1_miss, result.tlb_miss, result.penalty) == (
                    mirror.l1_miss, mirror.tlb_miss, mirror.penalty
                )
            assert _fetch_state(probing) == _fetch_state(reference)

    def test_probe_returns_none_only_on_full_hits(self):
        hierarchy, _ = _fresh_pair()
        first = hierarchy.instruction_probe(0, 0x40_0000, 0)
        assert first is not None and first.l1_miss and first.tlb_miss
        assert hierarchy.instruction_probe(0, 0x40_0000, 0) is None

    def test_memoized_repeat_fetches_still_count_accesses(self):
        hierarchy, _ = _fresh_pair()
        hierarchy.instruction_probe(0, 0x40_0000, 0)
        for _ in range(5):
            assert hierarchy.instruction_probe(0, 0x40_0004, 0) is None
        assert hierarchy.l1i[0].stats.accesses == 6
        assert hierarchy.itlb[0].stats.accesses == 6
        assert hierarchy.l1i[0].stats.misses == 1


class TestAccessBlock:
    def test_stops_before_the_first_miss_without_touching_it(self):
        batched, reference = _fresh_pair()
        pcs = [0x40_0000 + 4 * i for i in range(8)] + [0x90_0000]
        # Warm the first line in both hierarchies.
        batched.instruction_probe(0, pcs[0], 0)
        reference.instruction_access(0, pcs[0], now=0)

        stop_at = batched.access_block(0, pcs, 1, len(pcs))
        assert stop_at == 8  # 0x90_0000 would miss
        # The reference performs the same hits one at a time.
        for pc in pcs[1:8]:
            reference.instruction_access(0, pc, now=0)
        assert _fetch_state(batched) == _fetch_state(reference)
        # Completing the miss through the normal path converges the two.
        batched.instruction_probe(0, pcs[8], 0)
        reference.instruction_access(0, pcs[8], now=0)
        assert _fetch_state(batched) == _fetch_state(reference)

    def test_flagged_positions_are_skipped_entirely(self):
        batched, reference = _fresh_pair()
        pcs = [0x40_0000, 0x40_0004, 0x40_0008]
        flags = bytearray([0, 1, 0])
        batched.instruction_probe(0, pcs[0], 0)
        reference.instruction_access(0, pcs[0], now=0)
        assert batched.access_block(0, pcs, 0, 3, flags, 1) == 3
        reference.instruction_access(0, pcs[0], now=0)
        reference.instruction_access(0, pcs[2], now=0)
        assert _fetch_state(batched) == _fetch_state(reference)

    def test_returns_stop_when_everything_hits(self):
        hierarchy, _ = _fresh_pair()
        pcs = [0x40_0000 + 4 * i for i in range(4)]
        hierarchy.instruction_probe(0, pcs[0], 0)
        assert hierarchy.access_block(0, pcs, 0, 4) == 4


class TestWarmBlock:
    def test_completes_misses_in_place_and_counts_accesses(self):
        warmed, reference = _fresh_pair()
        pcs = [0x40_0000, 0x40_0004, 0x90_0000, 0x90_0004]
        performed = warmed.warm_block(0, pcs, 0, 4, 0)
        assert performed == 4
        for pc in pcs:
            reference.instruction_access(0, pc, now=0)
        assert _fetch_state(warmed) == _fetch_state(reference)


class TestDataProbe:
    def test_probe_matches_access_for_loads_and_stores(self):
        probing, reference = _fresh_pair()
        pattern = [
            (0x10_0000, False), (0x10_0008, False), (0x10_0000, True),
            (0x20_0000, True), (0x10_0000, False), (0x30_0000, False),
            (0x20_0000, False),
        ]
        for address, is_write in pattern:
            result = probing.data_probe(0, address, is_write, 0)
            mirror = reference.data_access(0, address, is_write=is_write, now=0)
            if result is None:
                assert mirror.penalty == 0 and not mirror.is_miss
            else:
                assert (
                    result.l1_miss, result.tlb_miss, result.coherence_miss,
                    result.penalty, result.long_latency,
                ) == (
                    mirror.l1_miss, mirror.tlb_miss, mirror.coherence_miss,
                    mirror.penalty, mirror.long_latency,
                )
        assert probing.collect_stats() == reference.collect_stats()

    def test_store_upgrade_still_sets_modified_state(self):
        hierarchy, _ = _fresh_pair()
        hierarchy.data_probe(0, 0x10_0000, False, 0)  # load -> Exclusive
        assert hierarchy.data_probe(0, 0x10_0000, True, 0) is None  # E -> M, free
        state = hierarchy.l1d[0].probe(0x10_0000)
        assert state is not None and state.is_dirty


class TestFetchMemoSafety:
    def test_reset_fetch_memo_recovers_from_external_flush(self):
        hierarchy, _ = _fresh_pair()
        hierarchy.instruction_probe(0, 0x40_0000, 0)
        hierarchy.l1i[0].flush()
        hierarchy.reset_fetch_memo()
        result = hierarchy.instruction_probe(0, 0x40_0000, 0)
        assert result is not None and result.l1_miss


def _fetch_batch(pcs):
    return TraceBatch([
        Instruction(seq=seq, pc=pc, klass=InstructionClass.INT_ALU)
        for seq, pc in enumerate(pcs)
    ])


#: FETCH_STREAM twice over, so the second pass runs on warm lines.
RUN_STREAM = FETCH_STREAM + FETCH_STREAM


class TestFetchLineRuns:
    def test_column_is_the_batch_column_at_the_l1i_line_shift(self):
        hierarchy, _ = _fresh_pair()
        batch = _fetch_batch(RUN_STREAM)
        line_bits = default_machine_config().memory.l1i.line_size.bit_length() - 1
        assert hierarchy.fetch_line_runs(batch) is batch.fetch_line_runs(line_bits)

    @pytest.mark.parametrize("structure", ["l1i", "itlb"])
    def test_perfect_fetch_structure_rules_the_column_out(self, structure):
        config = default_machine_config().with_perfect(
            PerfectStructures(**{structure: True})
        )
        hierarchy = MemoryHierarchy(config)
        assert hierarchy.fetch_line_runs(_fetch_batch(RUN_STREAM)) is None

    def test_lines_larger_than_pages_rule_the_column_out(self):
        config = default_machine_config()
        memory = replace(config.memory, itlb=TLBConfig(page_size=32))
        hierarchy = MemoryHierarchy(replace(config, memory=memory))
        assert hierarchy.fetch_line_runs(_fetch_batch(RUN_STREAM)) is None

    @pytest.mark.parametrize("flagged", [False, True])
    def test_access_block_with_runs_matches_the_per_position_probe(self, flagged):
        """Run commits stop at the same miss and leave the same state."""
        with_runs, reference = _fresh_pair()
        batch = _fetch_batch(RUN_STREAM)
        runs = with_runs.fetch_line_runs(batch)
        pcs = batch.pc
        flags = bytearray(i % 5 == 3 for i in range(len(pcs))) if flagged else None
        # Blocks of 7 positions end inside runs as well as at their ends.
        for start in range(0, len(pcs), 7):
            stop = min(start + 7, len(pcs))
            index = start
            while index < stop:
                reached = with_runs.access_block(0, pcs, index, stop, flags, 1, runs)
                expected = reference.access_block(0, pcs, index, stop, flags, 1)
                assert reached == expected
                assert _fetch_state(with_runs) == _fetch_state(reference)
                if reached < stop:
                    # Complete the miss in both, as the kernel's caller does.
                    with_runs.instruction_probe(0, pcs[reached], 0)
                    reference.instruction_probe(0, pcs[reached], 0)
                index = reached + 1
        assert _fetch_state(with_runs) == _fetch_state(reference)

    def test_warm_block_with_runs_matches_the_per_position_warm_up(self):
        with_runs, reference = _fresh_pair()
        batch = _fetch_batch(RUN_STREAM)
        runs = with_runs.fetch_line_runs(batch)
        pcs = batch.pc
        for start in range(0, len(pcs), 7):
            stop = min(start + 7, len(pcs))
            assert with_runs.warm_block(
                0, pcs, start, stop, 0, line_runs=runs
            ) == reference.warm_block(0, pcs, start, stop, 0)
            assert _fetch_state(with_runs) == _fetch_state(reference)
