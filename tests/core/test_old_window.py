"""Tests for the old-window critical-path estimator (paper §3.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.isa import Instruction, InstructionClass
from repro.core.window import OldWindow


def alu(seq, dst, srcs=()):
    return Instruction(seq=seq, pc=0x1000 + 4 * seq, klass=InstructionClass.INT_ALU,
                       src_regs=tuple(srcs), dst_reg=dst)


def load(seq, dst, srcs=(), addr=0x2000):
    return Instruction(seq=seq, pc=0x1000 + 4 * seq, klass=InstructionClass.LOAD,
                       src_regs=tuple(srcs), dst_reg=dst, mem_addr=addr)


def store(seq, srcs=(), addr=0x2000):
    return Instruction(seq=seq, pc=0x1000 + 4 * seq, klass=InstructionClass.STORE,
                       src_regs=tuple(srcs), dst_reg=None, mem_addr=addr)


def branch(seq, srcs=()):
    return Instruction(seq=seq, pc=0x1000 + 4 * seq, klass=InstructionClass.BRANCH,
                       src_regs=tuple(srcs))


class TestCriticalPath:
    def test_empty_window_has_zero_critical_path(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        assert window.critical_path_length == 0.0
        assert window.effective_dispatch_rate(256) == 4.0

    def test_independent_instructions_short_critical_path(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        for i in range(64):
            window.insert(alu(i, dst=i % 60 + 1), latency=1)
        # Independent single-cycle instructions: critical path stays short.
        assert window.critical_path_length <= 2.0
        assert window.effective_dispatch_rate(256) == 4.0

    def test_dependence_chain_lengthens_critical_path(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        for i in range(32):
            window.insert(alu(i, dst=1, srcs=(1,)), latency=1)
        assert window.critical_path_length == pytest.approx(32.0)

    def test_chain_latency_accumulates(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        for i in range(10):
            window.insert(alu(i, dst=1, srcs=(1,)), latency=3)
        assert window.critical_path_length == pytest.approx(30.0)

    def test_effective_dispatch_rate_uses_littles_law(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        for i in range(128):
            window.insert(alu(i, dst=1, srcs=(1,)), latency=1)
        # Critical path 128 over a 256-entry window: rate = 2.
        assert window.effective_dispatch_rate(256) == pytest.approx(2.0)

    def test_effective_dispatch_rate_capped_by_width(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        window.insert(alu(0, dst=1), latency=1)
        assert window.effective_dispatch_rate(256) == 4.0

    def test_memory_dependence_through_store(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        window.insert(store(0, srcs=(2,), addr=0x4000), latency=5)
        load_insn = load(1, dst=3, srcs=(9,), addr=0x4000)
        ready = window.dependence_ready_time(load_insn)
        assert ready == pytest.approx(5.0)

    def test_capacity_eviction_advances_head_time(self):
        window = OldWindow(capacity=8, dispatch_width=4)
        for i in range(20):
            window.insert(alu(i, dst=1, srcs=(1,)), latency=1)
        assert window.head_time > 0
        assert window.critical_path_length <= 8.0
        assert len(window) == 8


class TestBranchResolutionTime:
    def test_branch_without_producers_resolves_quickly(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        for i in range(16):
            window.insert(alu(i, dst=i + 1), latency=1)
        assert window.branch_resolution_time(branch(99, srcs=(63,)), 1) == pytest.approx(1.0)

    def test_branch_on_long_chain_resolves_slowly(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        for i in range(20):
            window.insert(alu(i, dst=5, srcs=(5,)), latency=1)
        resolution = window.branch_resolution_time(branch(99, srcs=(5,)), 1)
        assert resolution == pytest.approx(21.0)

    def test_interval_length_effect(self):
        # The same dependence chain gives a shorter resolution time right
        # after a miss event (window emptied) than deep into an interval.
        long_interval = OldWindow(capacity=256, dispatch_width=4)
        for i in range(30):
            long_interval.insert(alu(i, dst=5, srcs=(5,)), latency=1)
        late = long_interval.branch_resolution_time(branch(99, srcs=(5,)), 1)

        short_interval = OldWindow(capacity=256, dispatch_width=4)
        for i in range(30):
            short_interval.insert(alu(i, dst=5, srcs=(5,)), latency=1)
        short_interval.empty()
        for i in range(3):
            short_interval.insert(alu(i, dst=5, srcs=(5,)), latency=1)
        early = short_interval.branch_resolution_time(branch(99, srcs=(5,)), 1)
        assert early < late


class TestWindowDrainTime:
    def test_drain_time_lower_bound_is_occupancy_over_width(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        for i in range(40):
            window.insert(alu(i, dst=i % 50 + 1), latency=1)
        assert window.window_drain_time() >= 40 / 4

    def test_drain_time_uses_critical_path_when_longer(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        for i in range(8):
            window.insert(alu(i, dst=1, srcs=(1,)), latency=10)
        assert window.window_drain_time() == pytest.approx(80.0)

    def test_empty_window_drains_instantly(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        assert window.window_drain_time() == 0.0


class TestEmpty:
    def test_empty_resets_all_state(self):
        window = OldWindow(capacity=256, dispatch_width=4)
        for i in range(20):
            window.insert(load(i, dst=1, srcs=(1,), addr=0x100 * i), latency=4)
        window.empty()
        assert len(window) == 0
        assert window.critical_path_length == 0.0
        assert window.head_time == 0.0
        assert window.tail_time == 0.0
        # Producer tables are cleared: no stale dependences survive.
        assert window.dependence_ready_time(alu(99, dst=2, srcs=(1,))) == 0.0

    def test_negative_latency_rejected(self):
        window = OldWindow(capacity=16, dispatch_width=4)
        with pytest.raises(ValueError):
            window.insert(alu(0, dst=1), latency=-1)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            OldWindow(capacity=0, dispatch_width=4)
        with pytest.raises(ValueError):
            OldWindow(capacity=16, dispatch_width=0)


class TestCapacity:
    def test_length_grows_to_capacity_and_stays_there(self):
        window = OldWindow(capacity=4, dispatch_width=4)
        for i in range(10):
            window.insert(alu(i, dst=i + 1), latency=1)
            assert len(window) == min(i + 1, 4)

    def test_eviction_removes_the_oldest_entry_first(self):
        window = OldWindow(capacity=2, dispatch_width=4)
        # Independent instructions issue at head time + latency: 10, 3, 7.
        for seq, latency in enumerate((10, 3, 7)):
            window.insert(alu(seq, dst=seq + 1), latency=latency)
        # The oldest entry (issued at 10) left, not the earliest-issued one.
        assert window.head_time == 10.0
        # The next eviction removes the entry issued at 3; the head time
        # keeps its maximum.
        window.insert(alu(3, dst=4), latency=1)
        assert window.head_time == 10.0
        assert window.tail_time == 11.0
        assert len(window) == 2

    def test_capacity_still_bounds_the_window_after_empty(self):
        window = OldWindow(capacity=3, dispatch_width=4)
        for i in range(5):
            window.insert(alu(i, dst=1, srcs=(1,)), latency=2)
        window.empty()
        for i in range(5):
            window.insert(alu(i, dst=1, srcs=(1,)), latency=2)
        assert len(window) == 3
        # Two evictions from the fresh chain 2, 4, 6, 8, 10: head at 4.
        assert window.head_time == 4.0
        assert window.critical_path_length == 6.0


class TestOldWindowProperties:
    @given(
        latencies=st.lists(st.integers(1, 20), min_size=1, max_size=120),
        dependent=st.lists(st.booleans(), min_size=1, max_size=120),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_under_random_insertion(self, latencies, dependent):
        window = OldWindow(capacity=64, dispatch_width=4)
        for index, (latency, dep) in enumerate(zip(latencies, dependent)):
            srcs = (7,) if dep else ()
            window.insert(alu(index, dst=7 if dep else (index % 50) + 8, srcs=srcs), latency)
            # Invariants: tail >= head, critical path bounded by sum of latencies.
            assert window.tail_time >= window.head_time
            assert window.critical_path_length <= sum(latencies[: index + 1])
            assert 0 < window.effective_dispatch_rate(256) <= 4.0
            assert len(window) <= 64

    @given(st.integers(1, 64), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_dispatch_rate_bounds(self, chain_length, width):
        window = OldWindow(capacity=256, dispatch_width=width)
        for i in range(chain_length):
            window.insert(alu(i, dst=1, srcs=(1,)), latency=1)
        rate = window.effective_dispatch_rate(256)
        assert 0 < rate <= width

