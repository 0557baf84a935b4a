"""Tests for the per-core interval model and the interval simulator."""

from __future__ import annotations

import pytest

from repro.branch import PerfectPredictor, create_branch_predictor
from repro.common.config import PerfectStructures, default_machine_config
from repro.common.isa import Instruction, InstructionClass
from repro.common.stats import CoreStats
from repro.core import IntervalCore, IntervalSimulator, OneIPCSimulator
from repro.memory.hierarchy import MemoryHierarchy
from repro.multicore.simulator import CycleLimitExceeded
from repro.trace.stream import ThreadTrace, Workload
from repro.trace.workloads import single_threaded_workload


def alu(seq, dst=1, srcs=()):
    return Instruction(seq=seq, pc=0x400000 + 4 * seq, klass=InstructionClass.INT_ALU,
                       src_regs=tuple(srcs), dst_reg=dst)


def load(seq, addr, dst=2, srcs=()):
    return Instruction(seq=seq, pc=0x400000 + 4 * seq, klass=InstructionClass.LOAD,
                       src_regs=tuple(srcs), dst_reg=dst, mem_addr=addr)


def serializing(seq):
    return Instruction(seq=seq, pc=0x400000 + 4 * seq, klass=InstructionClass.SERIALIZING)


def run_core_on(instructions, machine=None):
    """Run a single interval core on a hand-built instruction list."""
    machine = machine or default_machine_config(1)
    hierarchy = MemoryHierarchy(machine)
    stats = CoreStats()
    core = IntervalCore(
        core_id=0,
        config=machine,
        hierarchy=hierarchy,
        predictor=create_branch_predictor(perfect=machine.perfect.branch_predictor),
        stats=stats,
    )
    trace = ThreadTrace(instructions)
    core.bind_thread(trace.cursor(), thread_id=0)
    time = 0
    while not core.finished and time < 1_000_000:
        if core.sim_time == time:
            core.simulate_cycle(time)
        time = max(time + 1, core.sim_time)
    assert core.finished, "core did not finish"
    return stats, core


class TestIdealDispatch:
    def test_independent_instructions_dispatch_at_design_width(self):
        machine = default_machine_config(1).with_perfect(
            PerfectStructures(branch_predictor=True, l1i=True, l1d=True, l2=True,
                              itlb=True, dtlb=True)
        )
        instructions = [alu(i, dst=(i % 50) + 1) for i in range(4000)]
        stats, _ = run_core_on(instructions, machine)
        assert stats.instructions == 4000
        assert stats.ipc == pytest.approx(4.0, rel=0.05)

    def test_serial_chain_limits_dispatch(self):
        machine = default_machine_config(1).with_perfect(
            PerfectStructures(branch_predictor=True, l1i=True, l1d=True, l2=True,
                              itlb=True, dtlb=True)
        )
        instructions = [alu(i, dst=1, srcs=(1,)) for i in range(2000)]
        stats, _ = run_core_on(instructions, machine)
        # A fully serial single-cycle chain cannot exceed IPC 1 by much.
        assert stats.ipc < 1.4

    def test_all_instructions_committed_exactly_once(self):
        instructions = [alu(i, dst=(i % 20) + 1) for i in range(500)]
        stats, _ = run_core_on(instructions)
        assert stats.instructions == 500


class TestMissEvents:
    def test_long_latency_load_charges_memory_penalty(self):
        machine = default_machine_config(1).with_perfect(
            PerfectStructures(branch_predictor=True, l1i=True, itlb=True, dtlb=True)
        )
        # Loads spread over distinct lines far apart: cold L2 misses.
        instructions = []
        for i in range(400):
            instructions.append(load(i, addr=0x10_0000_0000 + i * 4096, dst=(i % 50) + 1))
        stats, _ = run_core_on(instructions, machine)
        assert stats.long_latency_loads > 0
        assert stats.long_load_penalty_cycles > 0
        assert stats.cpi > 10

    def test_dependent_loads_serialize_but_independent_overlap(self):
        machine = default_machine_config(1).with_perfect(
            PerfectStructures(branch_predictor=True, l1i=True, itlb=True, dtlb=True)
        )
        # Independent long-latency loads: MLP should make them cheaper per load
        # than dependent (pointer-chasing) loads.
        independent = []
        for i in range(256):
            independent.append(load(i, addr=0x20_0000_0000 + i * 4096, dst=(i % 40) + 1))
        dependent = []
        for i in range(256):
            dependent.append(load(i, addr=0x30_0000_0000 + i * 4096, dst=7, srcs=(7,)))
        stats_indep, _ = run_core_on(independent, machine)
        stats_dep, _ = run_core_on(dependent, machine)
        assert stats_indep.cycles < stats_dep.cycles
        assert stats_indep.overlapped_loads > 0

    def test_icache_miss_penalty_recorded(self):
        machine = default_machine_config(1).with_perfect(
            PerfectStructures(branch_predictor=True, l1d=True, l2=True, dtlb=True)
        )
        # Jump across many distinct code lines so the L1 I misses.
        instructions = [
            Instruction(seq=i, pc=0x400000 + i * 8192, klass=InstructionClass.INT_ALU,
                        dst_reg=(i % 30) + 1)
            for i in range(300)
        ]
        stats, _ = run_core_on(instructions, machine)
        assert stats.icache_misses > 0
        assert stats.icache_penalty_cycles > 0

    def test_serializing_instruction_drains_window(self):
        instructions = [alu(i, dst=(i % 30) + 1) for i in range(100)]
        instructions.append(serializing(100))
        instructions.extend(alu(101 + i, dst=(i % 30) + 1) for i in range(100))
        stats, _ = run_core_on(instructions)
        assert stats.serializing_instructions == 1
        assert stats.serializing_penalty_cycles > 0

    def test_cpi_stack_accounts_for_all_cycles(self):
        workload = single_threaded_workload("twolf", instructions=8000, seed=3)
        machine = default_machine_config(1)
        stats = IntervalSimulator(machine).run(workload)
        core = stats.cores[0]
        stack_total = sum(core.cpi_stack().values())
        assert stack_total == pytest.approx(core.cpi, rel=0.01)


class TestMemoryDependence:
    """A load depends on the last older store to its line, line 0 included."""

    PERFECT = PerfectStructures(branch_predictor=True, l1i=True, l1d=True, l2=True,
                                itlb=True, dtlb=True)

    @staticmethod
    def _store_load_loop(store_addr, load_addr, iterations=40):
        # A divide chain feeds the store; the load reads the stored line and
        # feeds a second chain, so the store-to-load edge sets the critical
        # path and with it the effective dispatch rate.
        instructions = []

        def add(klass, **fields):
            pc = 0x400000 + 4 * (len(instructions) % 16)
            instructions.append(
                Instruction(seq=len(instructions), pc=pc, klass=klass, **fields)
            )

        for _ in range(iterations):
            add(InstructionClass.FP_DIV, dst_reg=1)
            for _ in range(5):
                add(InstructionClass.FP_DIV, src_regs=(1,), dst_reg=1)
            add(InstructionClass.STORE, src_regs=(1,), mem_addr=store_addr)
            add(InstructionClass.LOAD, dst_reg=2, mem_addr=load_addr)
            for _ in range(6):
                add(InstructionClass.FP_DIV, src_regs=(2,), dst_reg=2)
            add(InstructionClass.INT_ALU, dst_reg=3)
            add(InstructionClass.INT_ALU, dst_reg=3)
        return instructions

    def _cycles(self, store_addr, load_addr):
        machine = default_machine_config(1).with_perfect(self.PERFECT)
        stats, _ = run_core_on(self._store_load_loop(store_addr, load_addr), machine)
        return stats.cycles

    def test_line_zero_carries_the_dependence_like_any_line(self):
        # Addresses 0 and 8 share line 0; 0x1000 and 0x1008 share line 0x40.
        through_line_zero = self._cycles(0, 8)
        assert through_line_zero == self._cycles(0x1000, 0x1008)
        # The edge is real: a load from another line runs faster.
        assert self._cycles(0, 0x48) < through_line_zero


class TestIntervalSimulator:
    def test_runs_real_workload(self, single_core_machine, small_gcc_workload):
        stats = IntervalSimulator(single_core_machine).run(small_gcc_workload)
        assert stats.simulator == "interval"
        assert stats.total_instructions == small_gcc_workload.total_instructions
        assert stats.total_cycles > 0
        assert 0 < stats.aggregate_ipc <= 4.0

    def test_deterministic_given_same_workload(self, single_core_machine):
        workload = single_threaded_workload("gzip", instructions=4000, seed=9)
        first = IntervalSimulator(single_core_machine).run(workload)
        workload2 = single_threaded_workload("gzip", instructions=4000, seed=9)
        second = IntervalSimulator(single_core_machine).run(workload2)
        assert first.total_cycles == second.total_cycles

    def test_warmup_reduces_cold_start_cpi(self, single_core_machine):
        workload_cold = single_threaded_workload("twolf", instructions=12000, seed=2)
        cold = IntervalSimulator(single_core_machine).run(workload_cold)
        workload_warm = single_threaded_workload("twolf", instructions=12000, seed=2)
        warm = IntervalSimulator(single_core_machine).run(
            workload_warm, warmup_instructions=6000
        )
        assert warm.cores[0].cpi < cold.cores[0].cpi

    def test_workload_too_large_for_machine_rejected(self, single_core_machine):
        workload = Workload(
            name="two-threads",
            traces=[
                ThreadTrace([alu(0)], thread_id=0),
                ThreadTrace([alu(0)], thread_id=1),
            ],
        )
        with pytest.raises(ValueError):
            IntervalSimulator(single_core_machine).run(workload)

    def test_max_cycles_guard(self, single_core_machine):
        workload = single_threaded_workload("mcf", instructions=20_000, seed=1)
        with pytest.raises(CycleLimitExceeded):
            IntervalSimulator(single_core_machine).run(workload, max_cycles=10)

    def test_perfect_everything_reaches_design_width(self):
        machine = default_machine_config(1).with_perfect(
            PerfectStructures(branch_predictor=True, l1i=True, l1d=True, l2=True,
                              itlb=True, dtlb=True)
        )
        workload = single_threaded_workload("eon", instructions=8000, seed=4)
        stats = IntervalSimulator(machine).run(workload)
        assert stats.cores[0].ipc > 1.0

    def test_ablation_flags_change_results(self, single_core_machine):
        workload = single_threaded_workload("vpr", instructions=8000, seed=5)
        full = IntervalSimulator(single_core_machine).run(workload)
        workload2 = single_threaded_workload("vpr", instructions=8000, seed=5)
        no_old_window = IntervalSimulator(
            single_core_machine, use_old_window=False
        ).run(workload2)
        assert no_old_window.total_cycles != full.total_cycles


class TestOneIPCSimulator:
    def test_one_ipc_upper_bound(self, single_core_machine):
        workload = single_threaded_workload("eon", instructions=4000, seed=4)
        stats = OneIPCSimulator(single_core_machine).run(workload)
        assert stats.simulator == "oneipc"
        assert stats.cores[0].ipc <= 1.0

    def test_one_ipc_less_accurate_than_interval_for_wide_core(self, single_core_machine):
        from repro.detailed import DetailedSimulator

        workload = single_threaded_workload("eon", instructions=6000, seed=4)
        detailed = DetailedSimulator(single_core_machine).run(workload)
        workload_b = single_threaded_workload("eon", instructions=6000, seed=4)
        interval = IntervalSimulator(single_core_machine).run(workload_b)
        workload_c = single_threaded_workload("eon", instructions=6000, seed=4)
        oneipc = OneIPCSimulator(single_core_machine).run(workload_c)
        interval_error = abs(interval.aggregate_ipc - detailed.aggregate_ipc)
        oneipc_error = abs(oneipc.aggregate_ipc - detailed.aggregate_ipc)
        assert interval_error < oneipc_error
