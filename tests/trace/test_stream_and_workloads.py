"""Tests for trace containers, cursors and workload builders."""

from __future__ import annotations

import pytest

from repro.common.isa import Instruction, InstructionClass, SyncKind
from repro.trace.multithreaded import generate_multithreaded_workload
from repro.trace.profiles import parsec_profile, spec_profile
from repro.trace.stream import ThreadTrace, TraceCursor, Workload
from repro.trace.workloads import (
    heterogeneous_multiprogram_workload,
    homogeneous_multiprogram_workload,
    multithreaded_workload,
    single_threaded_workload,
)


def make_instructions(count):
    return [
        Instruction(seq=i, pc=0x1000 + 4 * i, klass=InstructionClass.INT_ALU, dst_reg=1)
        for i in range(count)
    ]


class TestThreadTraceAndCursor:
    def test_len_and_iteration(self):
        trace = ThreadTrace(make_instructions(10), thread_id=3)
        assert len(trace) == 10
        assert all(instr.thread_id == 3 for instr in trace)

    def test_cursor_consumes_in_order(self):
        trace = ThreadTrace(make_instructions(5))
        cursor = trace.cursor()
        seen = []
        while not cursor.exhausted:
            seen.append(cursor.next().seq)
        assert seen == [0, 1, 2, 3, 4]
        assert cursor.next() is None

    def test_cursor_peek_does_not_consume(self):
        cursor = ThreadTrace(make_instructions(3)).cursor()
        assert cursor.peek().seq == 0
        assert cursor.peek().seq == 0
        assert cursor.consumed == 0

    def test_cursor_skip(self):
        cursor = ThreadTrace(make_instructions(10)).cursor()
        assert cursor.skip(4) == 4
        assert cursor.next().seq == 4
        assert cursor.skip(100) == 5
        assert cursor.exhausted

    def test_cursor_skip_negative_rejected(self):
        cursor = ThreadTrace(make_instructions(3)).cursor()
        with pytest.raises(ValueError):
            cursor.skip(-1)

    def test_cursor_reset(self):
        cursor = ThreadTrace(make_instructions(3)).cursor()
        cursor.next()
        cursor.reset()
        assert cursor.consumed == 0


class TestWorkload:
    def test_defaults_one_thread_per_core(self):
        workload = Workload(name="w", traces=[ThreadTrace(make_instructions(5))])
        assert workload.core_assignment == [0]
        assert workload.num_cores_required == 1

    def test_total_instructions(self):
        workload = Workload(
            name="w",
            traces=[ThreadTrace(make_instructions(5)), ThreadTrace(make_instructions(7), thread_id=1)],
        )
        assert workload.total_instructions == 12

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            Workload(name="w", traces=[])

    def test_mismatched_assignment_rejected(self):
        with pytest.raises(ValueError):
            Workload(
                name="w",
                traces=[ThreadTrace(make_instructions(5))],
                core_assignment=[0, 1],
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Workload(name="w", traces=[ThreadTrace(make_instructions(5))], kind="gpu")

    def test_threads_on_core(self):
        traces = [ThreadTrace(make_instructions(3), thread_id=t) for t in range(2)]
        workload = Workload(name="w", traces=traces, core_assignment=[1, 0])
        assert workload.threads_on_core(1)[0].thread_id == 0


class TestWorkloadBuilders:
    def test_single_threaded(self):
        workload = single_threaded_workload("gcc", instructions=500, seed=1)
        assert workload.kind == "single"
        assert workload.num_threads == 1
        assert len(workload.traces[0]) == 500

    def test_homogeneous_multiprogram(self):
        workload = homogeneous_multiprogram_workload("mcf", copies=4, instructions=300, seed=1)
        assert workload.kind == "multiprogram"
        assert workload.num_threads == 4
        assert workload.num_cores_required == 4
        # Copies use different seeds, so they are not identical streams.
        first, second = workload.traces[0], workload.traces[1]
        assert any(a.mem_addr != b.mem_addr for a, b in zip(first, second) if a.is_memory and b.is_memory) or \
            any(a.pc != b.pc for a, b in zip(first, second))

    def test_homogeneous_zero_copies_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_multiprogram_workload("mcf", copies=0)

    def test_heterogeneous_multiprogram(self):
        workload = heterogeneous_multiprogram_workload(["gcc", "mcf", "swim"], instructions=200, seed=1)
        assert workload.num_threads == 3
        assert workload.name == "gcc+mcf+swim"

    def test_heterogeneous_empty_rejected(self):
        with pytest.raises(ValueError):
            heterogeneous_multiprogram_workload([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            single_threaded_workload("quake3")

    def test_multithreaded_workload(self):
        workload = multithreaded_workload("fluidanimate", num_threads=4, total_instructions=8000, seed=1)
        assert workload.kind == "multithreaded"
        assert workload.num_threads == 4
        assert workload.num_barriers > 0


class TestMultithreadedGeneration:
    def test_barriers_present_in_every_thread(self):
        workload = generate_multithreaded_workload(
            parsec_profile("streamcluster"), num_threads=4, total_instructions=20_000, seed=2
        )
        for trace in workload.traces:
            barrier_ids = [
                i.sync_object for i in trace if i.is_sync and i.sync == SyncKind.BARRIER
            ]
            assert barrier_ids == sorted(barrier_ids)
            assert len(set(barrier_ids)) == workload.num_barriers

    def test_lock_acquire_release_balanced_per_thread(self):
        workload = generate_multithreaded_workload(
            parsec_profile("dedup"), num_threads=2, total_instructions=20_000, seed=2
        )
        for trace in workload.traces:
            acquires = sum(1 for i in trace if i.is_sync and i.sync == SyncKind.LOCK_ACQUIRE)
            releases = sum(1 for i in trace if i.is_sync and i.sync == SyncKind.LOCK_RELEASE)
            assert acquires == releases

    def test_total_work_roughly_independent_of_thread_count(self):
        profile = parsec_profile("swaptions")
        two = generate_multithreaded_workload(profile, 2, total_instructions=20_000, seed=1)
        eight = generate_multithreaded_workload(profile, 8, total_instructions=20_000, seed=1)
        assert two.total_instructions == pytest.approx(eight.total_instructions, rel=0.35)

    def test_more_threads_means_less_work_per_thread(self):
        profile = parsec_profile("blackscholes")
        two = generate_multithreaded_workload(profile, 2, total_instructions=20_000, seed=1)
        eight = generate_multithreaded_workload(profile, 8, total_instructions=20_000, seed=1)
        assert len(eight.traces[1]) < len(two.traces[1])

    def test_serial_fraction_runs_on_thread_zero(self):
        profile = parsec_profile("vips")  # parallel_fraction = 0.70
        workload = generate_multithreaded_workload(profile, 4, total_instructions=40_000, seed=1)
        lengths = [len(trace) for trace in workload.traces]
        assert lengths[0] > max(lengths[1:])

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            generate_multithreaded_workload(parsec_profile("vips"), 0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_total_is_rejected_not_replaced(self, budget):
        # Only None selects profile.instructions; a zero budget is an error.
        with pytest.raises(ValueError, match="must be positive"):
            generate_multithreaded_workload(parsec_profile("vips"), 2, total_instructions=budget)
