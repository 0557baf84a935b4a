"""Tests for the columnar trace batch and the cursor/batch interplay."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.api.session import Session
from repro.common.isa import Instruction, InstructionClass, SyncKind
from repro.trace.columnar import (
    FLAG_NO_FETCH,
    KLASS_PLAIN,
    LINE_SHIFT,
    LazyInstructions,
    TraceBatch,
)
from repro.trace.stream import ThreadTrace, Workload
from repro.trace.workloads import multithreaded_workload, single_threaded_workload


def _mixed_instructions():
    return [
        Instruction(seq=0, pc=0x1000, klass=InstructionClass.INT_ALU,
                    src_regs=(1, 2), dst_reg=3),
        Instruction(seq=1, pc=0x1004, klass=InstructionClass.LOAD,
                    src_regs=(3,), dst_reg=4, mem_addr=0x8040),
        Instruction(seq=2, pc=0x1008, klass=InstructionClass.STORE,
                    src_regs=(4,), mem_addr=0x80C0),
        Instruction(seq=3, pc=0x100C, klass=InstructionClass.BRANCH,
                    src_regs=(4,), is_taken=True, branch_target=0x2000),
        Instruction(seq=4, pc=0x1010, klass=InstructionClass.SYNC,
                    sync=SyncKind.BARRIER, sync_object=7),
    ]


class TestTraceBatch:
    def test_columns_mirror_instruction_fields(self):
        batch = TraceBatch(_mixed_instructions())
        assert batch.length == 5
        assert batch.klass == [
            int(InstructionClass.INT_ALU),
            int(InstructionClass.LOAD),
            int(InstructionClass.STORE),
            int(InstructionClass.BRANCH),
            int(InstructionClass.SYNC),
        ]
        assert list(batch.pc) == [0x1000, 0x1004, 0x1008, 0x100C, 0x1010]
        assert batch.mem_addr == [None, 0x8040, 0x80C0, None, None]
        # There is no line column: a data line is derived from the address.
        assert not hasattr(batch, "mem_line")
        assert [None if a is None else a >> LINE_SHIFT for a in batch.mem_addr] == [
            None, 0x8040 >> LINE_SHIFT, 0x80C0 >> LINE_SHIFT, None, None
        ]
        assert batch.src_regs[0] == (1, 2)
        assert batch.dst_reg[:2] == [3, 4]
        assert list(batch.is_taken) == [0, 0, 0, 1, 0]
        assert batch.branch_target[3] == 0x2000
        assert batch.sync_kind[4] == int(SyncKind.BARRIER)
        assert batch.sync_object[4] == 7

    def test_fetch_skip_template_marks_only_sync_positions(self):
        batch = TraceBatch(_mixed_instructions())
        assert list(batch.fetch_skip_template) == [0, 0, 0, 0, FLAG_NO_FETCH]

    def test_instructions_list_is_shared_not_copied(self):
        instructions = _mixed_instructions()
        batch = TraceBatch(instructions)
        assert batch.instructions is instructions

    def test_latency_table_honours_overrides(self):
        batch = TraceBatch(_mixed_instructions())
        table = batch.latency_table({InstructionClass.LOAD: 9})
        assert table[int(InstructionClass.LOAD)] == 9
        assert table[int(InstructionClass.INT_ALU)] == 1

    @pytest.mark.parametrize("model", ["interval", "oneipc", "detailed"])
    @pytest.mark.parametrize("klass", [InstructionClass.LOAD, InstructionClass.STORE])
    def test_memory_access_without_address_is_rejected(self, model, klass):
        # A hand-built load or store without an address fails once, where
        # the list becomes columns, with an error naming the instruction —
        # under every model, before any simulator touches the hierarchy.
        instructions = _mixed_instructions()
        instructions.insert(
            2, Instruction(seq=9, pc=0x1006, klass=klass, src_regs=(3,))
        )
        message = r"^instruction seq 9: a (load|store) needs a memory address"
        with pytest.raises(ValueError, match=message):
            workload = Workload(name="hand-built", traces=[ThreadTrace(instructions)])
            Session().simulator(model).workload(workload).run()

    def test_klass_plain_excludes_event_capable_classes(self):
        for code in (InstructionClass.LOAD, InstructionClass.STORE,
                     InstructionClass.BRANCH, InstructionClass.SERIALIZING,
                     InstructionClass.SYNC):
            assert not KLASS_PLAIN[int(code)]
        for code in (InstructionClass.INT_ALU, InstructionClass.FP_MUL,
                     InstructionClass.NOP):
            assert KLASS_PLAIN[int(code)]


class TestTraceBatchCaching:
    def test_batch_is_built_once_and_shared_across_cursors(self):
        trace = ThreadTrace(_mixed_instructions())
        assert trace.batch() is trace.batch()
        assert trace.cursor().trace.batch() is trace.batch()

    def test_real_workload_batch_matches_cursor_stream(self):
        workload = single_threaded_workload("gcc", instructions=500, seed=3)
        trace = workload.traces[0]
        batch = trace.batch()
        cursor = trace.cursor()
        for position in range(len(trace)):
            instruction = cursor.next()
            assert instruction is not None
            assert batch.pc[position] == instruction.pc
            assert batch.klass[position] == int(instruction.klass)
            assert batch.mem_addr[position] == instruction.mem_addr


def _slot_values(instruction):
    return tuple(getattr(instruction, slot) for slot in Instruction.__slots__)


_BRANCH = int(InstructionClass.BRANCH)


class TestLazyMaterialization:
    def test_hand_built_trace_keeps_the_callers_objects(self):
        instructions = _mixed_instructions()
        instructions[1].is_kernel = True
        instructions[3].is_call = True
        instructions[4].is_return = True
        trace = ThreadTrace(instructions, thread_id=2)
        assert all(trace[i] is instructions[i] for i in range(len(instructions)))
        assert all(built is given for built, given in zip(trace, instructions))
        # The columns hold every field: an instruction rebuilt from them
        # equals the caller's object slot for slot.
        rebuilt = LazyInstructions(trace.batch(), trace.thread_id)
        for position, original in enumerate(instructions):
            assert original.thread_id == 2
            assert _slot_values(rebuilt[position]) == _slot_values(original)

    def test_synthesized_instructions_are_built_once_on_access(self):
        trace = single_threaded_workload("gcc", instructions=500, seed=3).traces[0]
        lazy = trace.batch().instructions
        assert isinstance(lazy, LazyInstructions)
        assert lazy.built_positions() == []
        assert trace[7] is trace[7]
        assert lazy.built_positions() == [7]
        assert list(trace)[7] is trace[7]
        assert trace[7].thread_id == trace.thread_id

    def test_dropped_trace_is_freed_without_the_cycle_collector(self):
        # A reference cycle between a batch and its instruction view would
        # keep every dropped trace in memory until the cyclic collector ran.
        gc.collect()
        gc.disable()
        try:
            workload = multithreaded_workload("vips", 2, total_instructions=3_000)
            assert workload.traces[0][5] is workload.traces[0][5]
            dropped = weakref.ref(workload.traces[0])
            del workload
            # The builders keep their last workload; a different build evicts it.
            multithreaded_workload("vips", 2, total_instructions=2_000)
            assert dropped() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("model", ["interval", "oneipc"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: single_threaded_workload("gcc", instructions=4_000, seed=3),
            lambda: multithreaded_workload("fluidanimate", 2, total_instructions=6_000),
        ],
    )
    def test_kernels_and_warmup_build_only_branches(self, model, build):
        workload = build()
        session = Session().cores(len(workload.traces)).simulator(model)
        session.workload(workload).warmup(1_000).run()
        for trace in workload.traces:
            batch = trace.batch()
            built = batch.instructions.built_positions()
            assert built, "the branch predictors read no instruction"
            assert all(batch.klass[position] == _BRANCH for position in built)

    def test_detailed_builds_only_branches(self):
        # The detailed back end reads every field from the columns; only its
        # branch predictor (like functional warm-up's) needs an object.
        workload = single_threaded_workload("gcc", instructions=3_000, seed=3)
        Session().simulator("detailed").workload(workload).warmup(1_000).run()
        batch = workload.traces[0].batch()
        built = batch.instructions.built_positions()
        assert built, "the branch predictor read no instruction"
        assert all(batch.klass[position] == _BRANCH for position in built)
        # Every timed branch was fetched, so each one was built.
        timed_branches = [
            position for position in range(1_000, batch.length)
            if batch.klass[position] == _BRANCH
        ]
        assert set(timed_branches) <= set(built)


class TestCursorAdvance:
    def test_position_tracks_consumption(self):
        trace = ThreadTrace(_mixed_instructions())
        cursor = trace.cursor()
        assert cursor.position == 0
        cursor.next()
        assert cursor.position == 1

    def test_advance_to_consumes_wholesale(self):
        trace = ThreadTrace(_mixed_instructions())
        cursor = trace.cursor()
        cursor.advance_to(4)
        assert cursor.position == 4
        assert cursor.remaining == 1
        assert cursor.next().seq == 4

    def test_advance_backwards_rejected(self):
        cursor = ThreadTrace(_mixed_instructions()).cursor()
        cursor.advance_to(3)
        with pytest.raises(ValueError):
            cursor.advance_to(2)

    def test_advance_past_end_rejected(self):
        cursor = ThreadTrace(_mixed_instructions()).cursor()
        with pytest.raises(ValueError):
            cursor.advance_to(6)


class TestPlainRunEnds:
    def test_runs_end_at_the_first_event_capable_position(self):
        instructions = [
            Instruction(seq=i, pc=0x1000 + 4 * i, klass=InstructionClass.INT_ALU)
            for i in range(3)
        ] + [
            Instruction(seq=3, pc=0x100C, klass=InstructionClass.LOAD,
                        mem_addr=0x8000),
            Instruction(seq=4, pc=0x1010, klass=InstructionClass.FP_MUL),
            Instruction(seq=5, pc=0x1014, klass=InstructionClass.BRANCH),
        ]
        ends = TraceBatch(instructions).plain_run_ends()
        # Positions 0-2 are one plain run ending at the load (position 3).
        assert list(ends[:3]) == [3, 3, 3]
        # Event-capable positions map to themselves.
        assert ends[3] == 3 and ends[5] == 5
        # The lone plain instruction between two events runs to the branch.
        assert ends[4] == 5

    def test_trailing_plain_run_ends_at_the_trace_end(self):
        instructions = [
            Instruction(seq=0, pc=0x1000, klass=InstructionClass.BRANCH),
            Instruction(seq=1, pc=0x1004, klass=InstructionClass.INT_ALU),
            Instruction(seq=2, pc=0x1008, klass=InstructionClass.NOP),
        ]
        ends = TraceBatch(instructions).plain_run_ends()
        assert list(ends) == [0, 3, 3]

    def test_column_is_cached(self):
        batch = TraceBatch(_mixed_instructions())
        assert batch.plain_run_ends() is batch.plain_run_ends()

    def test_matches_klass_plain_on_a_generated_trace(self):
        batch = single_threaded_workload("gcc", instructions=1500, seed=1).traces[0].batch()
        ends = batch.plain_run_ends()
        for position, end in enumerate(ends):
            if KLASS_PLAIN[batch.klass[position]]:
                assert position < end <= batch.length
                assert all(KLASS_PLAIN[batch.klass[i]] for i in range(position, end))
                assert end == batch.length or not KLASS_PLAIN[batch.klass[end]]
            else:
                assert end == position


def _random_instructions(count, seed):
    """Mostly sequential fetch with occasional far jumps, mixed classes."""
    rng = random.Random(seed)
    classes = [
        InstructionClass.INT_ALU,
        InstructionClass.FP_ALU,
        InstructionClass.LOAD,
        InstructionClass.STORE,
        InstructionClass.BRANCH,
        InstructionClass.SYNC,
    ]
    instructions = []
    pc = 0x400000
    for seq in range(count):
        klass = rng.choice(classes)
        kwargs = {}
        if klass in (InstructionClass.LOAD, InstructionClass.STORE):
            kwargs["mem_addr"] = rng.randrange(0, 1 << 32) & ~0x3
        if klass is InstructionClass.SYNC:
            kwargs["sync"] = SyncKind.BARRIER
            kwargs["sync_object"] = rng.randrange(4)
        instructions.append(
            Instruction(seq=seq, pc=pc, klass=klass, dst_reg=1, **kwargs)
        )
        # The jumps give line runs both long stretches and single-instruction
        # transitions.
        pc = rng.randrange(0, 1 << 30) & ~0x3 if rng.random() < 0.05 else pc + 4
    return instructions


def test_fetch_line_runs_semantics():
    """Each run entry points one past the last instruction on the same line."""
    batch = TraceBatch(_random_instructions(800, seed=7))
    for bits in (6, 12):
        runs = batch.fetch_line_runs(bits)
        assert len(runs) == len(batch)
        for index, end in enumerate(runs):
            assert index < end <= len(batch)
            base = batch.pc[index] >> bits
            # Everything inside the run shares the line ...
            assert all(batch.pc[pos] >> bits == base for pos in range(index, end))
            # ... and the run is maximal.
            if end < len(batch):
                assert batch.pc[end] >> bits != base
        # Cached per shift: the same list object comes back.
        assert batch.fetch_line_runs(bits) is runs
    assert list(TraceBatch([]).fetch_line_runs(6)) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fetch_line_runs_match_a_forward_scan(seed):
    """The reverse-scan builder agrees with the run definition read forwards."""
    batch = TraceBatch(_random_instructions(600, seed=seed))
    pcs = batch.pc
    for bits in (0, 2, 6, 12, 31):
        expected = []
        for index in range(len(pcs)):
            end = index + 1
            while end < len(pcs) and pcs[end] >> bits == pcs[index] >> bits:
                end += 1
            expected.append(end)
        assert list(batch.fetch_line_runs(bits)) == expected


class TestHasSync:
    def test_sync_presence_is_recorded(self):
        assert TraceBatch(_mixed_instructions()).has_sync
        assert not TraceBatch(_mixed_instructions()[:4]).has_sync
