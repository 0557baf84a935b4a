"""Guards on the host memory a synthesized trace holds.

A trace sets the simulator's peak memory, so its storage is pinned here: the
retained bytes per instruction of a cold build with both run columns, each
column's storage type, and the sharing of equal source-register tuples.
"""

from __future__ import annotations

import gc
import tracemalloc
from array import array

import pytest

from repro.common.config import default_machine_config
from repro.common.isa import Instruction, InstructionClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.columnar import TraceBatch
from repro.trace.workloads import multithreaded_workload, single_threaded_workload

#: Retained bytes per instruction allowed for a cold gcc build plus its
#: plain-run and fetch-line-run columns.  Typed columns, shared register
#: tuples and no derived line column hold it near 120 (CPython 3.11); one
#: list-of-ints column more costs about 36.
MAX_BYTES_PER_INSTRUCTION = 160

LIST_COLUMNS = ("klass", "mem_addr", "src_regs", "dst_reg", "sync_object")
ARRAY_COLUMNS = ("seq", "pc", "branch_target")
BYTE_COLUMNS = (
    "is_taken", "sync_kind", "is_call", "is_return", "is_kernel", "fetch_skip_template",
)


def test_cold_build_stays_under_the_byte_budget():
    instructions = 20_000
    hierarchy = MemoryHierarchy(default_machine_config(num_cores=1))
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload = single_threaded_workload("gcc", instructions=instructions, seed=0)
        batch = workload.traces[0].batch()
        batch.plain_run_ends()
        assert hierarchy.fetch_line_runs(batch) is not None
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert batch.length == instructions
    per_instruction = retained / instructions
    assert per_instruction <= MAX_BYTES_PER_INSTRUCTION, (
        f"a trace holds {per_instruction:.0f} bytes per instruction"
    )


def _check_column_types(batch: TraceBatch) -> None:
    for name in LIST_COLUMNS:
        assert type(getattr(batch, name)) is list, name
    for name in ARRAY_COLUMNS:
        column = getattr(batch, name)
        assert type(column) is array and column.typecode == "q", name
    for name in BYTE_COLUMNS:
        assert type(getattr(batch, name)) is bytearray, name
    for column in (batch.plain_run_ends(), batch.fetch_line_runs(6)):
        assert type(column) is array and column.typecode == "q"
    assert not hasattr(batch, "mem_line")
    for name in LIST_COLUMNS + ARRAY_COLUMNS + BYTE_COLUMNS:
        assert len(getattr(batch, name)) == batch.length, name


@pytest.mark.parametrize(
    "build",
    [
        lambda: single_threaded_workload("gcc", instructions=3_000, seed=1),
        lambda: multithreaded_workload("fluidanimate", 4, total_instructions=8_000),
    ],
    ids=["single", "multithreaded"],
)
def test_synthesized_columns_have_their_declared_storage(build):
    for trace in build().traces:
        batch = trace.batch()
        _check_column_types(batch)
        # Equal source-register tuples are one shared object.
        by_value = {}
        for registers in batch.src_regs:
            assert by_value.setdefault(registers, registers) is registers
        # Built instructions keep their field types: is_taken is a bool.
        branches = [
            position for position in range(batch.length)
            if batch.klass[position] == int(InstructionClass.BRANCH)
        ]
        assert branches
        assert all(type(trace[position].is_taken) is bool for position in branches)
        assert {trace[position].is_taken for position in branches} == {False, True}


def test_hand_built_columns_have_their_declared_storage():
    batch = TraceBatch([
        Instruction(seq=0, pc=0x1000, klass=InstructionClass.INT_ALU, dst_reg=1),
        Instruction(seq=1, pc=0x1004, klass=InstructionClass.BRANCH, src_regs=(1,),
                    is_taken=True, branch_target=0x2000),
        Instruction(seq=2, pc=0x2000, klass=InstructionClass.STORE, mem_addr=0),
    ])
    _check_column_types(batch)
    assert list(batch.branch_target) == [0, 0x2000, 0]
    _check_column_types(TraceBatch([]))
