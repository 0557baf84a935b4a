"""Tests for the detailed core's micro-architectural structures."""

from __future__ import annotations

import pytest

from repro.common.config import CoreConfig
from repro.common.isa import InstructionClass
from repro.detailed.structures import (
    FunctionalUnitPool,
    LoadStoreQueue,
    ReorderBuffer,
    RobEntry,
    StoreBuffer,
)


def entry(pos=0, klass=InstructionClass.INT_ALU):
    return RobEntry(pos, int(klass), ready_cycle=1)


class TestReorderBuffer:
    def test_program_order(self):
        rob = ReorderBuffer(capacity=4)
        rob.append(entry(0))
        rob.append(entry(1))
        assert rob.head().pos == 0
        assert rob.pop_head().pos == 0
        assert rob.head().pos == 1

    def test_capacity(self):
        rob = ReorderBuffer(capacity=2)
        rob.append(entry(0))
        rob.append(entry(1))
        assert rob.is_full
        with pytest.raises(OverflowError):
            rob.append(entry(2))

    def test_pop_empty(self):
        with pytest.raises(IndexError):
            ReorderBuffer(capacity=2).pop_head()

    def test_unissued_iteration(self):
        rob = ReorderBuffer(capacity=4)
        first, second = entry(0), entry(1)
        first.issued = True
        rob.append(first)
        rob.append(second)
        assert [e.pos for e in rob.unissued_entries()] == [1]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(capacity=0)


class TestFunctionalUnitPool:
    def test_unit_kind_mapping(self):
        assert FunctionalUnitPool.unit_kind(InstructionClass.LOAD) == "mem"
        assert FunctionalUnitPool.unit_kind(InstructionClass.FP_MUL) == "fp"
        assert FunctionalUnitPool.unit_kind(InstructionClass.INT_ALU) == "int"
        assert FunctionalUnitPool.unit_kind(InstructionClass.BRANCH) == "int"

    def test_per_cycle_limits(self):
        pool = FunctionalUnitPool(CoreConfig())
        grants = [pool.try_acquire(InstructionClass.INT_ALU, 0) for _ in range(6)]
        assert grants.count(True) == 4  # 4 integer ALUs in Table 1

    def test_limits_reset_next_cycle(self):
        pool = FunctionalUnitPool(CoreConfig())
        for _ in range(4):
            pool.try_acquire(InstructionClass.INT_ALU, 0)
        assert not pool.try_acquire(InstructionClass.INT_ALU, 0)
        assert pool.try_acquire(InstructionClass.INT_ALU, 1)

    def test_kinds_tracked_independently(self):
        pool = FunctionalUnitPool(CoreConfig())
        for _ in range(4):
            assert pool.try_acquire(InstructionClass.LOAD, 0)
        assert not pool.try_acquire(InstructionClass.STORE, 0)
        assert pool.try_acquire(InstructionClass.FP_ALU, 0)


class TestStoreBuffer:
    def test_fills_and_drains(self):
        buffer = StoreBuffer(capacity=2)
        buffer.push(drain_cycle=10)
        buffer.push(drain_cycle=12)
        assert buffer.is_full(5)
        assert not buffer.is_full(11)
        assert len(buffer) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StoreBuffer(capacity=0)


class TestLoadStoreQueue:
    def test_allocate_release(self):
        lsq = LoadStoreQueue(capacity=2)
        lsq.allocate()
        lsq.allocate()
        assert lsq.is_full
        lsq.release()
        assert not lsq.is_full

    def test_overflow_and_underflow(self):
        lsq = LoadStoreQueue(capacity=1)
        lsq.allocate()
        with pytest.raises(OverflowError):
            lsq.allocate()
        lsq.release()
        with pytest.raises(RuntimeError):
            lsq.release()
