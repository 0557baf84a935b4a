"""Micro-architectural structures of the detailed out-of-order core model.

The detailed simulator plays the role of M5's cycle-level out-of-order core
model in the paper's evaluation: it is the accuracy reference the interval
simulator is compared against, and the baseline for the simulation-speed
figures.  This module provides its building blocks:

* :class:`RobEntry` / :class:`ReorderBuffer` — in-flight instruction state in
  program order;
* :class:`FunctionalUnitPool` — per-cycle functional-unit availability
  (4 integer ALUs, 4 load/store units, 4 FP units in the Table-1 baseline);
* :class:`StoreBuffer` — committed stores draining to the memory hierarchy;
* :class:`LoadStoreQueue` — occupancy tracking for in-flight memory
  operations.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional, Sequence

from ..common.config import CoreConfig
from ..common.isa import InstructionClass

__all__ = [
    "RobEntry",
    "ReorderBuffer",
    "FunctionalUnitPool",
    "StoreBuffer",
    "LoadStoreQueue",
]


class RobEntry:
    """One reorder-buffer slot tracking an instruction's execution state.

    An entry names its instruction by trace position (``pos``); the core
    reads the instruction's fields from the bound
    :class:`~repro.trace.columnar.TraceBatch` columns.
    """

    __slots__ = (
        "pos",
        "kcode",
        "ready_cycle",
        "complete_cycle",
        "issued",
        "mispredicted",
        "producers",
        # Event-driven issue-queue state (DetailedCore.event_driven_issue):
        # dispatch-order index, count of still-unissued producers, the cycle
        # the entry becomes ready once that count hits zero, and the wake
        # list of consumers subscribed to this entry's completion.
        "idx",
        "wait_count",
        "ready_at",
        "waiters",
    )

    def __init__(
        self, pos: int, kcode: int, ready_cycle: int, mispredicted: bool = False
    ) -> None:
        self.pos = pos
        # The instruction-class code, read off the trace batch at dispatch so
        # the stage loops compare plain ints.
        self.kcode = kcode
        self.ready_cycle = ready_cycle
        self.complete_cycle: Optional[int] = None
        self.issued = False
        self.mispredicted = mispredicted
        # Reorder-buffer entries of the in-flight producers of this
        # instruction's source operands (register renaming snapshot taken at
        # dispatch time; per-stage reference only).
        self.producers: Sequence["RobEntry"] = ()
        self.idx = 0
        self.wait_count = 0
        self.ready_at = ready_cycle
        self.waiters: Optional[List["RobEntry"]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RobEntry(pos={self.pos}, issued={self.issued}, "
            f"ready={self.ready_cycle}, complete={self.complete_cycle})"
        )


class ReorderBuffer:
    """Program-order buffer of in-flight instructions (the ROB)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[RobEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RobEntry]:
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        """``True`` when no more instructions can be dispatched."""
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        """``True`` when no instructions are in flight."""
        return not self._entries

    def head(self) -> Optional[RobEntry]:
        """The oldest in-flight instruction (next to commit), or ``None``."""
        if not self._entries:
            return None
        return self._entries[0]

    def append(self, entry: RobEntry) -> None:
        """Dispatch an instruction into the ROB."""
        if self.is_full:
            raise OverflowError("reorder buffer is full")
        self._entries.append(entry)

    def pop_head(self) -> RobEntry:
        """Commit (retire) the instruction at the ROB head."""
        if not self._entries:
            raise IndexError("reorder buffer is empty")
        return self._entries.popleft()

    def unissued_entries(self) -> Iterator[RobEntry]:
        """Iterate over entries still waiting in the issue queue."""
        for entry in self._entries:
            if not entry.issued:
                yield entry


#: Functional-unit kind per instruction-class code (indexable by either the
#: enum member or its int code).
_UNIT_KIND_TABLE = tuple(
    "mem"
    if code in (InstructionClass.LOAD, InstructionClass.STORE)
    else "fp"
    if code
    in (InstructionClass.FP_ALU, InstructionClass.FP_MUL, InstructionClass.FP_DIV)
    else "int"
    for code in InstructionClass
)


class FunctionalUnitPool:
    """Per-cycle functional-unit availability tracker.

    The pool is consulted at issue: an instruction can only issue when a unit
    of the right kind is free in that cycle.  Units are fully pipelined
    (they accept a new operation every cycle), which matches the issue model
    the interval analysis assumes.
    """

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self._cycle = -1
        self._used_int = 0
        self._used_mem = 0
        self._used_fp = 0

    def _roll(self, cycle: int) -> None:
        """Reset per-cycle usage when the cycle advances."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._used_int = 0
            self._used_mem = 0
            self._used_fp = 0

    @staticmethod
    def unit_kind(klass: InstructionClass) -> str:
        """Map an instruction class to its functional-unit kind."""
        return _UNIT_KIND_TABLE[klass]

    def try_acquire(self, klass: InstructionClass, cycle: int) -> bool:
        """Try to claim a functional unit for ``klass`` in ``cycle``.

        ``klass`` may be the :class:`~repro.common.isa.InstructionClass`
        member or its plain ``int`` code (the columnar stage loops pass the
        code).
        """
        self._roll(cycle)
        kind = _UNIT_KIND_TABLE[klass]
        if kind == "mem":
            if self._used_mem < self.config.load_store_units:
                self._used_mem += 1
                return True
            return False
        if kind == "fp":
            if self._used_fp < self.config.fp_units:
                self._used_fp += 1
                return True
            return False
        if self._used_int < self.config.int_alu_units:
            self._used_int += 1
            return True
        return False


class StoreBuffer:
    """Committed stores draining to the memory system.

    Each committed store occupies an entry until its write completes
    (``drain_cycle``).  When the buffer is full, commit stalls — one of the
    resource-stall mechanisms the interval model attributes to the
    instruction at the ROB head.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("store buffer capacity must be positive")
        self.capacity = capacity
        self._drain_cycles: Deque[int] = deque()

    def drain(self, cycle: int) -> None:
        """Retire entries whose write has completed by ``cycle``."""
        while self._drain_cycles and self._drain_cycles[0] <= cycle:
            self._drain_cycles.popleft()

    def is_full(self, cycle: int) -> bool:
        """``True`` when no store can commit in ``cycle``."""
        self.drain(cycle)
        return len(self._drain_cycles) >= self.capacity

    def push(self, drain_cycle: int) -> None:
        """Add a committed store that completes at ``drain_cycle``."""
        self._drain_cycles.append(drain_cycle)

    def __len__(self) -> int:
        return len(self._drain_cycles)


class LoadStoreQueue:
    """Occupancy tracking of in-flight memory operations (LSQ)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("LSQ capacity must be positive")
        self.capacity = capacity
        self._occupancy = 0

    @property
    def is_full(self) -> bool:
        """``True`` when no memory operation can be dispatched."""
        return self._occupancy >= self.capacity

    def allocate(self) -> None:
        """Reserve an LSQ slot for a dispatched memory operation."""
        if self.is_full:
            raise OverflowError("load-store queue is full")
        self._occupancy += 1

    def release(self) -> None:
        """Free an LSQ slot when the memory operation commits."""
        if self._occupancy <= 0:
            raise RuntimeError("load-store queue underflow")
        self._occupancy -= 1

    def __len__(self) -> int:
        return self._occupancy
