"""Dynamic instruction streams.

The paper's framework is *functional-first*: "a functional simulator supplies
instructions to the multi-core interval simulator".  In this reproduction the
functional simulator is replaced by a synthetic trace substrate
(:mod:`repro.trace.synthetic`), and this module defines the containers through
which the dynamic instruction stream reaches the timing simulators:

* :class:`ThreadTrace` — the committed instruction stream of one software
  thread, with cursor-style access (the timing models pull instructions one at
  a time, exactly like the window-tail feed in Figure 2 of the paper);
* :class:`Workload` — a set of threads plus their mapping onto cores, covering
  single-threaded, multi-program (one single-threaded program per core) and
  multi-threaded (one parallel program across cores) workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Union

from ..common.isa import Instruction
from .columnar import LazyInstructions, TraceBatch

__all__ = ["ThreadTrace", "TraceCursor", "Workload"]


class ThreadTrace:
    """The dynamic instruction stream of a single software thread.

    A trace wraps the :class:`~repro.trace.columnar.TraceBatch` that stores
    its instructions, in commit order, as columns.  Timing simulators consume
    it in order through a :class:`TraceCursor`.  ``ThreadTrace(batch)`` wraps
    a sealed synthesized batch and gives it its lazily built instructions.
    ``ThreadTrace(instructions)`` builds a trace by hand: it stamps
    ``thread_id`` on the caller's objects, converts them to columns once and
    keeps the objects, so ``trace[i]`` returns them.
    """

    def __init__(
        self,
        instructions: Union[TraceBatch, Sequence[Instruction]],
        thread_id: int = 0,
        name: str = "",
    ) -> None:
        if isinstance(instructions, TraceBatch):
            batch = instructions
            if batch.instructions is None:
                batch.instructions = LazyInstructions(batch, thread_id)
        else:
            objects = list(instructions)
            for instruction in objects:
                instruction.thread_id = thread_id
            batch = TraceBatch(objects)
        self._batch = batch
        self.thread_id = thread_id
        self.name = name or f"thread{thread_id}"

    def __len__(self) -> int:
        return self._batch.length

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._batch.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._batch.instructions[index]

    def cursor(self) -> "TraceCursor":
        """Return a fresh cursor positioned at the first instruction."""
        return TraceCursor(self)

    def batch(self) -> TraceBatch:
        """The columnar (struct-of-arrays) storage of this trace.

        Every cursor over the trace shares it, so the interval kernel reads
        columns instead of an :class:`~repro.common.isa.Instruction`
        attribute chain per step.
        """
        return self._batch

    @property
    def instruction_count(self) -> int:
        """Number of dynamic instructions in this trace."""
        return self._batch.length

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ThreadTrace(name={self.name!r}, thread_id={self.thread_id}, "
            f"instructions={len(self)})"
        )


class TraceCursor:
    """A read-once cursor over a :class:`ThreadTrace`.

    The interval simulator feeds instructions into the window at the tail and
    the detailed simulator feeds them into its fetch queue; both do so through
    a cursor, consuming the stream strictly in order.
    """

    __slots__ = ("_trace", "_index")

    def __init__(self, trace: ThreadTrace) -> None:
        self._trace = trace
        self._index = 0

    @property
    def trace(self) -> ThreadTrace:
        """The trace this cursor reads (e.g. to obtain its columnar batch)."""
        return self._trace

    @property
    def position(self) -> int:
        """Index of the next instruction to be consumed.

        Positions index the trace's :meth:`ThreadTrace.batch` columns, which
        is how columnar consumers and cursor consumers stay interchangeable.
        """
        return self._index

    def advance_to(self, index: int) -> None:
        """Move the cursor to ``index``, marking everything before it consumed.

        Used by columnar consumers (the interval kernel) that track their own
        position in the batch: they advance the cursor wholesale instead of
        calling :meth:`next` per instruction.  The cursor can only move
        forward and never past the end of the trace.
        """
        if index < self._index:
            raise ValueError("cursor cannot move backwards")
        if index > len(self._trace):
            raise ValueError("cursor cannot advance past the end of the trace")
        self._index = index

    @property
    def exhausted(self) -> bool:
        """``True`` when every instruction has been consumed."""
        return self._index >= len(self._trace)

    @property
    def remaining(self) -> int:
        """Number of instructions not yet consumed."""
        return len(self._trace) - self._index

    @property
    def consumed(self) -> int:
        """Number of instructions already consumed."""
        return self._index

    def peek(self) -> Optional[Instruction]:
        """Return the next instruction without consuming it, or ``None``."""
        if self.exhausted:
            return None
        return self._trace[self._index]

    def next(self) -> Optional[Instruction]:
        """Consume and return the next instruction, or ``None`` at the end."""
        if self.exhausted:
            return None
        instruction = self._trace[self._index]
        self._index += 1
        return instruction

    def skip(self, count: int) -> int:
        """Skip up to ``count`` instructions; returns how many were skipped.

        Used by functional warm-up: the skipped prefix of the trace warms the
        caches and branch predictors but is excluded from timing.
        """
        if count < 0:
            raise ValueError("cannot skip a negative number of instructions")
        skipped = min(count, self.remaining)
        self._index += skipped
        return skipped

    def reset(self) -> None:
        """Rewind the cursor to the beginning of the trace."""
        self._index = 0


@dataclass
class Workload:
    """A set of software threads and their mapping onto cores.

    Attributes
    ----------
    name:
        Human-readable workload name used in result tables (e.g. ``"mcf x4"``
        or ``"fluidanimate (4 threads)"``).
    traces:
        One :class:`ThreadTrace` per software thread.
    core_assignment:
        ``core_assignment[i]`` is the core on which thread *i* runs.  By
        default thread *i* runs on core *i*.
    kind:
        ``"single"``, ``"multiprogram"`` or ``"multithreaded"`` — recorded so
        the experiment harness can pick the right metrics.
    num_barriers:
        For multi-threaded workloads, how many barrier episodes the trace
        contains (0 otherwise).
    """

    name: str
    traces: List[ThreadTrace]
    core_assignment: Optional[List[int]] = None
    kind: str = "single"
    num_barriers: int = 0

    def __post_init__(self) -> None:
        if not self.traces:
            raise ValueError("a workload needs at least one thread trace")
        if self.core_assignment is None:
            self.core_assignment = list(range(len(self.traces)))
        if len(self.core_assignment) != len(self.traces):
            raise ValueError("core assignment must cover every thread")
        if self.kind not in ("single", "multiprogram", "multithreaded"):
            raise ValueError(f"unknown workload kind: {self.kind!r}")

    @property
    def num_threads(self) -> int:
        """Number of software threads in the workload."""
        return len(self.traces)

    @property
    def num_cores_required(self) -> int:
        """Smallest machine (in cores) on which this workload fits."""
        assert self.core_assignment is not None
        return max(self.core_assignment) + 1

    @property
    def total_instructions(self) -> int:
        """Total dynamic instruction count across all threads."""
        return sum(len(trace) for trace in self.traces)

    def threads_on_core(self, core_id: int) -> List[ThreadTrace]:
        """Return the traces of all threads mapped to ``core_id``."""
        assert self.core_assignment is not None
        return [
            trace
            for trace, core in zip(self.traces, self.core_assignment)
            if core == core_id
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Workload(name={self.name!r}, kind={self.kind!r}, "
            f"threads={self.num_threads}, instructions={self.total_instructions})"
        )
