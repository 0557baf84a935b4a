"""The old window of the interval simulator (paper, Section 3.2).

"The simulator maintains a 'window' of instructions for each simulated core
[...].  This window of instructions corresponds to the reorder buffer of a
superscalar out-of-order processor, and is used to determine miss events that
are overlapped by long-latency load misses." (paper, Section 3.1)

The interval kernel (:mod:`repro.core.interval_core`) tracks that
instruction window implicitly, as a sliding index range over the columnar
trace batch with a flag byte per position for the overlap marks.  What it
keeps as a structure is the :class:`OldWindow`: the Section-3.2
critical-path estimator behind the effective dispatch rate (Little's law
over the critical path), the branch resolution time and the window drain
time.  The kernel inlines the estimator's formulas against
:class:`OldWindow`'s internals; the methods here are the readable
formulation of the same arithmetic, exercised by the unit tests.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Optional

from ..common.isa import Instruction
from ..trace.columnar import LINE_SHIFT

__all__ = ["OldWindow"]


class OldWindow:
    """Dataflow-based critical-path tracker for dispatched instructions.

    Section 3.2 of the paper introduces the *old window approach*:
    instructions leaving the instruction window are inserted into an "old
    window" used to estimate, online, three quantities the analytical model
    needs:

    * the **critical path length** through the most recently dispatched
      instructions, which via Little's law yields the *effective dispatch
      rate* (``window size / critical path``, capped by the designed
      dispatch width);
    * the **branch resolution time** — "the longest chain of dependent
      instructions (including their execution latencies) leading to the
      mispredicted branch, starting from the head pointer in the old
      window";
    * the **window drain time** upon a serializing instruction — "the
      maximum of (i) the number of instructions in the old window divided by
      the processor's dispatch width, and (ii) the length of the critical
      execution path in the old window".

    The critical path is approximated exactly as the paper describes: each
    inserted instruction gets an *issue time* equal to the maximum issue
    time of its producers plus its own execution latency; the old window
    keeps a running *head time* and *tail time*, and the critical path is
    ``tail time − head time``.  The old window is emptied at every miss
    event to model the interval-length effect (short intervals → short
    dependence chains).

    Internally the window stores just the issue times (a float per retained
    instruction) — the estimates never look at anything else.  The
    operand-level entry points (:meth:`ready_time`, :meth:`insert_operands`)
    are the *reference formulation* of the estimator: the interval kernel
    inlines exactly these formulas against the window's internals for
    speed, so change them together.

    Parameters
    ----------
    capacity:
        Maximum number of instructions retained; equal to the reorder-buffer
        size of the modeled core.
    dispatch_width:
        The core's designed dispatch width, used for the window-drain-time
        bound.
    """

    def __init__(self, capacity: int, dispatch_width: int) -> None:
        if capacity <= 0:
            raise ValueError("window capacity must be positive")
        if dispatch_width <= 0:
            raise ValueError("dispatch width must be positive")
        self.capacity = capacity
        self.dispatch_width = dispatch_width
        # One issue time per retained instruction, oldest first.
        self._entries: Deque[float] = deque()
        self._head_time = 0.0
        self._tail_time = 0.0
        # Producer tables: architectural register -> issue time of its last
        # writer; cache-line address -> issue time of the last store to it.
        self._register_ready: Dict[int, float] = {}
        self._store_ready: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # -- properties ----------------------------------------------------------------

    @property
    def head_time(self) -> float:
        """Issue time of the logical head of the old window."""
        return self._head_time

    @property
    def tail_time(self) -> float:
        """Issue time of the most recently inserted instruction."""
        return self._tail_time

    @property
    def critical_path_length(self) -> float:
        """Approximate critical path length: tail time minus head time."""
        return max(0.0, self._tail_time - self._head_time)

    # -- the analytical quantities ---------------------------------------------------

    def effective_dispatch_rate(self, window_size: int) -> float:
        """Effective dispatch rate via Little's law.

        ``min(dispatch_width, window_size / critical_path)`` — the processor
        cannot stream instructions faster than the critical path through the
        window allows.
        """
        critical_path = self.critical_path_length
        if critical_path <= 0.0:
            return float(self.dispatch_width)
        return min(float(self.dispatch_width), window_size / critical_path)

    def ready_time(
        self, src_regs: Iterable[int], mem_line: Optional[int]
    ) -> float:
        """Earliest time the given operands are available.

        ``mem_line`` is the :data:`~repro.trace.columnar.LINE_SHIFT`-aligned
        line number of a load/store's effective address (``None`` for
        non-memory instructions); it resolves dependences carried through
        stores to the same line.
        """
        ready = self._head_time
        register_ready = self._register_ready
        for register in src_regs:
            producer_time = register_ready.get(register)
            if producer_time is not None and producer_time > ready:
                ready = producer_time
        if mem_line is not None:
            store_time = self._store_ready.get(mem_line)
            if store_time is not None and store_time > ready:
                ready = store_time
        return ready

    def dependence_ready_time(self, instruction: Instruction) -> float:
        """Earliest time the operands of ``instruction`` are available."""
        mem_line = (
            instruction.mem_addr >> LINE_SHIFT
            if instruction.is_memory and instruction.mem_addr is not None
            else None
        )
        return self.ready_time(instruction.src_regs, mem_line)

    def branch_resolution_time(self, branch: Instruction, branch_latency: int = 1) -> float:
        """Time to resolve a mispredicted branch.

        The longest chain of dependent instructions leading to the branch,
        measured from the old-window head, plus the branch's own execution
        latency.
        """
        ready = self.dependence_ready_time(branch)
        return max(0.0, ready - self._head_time) + branch_latency

    def window_drain_time(self) -> float:
        """Cycles needed to drain the old window before a serializing instruction."""
        dispatch_bound = len(self._entries) / self.dispatch_width
        return max(dispatch_bound, self.critical_path_length)

    # -- insertion / maintenance -------------------------------------------------------

    def insert(self, instruction: Instruction, latency: int) -> float:
        """Insert a dispatched instruction and return its computed issue time.

        ``latency`` is the instruction's execution latency *including* any L1
        data-cache miss latency (but excluding long-latency misses, which are
        handled as separate miss events by the interval model).
        """
        mem_line = (
            instruction.mem_addr >> LINE_SHIFT
            if instruction.is_memory and instruction.mem_addr is not None
            else None
        )
        return self.insert_operands(
            instruction.src_regs,
            instruction.dst_reg,
            mem_line,
            instruction.is_store,
            latency,
        )

    def insert_operands(
        self,
        src_regs: Iterable[int],
        dst_reg: Optional[int],
        mem_line: Optional[int],
        is_store: bool,
        latency: int,
    ) -> float:
        """Operand-level :meth:`insert` — the kernel's reference formulation.

        :meth:`~repro.core.interval_core.IntervalCore.simulate_interval`
        inlines this exact sequence; edit both together.
        """
        if latency < 0:
            raise ValueError("latency must be non-negative")
        ready = self.ready_time(src_regs, mem_line)
        issue_time = ready + latency
        self._entries.append(issue_time)

        # New tail time: maximum of previous tail time and this issue time.
        if issue_time > self._tail_time:
            self._tail_time = issue_time

        # Update producer tables.
        if dst_reg is not None:
            self._register_ready[dst_reg] = issue_time
        if is_store and mem_line is not None:
            self._store_ready[mem_line] = issue_time
            if len(self._store_ready) > 4 * self.capacity:
                self._trim_store_table()

        # Bound the old window at its capacity: removing the oldest entry
        # advances the head time ("the new head time is the maximum of the
        # previous head time and the issue time of the removed instruction").
        if len(self._entries) > self.capacity:
            removed = self._entries.popleft()
            if removed > self._head_time:
                self._head_time = removed
        return issue_time

    def empty(self) -> None:
        """Empty the old window (called at every miss event).

        Emptying models the interval-length effect: dependence chains do not
        extend across miss events, so short intervals yield short branch
        resolution times and window drain times.
        """
        self._entries.clear()
        self._register_ready.clear()
        self._store_ready.clear()
        self._head_time = 0.0
        self._tail_time = 0.0

    def _trim_store_table(self) -> None:
        """Keep the store producer table from growing without bound."""
        # Drop the oldest half (dict preserves insertion order).
        keep = len(self._store_ready) // 2
        for key in list(self._store_ready.keys())[:keep]:
            del self._store_ready[key]
