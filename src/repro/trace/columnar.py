"""Columnar (struct-of-arrays) view of a thread trace.

The interval kernel executes whole intervals per step, scanning thousands of
instructions between miss events.  Pulling one :class:`~repro.common.isa.Instruction`
object per step off the cursor and reading its attributes through Python
property descriptors dominates the cost of that scan, so the hot path reads a
:class:`TraceBatch` instead: parallel per-field lists (opcode/latency class,
fetch PC, effective address, dependence registers, synchronization kind)
generated once per :class:`~repro.trace.stream.ThreadTrace` and shared by
every cursor over it.

The batch is a *view*: the ``instructions`` list is the trace's own storage,
and the :class:`~repro.common.isa.Instruction` objects remain the interface
for the structures that genuinely need them (branch predictors, the detailed
reference model).  Consumers index the columns with the same positions a
cursor reports, so cursor-based and columnar access can be mixed freely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..common import fastpath
from ..common.isa import Instruction, InstructionClass

__all__ = [
    "TraceBatch",
    "KLASS_PLAIN",
    "LINE_SHIFT",
    "FLAG_NO_FETCH",
]

#: Dependence-tracking granule used by the old window and the overlap scan
#: (64-byte lines, matching the paper's Table-1 cache geometry).
LINE_SHIFT = 6

#: Flag-byte bit marking positions that never access the I-side (sync
#: pseudo-ops), pre-set in :attr:`TraceBatch.fetch_skip_template` so batched
#: fetch probes skip them.  Shares the flag byte with the kernel's overlap
#: bits (1/2/4).
FLAG_NO_FETCH = 8

#: ``KLASS_PLAIN[code]`` is ``True`` for instruction classes that interact
#: with no simulator besides the I-side fetch path: no data access, no branch
#: prediction, no window drain, no synchronization.  Runs of plain
#: instructions are the intervals the kernel can charge in one step.
KLASS_PLAIN: Tuple[bool, ...] = tuple(
    code
    not in (
        InstructionClass.LOAD,
        InstructionClass.STORE,
        InstructionClass.BRANCH,
        InstructionClass.SERIALIZING,
        InstructionClass.SYNC,
    )
    for code in InstructionClass
)


class TraceBatch:
    """Struct-of-arrays decomposition of one committed instruction stream.

    Attributes
    ----------
    instructions:
        The underlying :class:`~repro.common.isa.Instruction` list (shared
        with the trace, not copied).
    klass:
        Instruction-class codes (``int(InstructionClass)``), which double as
        the latency-class column: execution latencies are resolved through a
        per-run 12-entry table indexed by this code.
    pc:
        Fetch addresses.
    mem_addr / mem_line:
        Effective byte address of loads/stores (``None`` otherwise) and its
        :data:`LINE_SHIFT`-aligned line number used for memory dependences.
    src_regs / dst_reg:
        Register dependence columns.
    sync_kind / sync_object:
        Synchronization pseudo-op columns (``int(SyncKind)`` codes).
    is_taken / branch_target:
        Branch outcome columns (the actual direction and target).  The
        timing kernels currently feed branch predictors whole
        :class:`~repro.common.isa.Instruction` objects (predictors also need
        call/return markers), so these columns exist for schema completeness
        and columnar consumers such as trace analyses.
    """

    __slots__ = (
        "instructions",
        "klass",
        "pc",
        "mem_addr",
        "mem_line",
        "src_regs",
        "dst_reg",
        "sync_kind",
        "sync_object",
        "is_taken",
        "branch_target",
        "fetch_skip_template",
        "has_sync",
        "length",
        "_plain_run_ends",
        "_line_runs",
    )

    def __init__(self, instructions: Sequence[Instruction]) -> None:
        # Per-column list comprehensions keep the build a handful of tight
        # loops; the batch is built once per trace and cached, so this is off
        # the simulation hot path.
        self.instructions: List[Instruction] = (
            instructions if isinstance(instructions, list) else list(instructions)
        )
        ins = self.instructions
        self.klass: List[int] = [int(i.klass) for i in ins]
        self.pc: List[int] = [i.pc for i in ins]
        self.mem_addr: List[Optional[int]] = [i.mem_addr for i in ins]
        self.mem_line: List[Optional[int]] = [
            None if a is None else a >> LINE_SHIFT for a in self.mem_addr
        ]
        self.src_regs: List[Tuple[int, ...]] = [i.src_regs for i in ins]
        self.dst_reg: List[Optional[int]] = [i.dst_reg for i in ins]
        self.sync_kind: List[int] = [int(i.sync) for i in ins]
        self.sync_object: List[int] = [i.sync_object for i in ins]
        self.is_taken: List[bool] = [i.is_taken for i in ins]
        self.branch_target: List[int] = [i.branch_target for i in ins]
        self.length = len(ins)
        # Per-position flag-byte template: consumers copy it to seed their
        # own flag array with the positions that must never be fetched.
        # has_sync lets consumers that never set their own flags skip the
        # per-position flag test entirely (single-threaded traces).
        sync_code = int(InstructionClass.SYNC)
        self.has_sync = bool(self.klass.count(sync_code))
        np = fastpath.numpy
        if self.has_sync and np is not None:
            codes = np.array(self.klass, dtype=np.int64)
            template = bytearray(
                ((codes == sync_code) * FLAG_NO_FETCH).astype(np.uint8).tobytes()
            )
        else:
            template = bytearray(self.length)
            if self.has_sync:
                for position, code in enumerate(self.klass):
                    if code == sync_code:
                        template[position] = FLAG_NO_FETCH
        self.fetch_skip_template = template
        self._plain_run_ends: Optional[List[int]] = None
        # Per-shift cache of the fetch-line run column (see fetch_line_runs).
        self._line_runs: Dict[int, List[int]] = {}

    def __len__(self) -> int:
        return self.length

    def plain_run_ends(self) -> List[int]:
        """Exclusive end of the plain run starting at each position.

        ``plain_run_ends()[i]`` is the index of the first instruction at or
        after ``i`` whose class is *not* plain (``i`` itself when position
        ``i`` is an event-capable instruction), or :attr:`length` when the
        trace ends first.  Kernels that charge plain instructions a constant
        cost (the one-IPC model) commit the whole run ``[i,
        plain_run_ends()[i])`` with O(1) arithmetic instead of re-classifying
        each position.  Built lazily and cached; shared by every consumer of
        the batch.
        """
        ends = self._plain_run_ends
        if ends is not None:
            return ends
        np = fastpath.numpy
        length = self.length
        if np is not None and length:
            # Event-capable positions point at themselves, plain positions at
            # the trace end; a reversed running minimum then snaps every
            # plain position to the nearest event at or after it.
            codes = np.array(self.klass, dtype=np.int64)
            plain = np.array(KLASS_PLAIN, dtype=bool)[codes]
            cand = np.where(plain, length, np.arange(length, dtype=np.int64))
            ends = np.minimum.accumulate(cand[::-1])[::-1].tolist()
        else:
            klass = self.klass
            ends = [0] * length
            next_event = length
            for position in range(length - 1, -1, -1):
                if KLASS_PLAIN[klass[position]]:
                    ends[position] = next_event
                else:
                    ends[position] = position
                    next_event = position
        self._plain_run_ends = ends
        return ends

    def fetch_line_runs(self, offset_bits: int) -> List[int]:
        """Exclusive end of the same-fetch-line run containing each position.

        ``fetch_line_runs(b)[i]`` is the index of the first position after
        ``i`` whose ``pc >> b`` differs from position ``i``'s (or
        :attr:`length` when the trace ends first).  The hierarchy's batched
        fetch probes (:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_block`,
        :meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_block`) use the
        column to commit each whole same-line run of memo hits as one
        arithmetic step, making the probe O(line transitions) instead of
        O(instructions).  Built lazily, cached per shift, and shared by every
        consumer of the batch.
        """
        runs = self._line_runs.get(offset_bits)
        if runs is None:
            length = self.length
            np = fastpath.numpy
            if np is not None and length:
                blocks = np.array(self.pc, dtype=np.int64) >> offset_bits
                # Last-of-run positions point one past themselves, everything
                # else at the trace end; a reversed running minimum gives each
                # position its run's exclusive end.
                boundary = np.empty(length, dtype=bool)
                np.not_equal(blocks[1:], blocks[:-1], out=boundary[:-1])
                boundary[-1] = True
                cand = np.where(
                    boundary, np.arange(1, length + 1, dtype=np.int64), length
                )
                runs = np.minimum.accumulate(cand[::-1])[::-1].tolist()
            else:
                pcs = self.pc
                runs = [0] * length
                if length:
                    runs[length - 1] = length
                    next_block = pcs[length - 1] >> offset_bits
                    for position in range(length - 2, -1, -1):
                        block = pcs[position] >> offset_bits
                        if block == next_block:
                            runs[position] = runs[position + 1]
                        else:
                            runs[position] = position + 1
                            next_block = block
            self._line_runs[offset_bits] = runs
        return runs

    def latency_table(
        self, latencies: Optional[dict] = None
    ) -> List[int]:
        """Per-class execution-latency table indexed by the ``klass`` column.

        Resolves the (possibly config-overridden) latency of every
        instruction class once, so the kernel replaces a dict lookup per
        instruction with a list index.
        """
        from ..common.isa import execution_latency

        return [
            execution_latency(InstructionClass(code), latencies)
            for code in range(len(InstructionClass))
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TraceBatch(length={self.length})"
