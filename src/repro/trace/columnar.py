"""Columnar (struct-of-arrays) storage of a thread trace.

A :class:`TraceBatch` is the one storage of a committed instruction stream:
parallel per-field lists (opcode/latency class, fetch PC, effective address,
dependence registers, branch outcome, synchronization kind) that the trace
generators write directly and every timing model reads by position.  The
interval kernel executes whole intervals per step, scanning thousands of
positions between miss events, so it reads the columns instead of pulling
one :class:`~repro.common.isa.Instruction` per step through property
descriptors.

:class:`~repro.common.isa.Instruction` objects remain the interface for the
structures that genuinely need them: the branch predictors of every timing
model and of functional warm-up, which build one per branch position.  A
synthesized batch builds each object on first access and caches it; a batch
built from hand-made instructions keeps the caller's objects.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..common.isa import Instruction, InstructionClass, SyncKind

__all__ = [
    "TraceBatch",
    "LazyInstructions",
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


#: Codes of the classes that access data memory: a hand-built instruction of
#: one of them must carry a ``mem_addr``.
_MEMORY_CODES = (int(InstructionClass.LOAD), int(InstructionClass.STORE))

#: Enum members by code, for building instructions from the code columns.
_CLASSES: Tuple[InstructionClass, ...] = tuple(InstructionClass)
_SYNC_KINDS: Tuple[SyncKind, ...] = tuple(SyncKind)


class LazyInstructions:
    """The instructions of a synthesized batch, each built on first access.

    ``lazy[pos]`` builds the :class:`~repro.common.isa.Instruction` at
    ``pos`` from the batch's columns the first time it is read and returns
    the same object ever after.  Consumers that read only some positions
    (the branch predictors of the interval and one-IPC kernels and of
    functional warm-up) never pay for the others.  The cache is a flat list
    with one slot per position.
    """

    __slots__ = ("_columns", "_thread_id", "_built")

    def __init__(self, batch: "TraceBatch", thread_id: int) -> None:
        # The columns rather than the batch: the batch holds this view, and a
        # reference back would make a cycle that only the cyclic garbage
        # collector frees, keeping dropped traces in memory meanwhile.
        self._columns = (
            batch.seq, batch.pc, batch.klass, batch.src_regs, batch.dst_reg,
            batch.mem_addr, batch.is_taken, batch.branch_target, batch.is_call,
            batch.is_return, batch.sync_kind, batch.sync_object, batch.is_kernel,
        )
        self._thread_id = thread_id
        self._built: List[Optional[Instruction]] = [None] * batch.length

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, pos: int) -> Instruction:
        built = self._built[pos]
        if built is None:
            built = self._built[pos] = self._build(pos)
        return built

    def _build(self, pos: int) -> Instruction:
        seq, pc, klass, src, dst, addr, taken, target, call, ret, sync, obj, kernel = (
            self._columns
        )
        # Positional, in Instruction.__init__'s order: keywords cost more.
        return Instruction(
            seq[pos], pc[pos], _CLASSES[klass[pos]], src[pos], dst[pos], addr[pos],
            8,  # mem_size: every synthesized access is one 8-byte word
            taken[pos], target[pos], call[pos] == 1, ret[pos] == 1,
            _SYNC_KINDS[sync[pos]], obj[pos], self._thread_id, kernel[pos] == 1,
        )

    def __iter__(self) -> Iterator[Instruction]:
        return map(self.__getitem__, range(len(self._built)))

    def built_positions(self) -> List[int]:
        """Positions whose instruction has been built so far."""
        return [pos for pos, built in enumerate(self._built) if built is not None]


class TraceBatch:
    """Struct-of-arrays storage of one committed instruction stream.

    A batch is filled in one of two ways.  The trace generators start from
    ``TraceBatch()``, append records with :meth:`append_records` (and
    overwrite them in place), then call :meth:`seal`.  Hand-built traces
    pass their :class:`~repro.common.isa.Instruction` list, which is
    converted to columns once and sealed at once; a load or store without a
    ``mem_addr`` raises :class:`ValueError` naming its ``seq``.

    Attributes
    ----------
    instructions:
        ``instructions[pos]`` is the :class:`~repro.common.isa.Instruction`
        at ``pos``.  For a hand-built batch this is the caller's own list.
        A synthesized batch gets a :class:`LazyInstructions` from the
        :class:`~repro.trace.stream.ThreadTrace` that wraps it (``None``
        until then); it builds each object on first access and caches it,
        so ``instructions[pos] is instructions[pos]``.
    seq:
        Per-thread dynamic sequence numbers.
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
        Branch outcome columns (the actual direction and target), the source
        of the ``is_taken``/``branch_target`` fields of built instructions.
    is_call / is_return / is_kernel:
        One byte per position (0 or 1): call/return markers for the
        return-address stack and the full-system kernel-mode flag.
    """

    __slots__ = (
        "instructions", "seq", "klass", "pc", "mem_addr", "mem_line",
        "src_regs", "dst_reg", "sync_kind", "sync_object", "is_taken",
        "branch_target", "is_call", "is_return", "is_kernel",
        "fetch_skip_template", "has_sync", "length", "_plain_run_ends", "_line_runs",
    )

    def __init__(self, instructions: Optional[Sequence[Instruction]] = None) -> None:
        if instructions is not None and not isinstance(instructions, list):
            instructions = list(instructions)
        self.instructions = instructions
        # Per-column list comprehensions keep the conversion a handful of
        # tight loops; it runs once per hand-built trace.
        ins = instructions or ()
        self.seq: List[int] = [i.seq for i in ins]
        self.klass: List[int] = [int(i.klass) for i in ins]
        self.pc: List[int] = [i.pc for i in ins]
        self.mem_addr: List[Optional[int]] = [i.mem_addr for i in ins]
        self.src_regs: List[Tuple[int, ...]] = [i.src_regs for i in ins]
        self.dst_reg: List[Optional[int]] = [i.dst_reg for i in ins]
        self.sync_kind: List[int] = [int(i.sync) for i in ins]
        self.sync_object: List[int] = [i.sync_object for i in ins]
        self.is_taken: List[bool] = [i.is_taken for i in ins]
        self.branch_target: List[int] = [i.branch_target for i in ins]
        self.is_call = bytearray(bool(i.is_call) for i in ins)
        self.is_return = bytearray(bool(i.is_return) for i in ins)
        self.is_kernel = bytearray(bool(i.is_kernel) for i in ins)
        for seq, code, address in zip(self.seq, self.klass, self.mem_addr):
            if address is None and code in _MEMORY_CODES:
                # Address 0 is valid; only a missing address is rejected, once
                # here, so the timing models need no per-access check.
                raise ValueError(
                    f"instruction seq {seq}: a {_CLASSES[code].name.lower()} "
                    "needs a memory address (mem_addr is None)"
                )
        self.seal()

    def append_records(
        self,
        seqs: Sequence[int],
        klass: int,
        pcs: Sequence[int],
        addresses: Sequence[Optional[int]],
        src_regs: Tuple[int, ...] = (),
        sync_kind: int = 0,
        sync_object: int = 0,
    ) -> None:
        """Append one record per entry of ``seqs`` to the source columns.

        The records share their class, source registers and synchronization
        fields; sequence numbers, PCs and addresses are per record.  Every
        other field takes its default (no destination, not taken, target 0,
        no call/return, user mode).  A generator appends a chunk of
        placeholders this way and overwrites the fields it draws in place.
        """
        n = len(seqs)
        self.seq += seqs
        self.klass += [klass] * n
        self.pc += pcs
        self.mem_addr += addresses
        self.src_regs += [src_regs] * n
        self.dst_reg += [None] * n
        self.sync_kind += [sync_kind] * n
        self.sync_object += [sync_object] * n
        self.is_taken += [False] * n
        self.branch_target += [0] * n
        flags = bytes(n)
        self.is_call += flags
        self.is_return += flags
        self.is_kernel += flags

    def seal(self) -> "TraceBatch":
        """Derive the read-side columns once the source columns are complete.

        Builds ``mem_line``, ``has_sync`` and the fetch-skip template and
        drops the cached run columns.  Returns the batch.
        """
        self.length = len(self.klass)
        self._plain_run_ends: Optional[List[int]] = None
        # Per-shift cache of the fetch-line run column (see fetch_line_runs).
        self._line_runs: Dict[int, List[int]] = {}
        self.mem_line = [None if a is None else a >> LINE_SHIFT for a in self.mem_addr]
        # Per-position flag-byte template: consumers copy it to seed their
        # own flag array with the positions that must never be fetched.
        # has_sync lets consumers that never set their own flags skip the
        # per-position flag test entirely (single-threaded traces).
        sync_code = int(InstructionClass.SYNC)
        self.has_sync = bool(self.klass.count(sync_code))
        template = bytearray(self.length)
        if self.has_sync:
            for position, code in enumerate(self.klass):
                if code == sync_code:
                    template[position] = FLAG_NO_FETCH
        self.fetch_skip_template = template
        return self

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
        klass = self.klass
        length = self.length
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
            pcs = self.pc
            length = self.length
            runs = [0] * length
            end = length
            next_block = None
            for position in range(length - 1, -1, -1):
                # A position whose line differs from its successor's ends
                # the run that contains it.
                block = pcs[position] >> offset_bits
                if block != next_block:
                    end = position + 1
                    next_block = block
                runs[position] = end
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
