"""Columnar (struct-of-arrays) storage of a thread trace.

A :class:`TraceBatch` is the one storage of a committed instruction stream:
parallel per-field columns (opcode/latency class, fetch PC, effective
address, dependence registers, branch outcome, synchronization kind) that
the trace generators write directly and every timing model reads by
position.  The interval kernel executes whole intervals per step, scanning
thousands of positions between miss events, so it reads the columns instead
of pulling one :class:`~repro.common.isa.Instruction` per step through
property descriptors.

Each column has one storage type, chosen by how it is read:

* ``list`` for the columns the kernels read at every position (``klass``,
  ``mem_addr``, ``src_regs``, ``dst_reg``, ``sync_object``): CPython
  specializes an integer subscript of a ``list`` but not of an ``array`` or
  a ``bytearray``.  ``src_regs`` entries are shared tuples (the generators
  draw them from one table), so equal entries are one object.
* ``array('q')`` for the wide-integer columns read once per line
  transition, run or event (``seq``, ``pc``, ``branch_target`` and the
  derived :meth:`TraceBatch.plain_run_ends` and
  :meth:`TraceBatch.fetch_line_runs` columns): 8 bytes per position instead
  of a pointer plus an ``int`` object.
* ``bytearray`` for the small codes and flags (``is_taken``, ``sync_kind``,
  ``is_call``, ``is_return``, ``is_kernel``): one byte per position.

Compare a column with ``list(column)``; an ``array`` never equals a ``list``.
There is no line column: consumers derive a data line as
``mem_addr >> LINE_SHIFT`` where they need it.

:class:`~repro.common.isa.Instruction` objects remain the interface for the
structures that genuinely need them: the branch predictors of every timing
model and of functional warm-up, which build one per branch position.  A
synthesized batch builds each object on first access and caches it; a batch
built from hand-made instructions keeps the caller's objects.
"""

from __future__ import annotations

from array import array
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

#: One zero of the wide-integer column type; ``_ZERO * n`` makes a column.
_ZERO = array("q", (0,))


class LazyInstructions:
    """The instructions of a synthesized batch, each built on first access.

    ``lazy[pos]`` builds the :class:`~repro.common.isa.Instruction` at
    ``pos`` from the batch's columns the first time it is read and returns
    the same object ever after.  Consumers that read only some positions
    (the branch predictors of the interval and one-IPC kernels and of
    functional warm-up) never pay for the others.  The cache is a dict
    keyed by position that holds only the built instructions (about one
    position in ten on a SPEC trace).
    """

    __slots__ = ("_columns", "_thread_id", "_length", "_built")

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
        self._length = batch.length
        self._built: Dict[int, Instruction] = {}

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, pos: int) -> Instruction:
        built = self._built.get(pos)
        if built is None:
            if pos < 0:
                # A list's index rules: count from the end, or IndexError.
                return self[range(self._length)[pos]]
            # A position past the end raises IndexError in the columns.
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
            taken[pos] == 1, target[pos], call[pos] == 1, ret[pos] == 1,
            _SYNC_KINDS[sync[pos]], obj[pos], self._thread_id, kernel[pos] == 1,
        )

    def __iter__(self) -> Iterator[Instruction]:
        return map(self.__getitem__, range(self._length))

    def built_positions(self) -> List[int]:
        """Positions whose instruction has been built so far, ascending."""
        return sorted(self._built)


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
    Every column has one position per instruction and one storage type (see
    the module docstring for the list-versus-array rule); compare a column
    with ``list(column)``.

    instructions:
        ``instructions[pos]`` is the :class:`~repro.common.isa.Instruction`
        at ``pos``.  For a hand-built batch this is the caller's own list.
        A synthesized batch gets a :class:`LazyInstructions` from the
        :class:`~repro.trace.stream.ThreadTrace` that wraps it (``None``
        until then); it builds each object on first access and caches it,
        so ``instructions[pos] is instructions[pos]``.
    seq:
        ``array('q')``: per-thread dynamic sequence numbers.
    klass:
        ``list``: instruction-class codes (``int(InstructionClass)``), which
        double as the latency-class column: execution latencies are resolved
        through a per-run 12-entry table indexed by this code.
    pc:
        ``array('q')``: fetch addresses.
    mem_addr:
        ``list``: effective byte address of loads/stores, ``None`` at every
        other position.  Memory dependences track the line
        ``mem_addr >> LINE_SHIFT``; address 0 is a valid line.
    src_regs / dst_reg:
        ``list``: register dependence columns, a tuple of source registers
        (equal synthesized tuples are one shared object) and the destination
        register or ``None``.
    sync_kind / sync_object:
        Synchronization pseudo-op columns: ``bytearray`` of ``int(SyncKind)``
        codes and ``list`` of object identifiers.
    is_taken / branch_target:
        Branch outcome columns (the actual direction and target), the source
        of the ``is_taken``/``branch_target`` fields of built instructions:
        ``bytearray`` (0 or 1) and ``array('q')``.
    is_call / is_return / is_kernel:
        ``bytearray`` (0 or 1): call/return markers for the return-address
        stack and the full-system kernel-mode flag.
    """

    __slots__ = (
        "instructions", "seq", "klass", "pc", "mem_addr", "src_regs",
        "dst_reg", "sync_kind", "sync_object", "is_taken",
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
        self.seq = array("q", [i.seq for i in ins])
        self.klass: List[int] = [int(i.klass) for i in ins]
        self.pc = array("q", [i.pc for i in ins])
        self.mem_addr: List[Optional[int]] = [i.mem_addr for i in ins]
        self.src_regs: List[Tuple[int, ...]] = [i.src_regs for i in ins]
        self.dst_reg: List[Optional[int]] = [i.dst_reg for i in ins]
        self.sync_kind = bytearray(int(i.sync) for i in ins)
        self.sync_object: List[int] = [i.sync_object for i in ins]
        self.is_taken = bytearray(bool(i.is_taken) for i in ins)
        self.branch_target = array("q", [i.branch_target for i in ins])
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
        self.seq.extend(seqs)
        self.klass += [klass] * n
        self.pc.extend(pcs)
        self.mem_addr += addresses
        self.src_regs += [src_regs] * n
        self.dst_reg += [None] * n
        self.sync_kind += bytes((sync_kind,)) * n
        self.sync_object += [sync_object] * n
        flags = bytes(n)
        self.is_taken += flags
        self.branch_target += _ZERO * n
        self.is_call += flags
        self.is_return += flags
        self.is_kernel += flags

    def seal(self) -> "TraceBatch":
        """Derive the read-side columns once the source columns are complete.

        Builds ``has_sync`` and the fetch-skip template and drops the cached
        run columns.  Returns the batch.
        """
        self.length = len(self.klass)
        self._plain_run_ends: Optional[Sequence[int]] = None
        # Per-shift cache of the fetch-line run column (see fetch_line_runs).
        self._line_runs: Dict[int, Sequence[int]] = {}
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

    def plain_run_ends(self) -> Sequence[int]:
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
        ends = _ZERO * length
        next_event = length
        for position in range(length - 1, -1, -1):
            if KLASS_PLAIN[klass[position]]:
                ends[position] = next_event
            else:
                ends[position] = position
                next_event = position
        self._plain_run_ends = ends
        return ends

    def fetch_line_runs(self, offset_bits: int) -> Sequence[int]:
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
            runs = _ZERO * length
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
