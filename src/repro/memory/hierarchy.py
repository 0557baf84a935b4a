"""The memory-hierarchy simulator.

"The memory hierarchy simulator models the entire memory hierarchy.  This
includes cache coherence, private (per-core) caches and TLBs, as well as the
shared last-level caches, interconnection network, off-chip bandwidth and
main memory.  The memory hierarchy simulator is invoked for each I-cache/TLB
or D-cache/TLB access and returns the (miss) latency." (paper, Section 3.1)

:class:`MemoryHierarchy` is that simulator.  It is shared between the
interval simulator and the detailed reference simulator, which is exactly the
paper's structure: the level of abstraction is raised only inside the cores;
the memory system is simulated in the same detail for both.

Every access returns an :class:`AccessResult` describing which structures
missed and the resulting penalty; the timing models decide what to do with
the penalty (interval analysis adds it to the per-core simulated time, the
detailed model schedules the instruction's completion accordingly).

For the interval-at-a-time kernel the hierarchy additionally exposes batched
instruction-side probes (:meth:`MemoryHierarchy.instruction_probe`,
:meth:`MemoryHierarchy.access_block`, :meth:`MemoryHierarchy.warm_block`)
whose observable effects are instruction-for-instruction identical to the
per-access API but whose dispatch overhead is paid per miss *event* (or per
same-line run) rather than per instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..common.config import MachineConfig, MemoryConfig, PerfectStructures
from .cache import CoherenceState, SetAssociativeCache
from .coherence import CoherenceController, SnoopResult
from .dram import MainMemory
from .tlb import TLB

if TYPE_CHECKING:
    from ..trace.columnar import TraceBatch

__all__ = ["AccessResult", "MemoryHierarchy"]


#: Extra bus/interconnect cycles for a cache-to-cache transfer between cores.
_CACHE_TO_CACHE_OVERHEAD = 8

# Coherence states hoisted so the data hot path compares plain ints.
_ST_SHARED = CoherenceState.SHARED
_ST_EXCLUSIVE = CoherenceState.EXCLUSIVE
_ST_OWNED = CoherenceState.OWNED
_ST_MODIFIED = CoherenceState.MODIFIED


def _count_flagged(flags: bytearray, lo: int, hi: int, mask: int) -> int:
    """Number of positions in ``[lo, hi)`` whose flag byte intersects ``mask``.

    The dominant case — no flag byte set anywhere in the run — is answered by
    one C-level ``count`` call; only runs that actually contain nonzero bytes
    (sync pseudo-ops, overlap-marked spans) fall back to the per-byte test.
    """
    if flags.count(0, lo, hi) == hi - lo:
        return 0
    count = 0
    for index in range(lo, hi):
        if flags[index] & mask:
            count += 1
    return count


@dataclass(slots=True)
class AccessResult:
    """Outcome of one instruction- or data-side memory access.

    Attributes
    ----------
    hit_latency:
        Cycles the access takes when it hits in the first-level structure
        (the L1 hit latency).
    penalty:
        Additional cycles beyond ``hit_latency`` caused by misses anywhere in
        the hierarchy (L1 miss, TLB walk, coherence transfer, L2 miss, DRAM
        queueing).  The interval model adds exactly this quantity to the
        per-core simulated time for miss events.
    l1_miss / l2_miss / tlb_miss / coherence_miss:
        Which structures missed.  ``l2_miss`` means the access left the chip
        (last-level cache miss); ``coherence_miss`` means the data came from
        another core's cache.
    """

    hit_latency: int = 1
    penalty: int = 0
    l1_miss: bool = False
    l2_miss: bool = False
    tlb_miss: bool = False
    coherence_miss: bool = False

    @property
    def total_latency(self) -> int:
        """Total access latency (hit latency plus miss penalty)."""
        return self.hit_latency + self.penalty

    @property
    def is_miss(self) -> bool:
        """``True`` when anything beyond the L1/TLB hit path was involved."""
        return self.l1_miss or self.tlb_miss

    @property
    def long_latency(self) -> bool:
        """Long-latency event per the paper: LLC miss or coherence miss.

        Long-latency loads are the events that fill the ROB and stall
        dispatch; D-TLB misses are treated the same way by the interval model
        (Section 2: "a last-level L2 D-cache load miss or a D-TLB load
        miss").
        """
        return self.l2_miss or self.coherence_miss or self.tlb_miss


class MemoryHierarchy:
    """Private L1s/TLBs per core, shared L2, MOESI coherence and DRAM.

    Parameters
    ----------
    config:
        The machine configuration (number of cores, cache geometries,
        coherence protocol, DRAM/bandwidth parameters and the idealization
        flags used by the Figure-4 study).
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        memory: MemoryConfig = config.memory
        perfect: PerfectStructures = config.perfect
        self._perfect = perfect
        num_cores = config.num_cores

        self.l1i: List[SetAssociativeCache] = [
            SetAssociativeCache(memory.l1i, name=f"core{core}.l1i", level=1)
            for core in range(num_cores)
        ]
        self.l1d: List[SetAssociativeCache] = [
            SetAssociativeCache(memory.l1d, name=f"core{core}.l1d", level=1)
            for core in range(num_cores)
        ]
        self.itlb: List[TLB] = [
            TLB(memory.itlb, name=f"core{core}.itlb") for core in range(num_cores)
        ]
        self.dtlb: List[TLB] = [
            TLB(memory.dtlb, name=f"core{core}.dtlb") for core in range(num_cores)
        ]
        self.l2: Optional[SetAssociativeCache] = (
            SetAssociativeCache(memory.l2, name="shared.l2", level=2)
            if memory.l2 is not None
            else None
        )
        # Per-core L1d coherence epochs: bumped by the coherence controller
        # whenever a *remote* request invalidates or downgrades a line in
        # that core's L1d.  The D-side memo below is only trusted while the
        # owning core's epoch is unchanged, which is what makes the memo
        # sound under coherence (the I-side commute argument does not
        # transfer to the data side — remote cores mutate L1d state).
        self._l1d_epoch: List[int] = [0] * num_cores
        self.coherence = CoherenceController(
            self.l1d, memory.coherence_protocol, epochs=self._l1d_epoch
        )
        self.dram = MainMemory(memory, line_size=memory.l1d.line_size)

        # Hot-path constants, hoisted out of the per-access attribute chains.
        self._perfect_itlb = perfect.itlb
        self._perfect_l1i = perfect.l1i
        self._perfect_dtlb = perfect.dtlb
        self._perfect_l1d = perfect.l1d
        self._perfect_l2 = perfect.l2
        self._l1i_hit_latency = memory.l1i.hit_latency
        self._l1d_hit_latency = memory.l1d.hit_latency
        self._itlb_miss_latency = memory.itlb.miss_latency
        self._dtlb_miss_latency = memory.dtlb.miss_latency
        self._l2_hit_latency = memory.l2.hit_latency if memory.l2 is not None else 0
        self._l1d_offset_bits = memory.l1d.line_size.bit_length() - 1

        # Fetch fast-path state (see instruction_probe): per-core memo of the
        # most recently fetched (I-cache line, I-TLB page).  A repeat fetch of
        # the same line+page is by construction a hit on the MRU way of both
        # structures, so the probe reduces to two counter increments.  The
        # memo is maintained exclusively by the I-side methods below; callers
        # that mutate ``l1i``/``itlb`` behind the hierarchy's back (e.g. a
        # manual ``flush()``) must call :meth:`reset_fetch_memo`.
        self._l1i_offset_bits = memory.l1i.line_size.bit_length() - 1
        self._itlb_page_shift = memory.itlb.page_size.bit_length() - 1
        self._fetch_memo_block: List[int] = [-1] * num_cores
        self._fetch_memo_page: List[int] = [-1] * num_cores
        # With the (universal) geometry of lines no larger than pages, two
        # fetches to the same I-cache line are necessarily on the same I-TLB
        # page, so the memo-hit test reduces to the block compare alone.
        self._fetch_block_implies_page = (
            self._itlb_page_shift >= self._l1i_offset_bits
        )

        # Data fast-path state (see data_probe): per-core memo of the most
        # recently accessed (L1d line, D-TLB page), the coherence epoch at
        # memo time and whether the memoized line was left in Modified state
        # (the only state in which a repeat *store* is penalty-free with no
        # state transition).  A repeat access to the same line+page while the
        # epoch is unchanged is by construction a hit on the MRU way of both
        # structures, so the probe reduces to two counter increments.  The
        # memo is maintained exclusively by data_probe; callers that mutate
        # ``l1d``/``dtlb`` behind the hierarchy's back (e.g. a manual
        # ``flush()``) must call :meth:`reset_data_memo`.
        self._dtlb_page_shift = memory.dtlb.page_size.bit_length() - 1
        self._data_memo_block: List[int] = [-1] * num_cores
        self._data_memo_page: List[int] = [-1] * num_cores
        self._data_memo_epoch: List[int] = [-1] * num_cores
        self._data_memo_writable: List[bool] = [False] * num_cores
        self._data_block_implies_page = (
            self._dtlb_page_shift >= self._l1d_offset_bits
        )

        # More hot-path constants: with a single coherent cache (or protocol
        # "NONE") every snoop trivially finds no remote sharers, so the data
        # path can skip the controller round trip and install the
        # no-remote-sharers state directly (keeping the controller's request
        # counters identical).
        self._trivial_snoop = self.coherence._trivial
        self._read_install_state = self.coherence.requester_read_state(
            SnoopResult()
        )

    @property
    def num_cores(self) -> int:
        """Number of cores the hierarchy serves."""
        return len(self.l1d)

    def fetch_line_runs(self, batch: "TraceBatch") -> Optional[Sequence[int]]:
        """The ``line_runs`` column batched fetch probes accept for ``batch``.

        Returns ``batch``'s
        :meth:`~repro.trace.columnar.TraceBatch.fetch_line_runs` column built
        with the L1i offset-bit count, which :meth:`access_block` /
        :meth:`warm_block` use to commit whole same-line runs at once, or
        ``None`` when the configuration rules that fast path out (an
        idealized I-side structure, or the degenerate geometry where a
        same-line repeat does not imply a same-page repeat).
        """
        if self._perfect_itlb or self._perfect_l1i:
            return None
        if not self._fetch_block_implies_page:
            return None
        return batch.fetch_line_runs(self._l1i_offset_bits)

    # -- instruction side ---------------------------------------------------------

    def instruction_access(self, core_id: int, pc: int, now: int = 0) -> AccessResult:
        """Access the I-TLB and L1 I-cache for a fetch at ``pc``.

        Instruction lines are read-only, so no coherence actions are needed;
        misses are served by the shared L2 and, beyond it, main memory.
        """
        self._check_core(core_id)
        result = self.instruction_probe(core_id, pc, now)
        if result is None:
            return AccessResult(hit_latency=self.config.memory.l1i.hit_latency)
        return result

    def instruction_probe(
        self, core_id: int, pc: int, now: int = 0
    ) -> Optional[AccessResult]:
        """Allocation-free fetch: ``None`` on a full hit, the miss otherwise.

        Identical in every observable effect (structure state, LRU order,
        statistics, DRAM bus reservations) to :meth:`instruction_access`, but
        the overwhelmingly common full-hit outcome materializes no
        :class:`AccessResult`.  Timing models that only need to know whether
        a fetch produced a miss event call this directly on the hot path.

        Assumes a valid ``core_id`` (the public :meth:`instruction_access`
        wrapper validates it).
        """
        perfect_itlb = self._perfect_itlb
        perfect_l1i = self._perfect_l1i

        if not perfect_itlb and not perfect_l1i:
            # Full model: memoized fast path for a repeat fetch of the MRU
            # line (same line implies same page) — two hits whose LRU updates
            # are no-ops.
            if pc >> self._l1i_offset_bits == self._fetch_memo_block[core_id] and (
                self._fetch_block_implies_page
                or pc >> self._itlb_page_shift == self._fetch_memo_page[core_id]
            ):
                self.itlb[core_id].stats.accesses += 1
                self.l1i[core_id].stats.accesses += 1
                return None

        tlb_missed = False
        if not perfect_itlb:
            tlb_missed = not self.itlb[core_id].access(pc)

        if perfect_l1i:
            if not tlb_missed:
                return None
            result = AccessResult(self._l1i_hit_latency)
            result.tlb_miss = True
            result.penalty = self._itlb_miss_latency
            return result

        cache = self.l1i[core_id]
        if cache.lookup(pc) is not None:
            if not perfect_itlb:
                # Both structures now hold pc's line/page as MRU (the TLB
                # fills on a miss), so the memo is valid either way.
                self._fetch_memo_block[core_id] = pc >> self._l1i_offset_bits
                self._fetch_memo_page[core_id] = pc >> self._itlb_page_shift
            if not tlb_missed:
                return None
            result = AccessResult(self._l1i_hit_latency)
            result.tlb_miss = True
            result.penalty = self._itlb_miss_latency
            return result

        result = AccessResult(self._l1i_hit_latency)
        if tlb_missed:
            result.tlb_miss = True
            result.penalty = self._itlb_miss_latency
        result.l1_miss = True
        result.penalty += self._fill_from_shared_levels(
            core_id, pc, now, result, is_instruction=True
        )
        cache.fill(pc, CoherenceState.EXCLUSIVE)
        if not perfect_itlb:
            self._fetch_memo_block[core_id] = pc >> self._l1i_offset_bits
            self._fetch_memo_page[core_id] = pc >> self._itlb_page_shift
        return result

    def access_block(
        self,
        core_id: int,
        addresses: Sequence[int],
        start: int = 0,
        stop: Optional[int] = None,
        flags: Optional[bytearray] = None,
        flag_mask: int = 0,
        line_runs: Optional[Sequence[int]] = None,
    ) -> int:
        """Batched fetch probe: commit hits in order, stop at the miss event.

        Performs the instruction-side hit path for ``addresses[start:stop]``
        in order and returns the index of the first access that would miss in
        the I-TLB or the L1 I-cache — the next miss event — *without touching
        any structure for that access* (the caller charges it through
        :meth:`instruction_probe` at the correct simulated time).  Returns
        ``stop`` when every access hits.  Entries whose ``flags`` byte
        intersects ``flag_mask`` are skipped entirely (the interval kernel
        uses this for fetches already performed underneath an earlier
        long-latency load).

        Per-call dispatch overhead is paid once per *block* instead of once
        per instruction, which is what lets the interval kernel charge a whole
        inter-miss interval in one step.

        ``line_runs``, when provided, must be this hierarchy's
        :meth:`fetch_line_runs` column of the batch whose ``pc`` column is
        ``addresses`` — each whole same-line run of memo hits then commits
        as one arithmetic step, so the probe costs O(line transitions)
        instead of O(instructions).  Ignored for configurations
        :meth:`fetch_line_runs` rules out.
        """
        if stop is None:
            stop = len(addresses)
        check_tlb = not self._perfect_itlb
        check_l1 = not self._perfect_l1i
        if not check_tlb and not check_l1:
            return stop

        tlb = self.itlb[core_id]
        cache = self.l1i[core_id]
        tlb_stats = tlb.stats
        cache_stats = cache.stats
        memo_block = self._fetch_memo_block
        memo_page = self._fetch_memo_page
        offset_bits = self._l1i_offset_bits
        page_shift = self._itlb_page_shift

        index = start
        if check_tlb and check_l1:
            last_block = memo_block[core_id]
            last_page = memo_page[core_id]
            # Memo-path hits are counted locally and flushed once per block
            # (totals are only observed between hierarchy calls).  The
            # flag-free run-column caller (no sync positions in range) gets
            # a loop without the per-position flag test.
            memo_hits = 0
            if line_runs is not None and self._fetch_block_implies_page:
                # Run-column fast path: every position in [index,
                # line_runs[index]) shares position index's line, so after
                # the per-line transition probe the rest of the run is memo
                # hits committed arithmetically.
                if flags is None:
                    while index < stop:
                        pc = addresses[index]
                        block = pc >> offset_bits
                        end = line_runs[index]
                        if end > stop:
                            end = stop
                        if block == last_block:
                            memo_hits += end - index
                            index = end
                            continue
                        if not tlb.probe(pc) or cache.probe(pc) is None:
                            break
                        tlb.access(pc)
                        cache.lookup(pc)
                        last_block = block
                        last_page = pc >> page_shift
                        memo_hits += end - index - 1
                        index = end
                else:
                    while index < stop:
                        if flags[index] & flag_mask:
                            index += 1
                            continue
                        pc = addresses[index]
                        block = pc >> offset_bits
                        end = line_runs[index]
                        if end > stop:
                            end = stop
                        if block == last_block:
                            memo_hits += (end - index) - _count_flagged(
                                flags, index, end, flag_mask
                            )
                            index = end
                            continue
                        if not tlb.probe(pc) or cache.probe(pc) is None:
                            break
                        tlb.access(pc)
                        cache.lookup(pc)
                        last_block = block
                        last_page = pc >> page_shift
                        memo_hits += (end - index - 1) - _count_flagged(
                            flags, index + 1, end, flag_mask
                        )
                        index = end
            else:
                # Per-position probe: a repeat of the memo's line and page is
                # a memo hit (the page compare matters only in the degenerate
                # geometry where lines are larger than pages).
                while index < stop:
                    if flags is not None and flags[index] & flag_mask:
                        index += 1
                        continue
                    pc = addresses[index]
                    block = pc >> offset_bits
                    page = pc >> page_shift
                    if block == last_block and page == last_page:
                        memo_hits += 1
                        index += 1
                        continue
                    # Transition to a new line/page: peek both structures
                    # first so a would-miss access leaves no trace for the
                    # caller to redo.
                    if not tlb.probe(pc) or cache.probe(pc) is None:
                        break
                    tlb.access(pc)
                    cache.lookup(pc)
                    last_block = block
                    last_page = page
                    index += 1
            if memo_hits:
                tlb_stats.accesses += memo_hits
                cache_stats.accesses += memo_hits
            memo_block[core_id] = last_block
            memo_page[core_id] = last_page
            return index

        # Idealization studies (perfect L1i or perfect I-TLB): only one
        # structure is live, no memo.
        while index < stop:
            if flags is not None and flags[index] & flag_mask:
                index += 1
                continue
            pc = addresses[index]
            if check_tlb:
                if not tlb.probe(pc):
                    break
                tlb.access(pc)
            if check_l1:
                if cache.probe(pc) is None:
                    break
                cache.lookup(pc)
            index += 1
        return index

    def warm_block(
        self,
        core_id: int,
        addresses: Sequence[int],
        start: int = 0,
        stop: Optional[int] = None,
        now: int = 0,
        flags: Optional[bytearray] = None,
        flag_mask: int = 0,
        line_runs: Optional[Sequence[int]] = None,
    ) -> int:
        """Batched fetch that *completes* misses; returns accesses performed.

        Like :meth:`access_block` but misses are serviced in place (fill from
        the shared levels at time ``now``) instead of stopping the block —
        the access pattern functional warm-up and the overlap scan need,
        where the miss latency is not charged to anyone.  Entries whose
        ``flags`` byte intersects ``flag_mask`` are skipped.  ``line_runs``
        has :meth:`access_block` semantics: the hierarchy's
        :meth:`fetch_line_runs` column turns whole same-line runs into
        arithmetic commits.
        """
        if stop is None:
            stop = len(addresses)
        probe = self.instruction_probe
        performed = 0
        full_model = not self._perfect_itlb and not self._perfect_l1i
        if full_model and line_runs is not None and self._fetch_block_implies_page:
            # Run-column fast path (see access_block): one probe per line
            # transition, the rest of each run is memo hits.  instruction_probe
            # leaves the memo pointing at the line it serviced, so the live
            # memo compare below matches the per-position reference exactly.
            tlb_stats = self.itlb[core_id].stats
            cache_stats = self.l1i[core_id].stats
            memo_block = self._fetch_memo_block
            offset_bits = self._l1i_offset_bits
            memo_hits = 0
            index = start
            if flags is None:
                while index < stop:
                    pc = addresses[index]
                    end = line_runs[index]
                    if end > stop:
                        end = stop
                    if pc >> offset_bits == memo_block[core_id]:
                        memo_hits += end - index
                    else:
                        probe(core_id, pc, now)
                        memo_hits += end - index - 1
                    performed += end - index
                    index = end
            else:
                while index < stop:
                    if flags[index] & flag_mask:
                        index += 1
                        continue
                    pc = addresses[index]
                    end = line_runs[index]
                    if end > stop:
                        end = stop
                    span = (end - index) - _count_flagged(
                        flags, index, end, flag_mask
                    )
                    if pc >> offset_bits == memo_block[core_id]:
                        memo_hits += span
                    else:
                        probe(core_id, pc, now)
                        memo_hits += span - 1
                    performed += span
                    index = end
            if memo_hits:
                tlb_stats.accesses += memo_hits
                cache_stats.accesses += memo_hits
            return performed
        if full_model:
            # Inline the MRU line/page memo so repeat fetches cost only the
            # counter updates (the dominant case inside a warmed block);
            # memo-path hits are flushed to the counters once per block.
            tlb_stats = self.itlb[core_id].stats
            cache_stats = self.l1i[core_id].stats
            memo_block = self._fetch_memo_block
            memo_page = self._fetch_memo_page
            offset_bits = self._l1i_offset_bits
            page_shift = self._itlb_page_shift
            memo_hits = 0
            implies_page = self._fetch_block_implies_page
            for index in range(start, stop):
                if flags is not None and flags[index] & flag_mask:
                    continue
                pc = addresses[index]
                if pc >> offset_bits == memo_block[core_id] and (
                    implies_page or pc >> page_shift == memo_page[core_id]
                ):
                    memo_hits += 1
                else:
                    probe(core_id, pc, now)
                performed += 1
            if memo_hits:
                tlb_stats.accesses += memo_hits
                cache_stats.accesses += memo_hits
            return performed
        for index in range(start, stop):
            if flags is not None and flags[index] & flag_mask:
                continue
            probe(core_id, addresses[index], now)
            performed += 1
        return performed

    def reset_fetch_memo(self) -> None:
        """Invalidate the fetch fast-path memo (after external L1i/I-TLB edits)."""
        num_cores = self.num_cores
        self._fetch_memo_block = [-1] * num_cores
        self._fetch_memo_page = [-1] * num_cores

    def reset_data_memo(self) -> None:
        """Invalidate the data fast-path memo (after external L1d/D-TLB edits)."""
        num_cores = self.num_cores
        self._data_memo_block = [-1] * num_cores
        self._data_memo_page = [-1] * num_cores
        self._data_memo_epoch = [-1] * num_cores
        self._data_memo_writable = [False] * num_cores

    # -- data side ----------------------------------------------------------------

    def data_access(
        self, core_id: int, address: int, is_write: bool, now: int = 0
    ) -> AccessResult:
        """Access the D-TLB and L1 D-cache for a load or store.

        Stores need ownership of the line (MOESI Modified state) and
        invalidate remote copies; loads may be satisfied by a cache-to-cache
        transfer from another core (a coherence miss, treated as a
        long-latency event by the timing models).
        """
        self._check_core(core_id)
        result = self.data_probe(core_id, address, is_write, now)
        if result is None:
            return AccessResult(hit_latency=self.config.memory.l1d.hit_latency)
        return result

    def data_probe(
        self, core_id: int, address: int, is_write: bool, now: int = 0
    ) -> Optional[AccessResult]:
        """Allocation-free data access: ``None`` on a penalty-free hit.

        Identical in every observable effect (cache/TLB/coherence state, LRU
        order, statistics, DRAM bus reservations) to :meth:`data_access`, but
        the common hit-without-penalty outcome materializes no
        :class:`AccessResult`.  Assumes a valid ``core_id``.

        Repeat accesses to the most recently touched line take a memoized
        fast path: both structures hold the line/page as MRU, so the access
        is two counter increments — but only while this core's coherence
        epoch is unchanged (no remote invalidation or downgrade has touched
        its L1d since the memo was written) and, for stores, only when the
        memoized line was left in Modified state (the one state where a
        repeat store is penalty-free and transition-free).
        """
        perfect_dtlb = self._perfect_dtlb
        full_model = not perfect_dtlb and not self._perfect_l1d
        block = address >> self._l1d_offset_bits
        if full_model:
            # Full model: memoized fast path for a repeat access to the MRU
            # line (same line implies same page) — two hits whose LRU updates
            # are no-ops.
            if (
                block == self._data_memo_block[core_id]
                and self._data_memo_epoch[core_id] == self._l1d_epoch[core_id]
                and (not is_write or self._data_memo_writable[core_id])
                and (
                    self._data_block_implies_page
                    or address >> self._dtlb_page_shift
                    == self._data_memo_page[core_id]
                )
            ):
                self.dtlb[core_id].stats.accesses += 1
                self.l1d[core_id].stats.accesses += 1
                return None
        page = address >> self._dtlb_page_shift

        tlb_missed = not perfect_dtlb and not self.dtlb[core_id].access(address)

        if self._perfect_l1d:
            if not tlb_missed:
                return None
            result = AccessResult(self._l1d_hit_latency)
            result.tlb_miss = True
            result.penalty = self._dtlb_miss_latency
            return result

        cache = self.l1d[core_id]
        line_address = block << self._l1d_offset_bits
        state = cache.lookup(line_address)
        trivial_snoop = self._trivial_snoop
        coh_stats = self.coherence.stats

        if state is not None:
            upgrade_penalty = 0
            if is_write and state != _ST_MODIFIED:
                if state == _ST_SHARED or state == _ST_OWNED:
                    # Upgrade: invalidate remote copies before writing.
                    if trivial_snoop:
                        coh_stats.write_requests += 1
                        coh_stats.upgrades += 1
                    else:
                        snoop = self.coherence.write_request(
                            core_id, line_address, already_resident=True
                        )
                        if snoop.invalidations:
                            upgrade_penalty = _CACHE_TO_CACHE_OVERHEAD
                            link_faults = self.coherence.link_faults
                            if link_faults is not None:
                                upgrade_penalty += link_faults.transfer_extra(
                                    _CACHE_TO_CACHE_OVERHEAD, now, core_id
                                )
                state = _ST_MODIFIED
                cache.set_state(line_address, state)
            if full_model:
                # The line (and, after a fill, the page) is now MRU in both
                # structures; the memo is valid until the next remote
                # coherence action bumps this core's epoch.
                self._data_memo_block[core_id] = block
                self._data_memo_page[core_id] = page
                self._data_memo_epoch[core_id] = self._l1d_epoch[core_id]
                self._data_memo_writable[core_id] = state == _ST_MODIFIED
            if not tlb_missed and upgrade_penalty == 0:
                return None
            result = AccessResult(self._l1d_hit_latency)
            if tlb_missed:
                result.tlb_miss = True
                result.penalty = self._dtlb_miss_latency
            result.penalty += upgrade_penalty
            return result

        # L1 miss: consult the coherence protocol first.
        result = AccessResult(self._l1d_hit_latency)
        if tlb_missed:
            result.tlb_miss = True
            result.penalty = self._dtlb_miss_latency
        result.l1_miss = True
        supplied_by_cache = False
        if trivial_snoop:
            # No remote sharers possible: skip the controller round trip but
            # keep its request counters identical.
            if is_write:
                coh_stats.write_requests += 1
                install_state = _ST_MODIFIED
            else:
                coh_stats.read_requests += 1
                install_state = self._read_install_state
        elif is_write:
            snoop = self.coherence.write_request(
                core_id, line_address, already_resident=False
            )
            supplied_by_cache = snoop.supplied_by_cache
            install_state = _ST_MODIFIED
        else:
            snoop = self.coherence.read_request(core_id, line_address)
            supplied_by_cache = snoop.supplied_by_cache
            install_state = self.coherence.requester_read_state(snoop)

        if supplied_by_cache:
            # Cache-to-cache transfer across the on-chip interconnect.
            result.coherence_miss = True
            transfer_overhead = _CACHE_TO_CACHE_OVERHEAD
            link_faults = self.coherence.link_faults
            if link_faults is not None:
                transfer_overhead += link_faults.transfer_extra(
                    _CACHE_TO_CACHE_OVERHEAD, now, core_id
                )
            result.penalty += self._l2_hit_latency + transfer_overhead
        elif self._perfect_l2:
            result.penalty += self._l2_hit_latency
        else:
            # Inlined shared-level fill: look up the L2 and, on a miss, go
            # off-chip (same logic as _fill_from_shared_levels).
            l2 = self.l2
            if l2 is not None:
                if l2.lookup(line_address) is not None:
                    result.penalty += self._l2_hit_latency
                else:
                    result.l2_miss = True
                    result.penalty += self._l2_hit_latency + self.dram.access(
                        now, core_id
                    )
                    l2.fill(line_address, _ST_EXCLUSIVE)
            else:
                # No L2 (3D-stacked configuration): straight to DRAM.
                result.l2_miss = True
                result.penalty += self.dram.access(now, core_id)

        victim = cache.fill(line_address, install_state)
        # Dirty (Modified/Owned) states sort above the clean ones.
        if victim is not None and victim >= _ST_OWNED:
            coh_stats.writebacks += 1
        if full_model:
            self._data_memo_block[core_id] = block
            self._data_memo_page[core_id] = page
            self._data_memo_epoch[core_id] = self._l1d_epoch[core_id]
            self._data_memo_writable[core_id] = install_state == _ST_MODIFIED
        return result

    def warm_data(self, core_id: int, address: int, is_write: bool) -> None:
        """Functional-warming data access: state effects only, no timing.

        Performs exactly the cache/TLB/coherence state transitions, LRU
        updates and statistics of :meth:`data_probe` but materializes no
        :class:`AccessResult`, computes no penalties and skips the DRAM bus
        reservation — functional warm-up discards the penalty and resets the
        DRAM model afterwards (:meth:`MainMemory.reset`), so neither is
        observable.  ``tests/memory`` pins the state equivalence against
        :meth:`data_probe`.
        """
        perfect_dtlb = self._perfect_dtlb
        full_model = not perfect_dtlb and not self._perfect_l1d
        block = address >> self._l1d_offset_bits
        if full_model:
            if (
                block == self._data_memo_block[core_id]
                and self._data_memo_epoch[core_id] == self._l1d_epoch[core_id]
                and (not is_write or self._data_memo_writable[core_id])
                and (
                    self._data_block_implies_page
                    or address >> self._dtlb_page_shift
                    == self._data_memo_page[core_id]
                )
            ):
                self.dtlb[core_id].stats.accesses += 1
                self.l1d[core_id].stats.accesses += 1
                return
        page = address >> self._dtlb_page_shift

        if not perfect_dtlb:
            self.dtlb[core_id].access(address)

        if self._perfect_l1d:
            return

        cache = self.l1d[core_id]
        line_address = block << self._l1d_offset_bits
        state = cache.lookup(line_address)
        coh_stats = self.coherence.stats
        trivial_snoop = self._trivial_snoop

        if state is not None:
            if is_write and state != _ST_MODIFIED:
                if state == _ST_SHARED or state == _ST_OWNED:
                    if trivial_snoop:
                        coh_stats.write_requests += 1
                        coh_stats.upgrades += 1
                    else:
                        self.coherence.write_request(
                            core_id, line_address, already_resident=True
                        )
                state = _ST_MODIFIED
                cache.set_state(line_address, state)
            if full_model:
                self._data_memo_block[core_id] = block
                self._data_memo_page[core_id] = page
                self._data_memo_epoch[core_id] = self._l1d_epoch[core_id]
                self._data_memo_writable[core_id] = state == _ST_MODIFIED
            return

        supplied_by_cache = False
        if trivial_snoop:
            if is_write:
                coh_stats.write_requests += 1
                install_state = _ST_MODIFIED
            else:
                coh_stats.read_requests += 1
                install_state = self._read_install_state
        elif is_write:
            snoop = self.coherence.write_request(
                core_id, line_address, already_resident=False
            )
            supplied_by_cache = snoop.supplied_by_cache
            install_state = _ST_MODIFIED
        else:
            snoop = self.coherence.read_request(core_id, line_address)
            supplied_by_cache = snoop.supplied_by_cache
            install_state = self.coherence.requester_read_state(snoop)

        if not supplied_by_cache and not self._perfect_l2:
            l2 = self.l2
            if l2 is not None and l2.lookup(line_address) is None:
                l2.fill(line_address, _ST_EXCLUSIVE)

        victim = cache.fill(line_address, install_state)
        if victim is not None and victim >= _ST_OWNED:
            coh_stats.writebacks += 1
        if full_model:
            self._data_memo_block[core_id] = block
            self._data_memo_page[core_id] = page
            self._data_memo_epoch[core_id] = self._l1d_epoch[core_id]
            self._data_memo_writable[core_id] = install_state == _ST_MODIFIED

    # -- fault injection -----------------------------------------------------------

    def fault_victim_line(self, core_id: int, level: str) -> Optional[int]:
        """Line address of ``core_id``'s MRU line at ``level``, or ``None``.

        Adversarial targeting for the fault injector: the most recently
        accessed line (read off the fetch/data memos, which both the fast
        and per-access reference paths maintain identically) is exactly the
        line a live memo depends on.  Returns ``None``
        while the memo is cold.
        """
        if level == "l1i":
            block = self._fetch_memo_block[core_id]
            return None if block < 0 else block << self._l1i_offset_bits
        block = self._data_memo_block[core_id]
        return None if block < 0 else block << self._l1d_offset_bits

    def fault_drop_line(self, core_id: int, address: int, level: str = "l1d") -> int:
        """Drop one line from ``core_id``'s cache at ``level`` (fault event).

        The line is removed from its set
        (:meth:`~repro.memory.cache.SetAssociativeCache.drop_line`), and
        the bookkeeping that made the line's residency observable without a
        probe is invalidated the same way a remote coherence action would
        invalidate it: an L1d drop bumps the core's coherence epoch (so the
        D-side memo no longer vouches for the line); an L1i drop resets the
        core's fetch memo.  Returns the number of lines actually dropped (0
        or 1) — the forced-refetch count.
        """
        if level == "l1i":
            dropped = 1 if self.l1i[core_id].drop_line(address) else 0
            self._fetch_memo_block[core_id] = -1
            self._fetch_memo_page[core_id] = -1
            return dropped
        if level == "l2":
            if self.l2 is not None and self.l2.drop_line(address):
                return 1
            return 0
        dropped = 1 if self.l1d[core_id].drop_line(address) else 0
        self._l1d_epoch[core_id] += 1
        return dropped

    def fault_corrupt_line(self, address: int, level: str = "l1d") -> int:
        """Corrupt a line everywhere it is cached (fault event).

        Corruption is modeled as loss of every copy at the target level
        *and* the shared L2, so the next access refetches from DRAM.  Every
        core's epoch (L1d) or fetch memo (L1i) is perturbed unconditionally
        — the corruption event hits the whole chip's control plane, which
        is the adversarial case for the memo fast paths.  Returns the
        number of lines dropped across all caches.
        """
        dropped = 0
        if level == "l1i":
            for core_id, cache in enumerate(self.l1i):
                if cache.drop_line(address):
                    dropped += 1
                self._fetch_memo_block[core_id] = -1
                self._fetch_memo_page[core_id] = -1
        elif level == "l1d":
            for core_id, cache in enumerate(self.l1d):
                if cache.drop_line(address):
                    dropped += 1
                self._l1d_epoch[core_id] += 1
        if self.l2 is not None and self.l2.drop_line(address):
            dropped += 1
        return dropped

    # -- shared levels -------------------------------------------------------------

    def _fill_from_shared_levels(
        self,
        core_id: int,
        line_address: int,
        now: int,
        result: AccessResult,
        is_instruction: bool,
    ) -> int:
        """Look up the shared L2 and, on a miss, main memory.

        Returns the penalty (cycles beyond the L1 hit latency) and updates
        ``result.l2_miss``.  Honors the "perfect L2" idealization flag by
        charging only the L2 hit latency and never going off-chip.
        """
        if self._perfect_l2:
            return self._l2_hit_latency

        l2 = self.l2
        if l2 is not None:
            if l2.lookup(line_address) is not None:
                return self._l2_hit_latency
            # L2 miss: go off-chip, then fill the L2.
            result.l2_miss = True
            dram_latency = self.dram.access(now, core_id)
            l2.fill(line_address, CoherenceState.EXCLUSIVE)
            return self._l2_hit_latency + dram_latency

        # No L2 (Figure-8 3D-stacked configuration): straight to DRAM.
        result.l2_miss = True
        return self.dram.access(now, core_id)

    # -- bookkeeping ----------------------------------------------------------------

    def _check_core(self, core_id: int) -> None:
        """Validate a core identifier."""
        if not 0 <= core_id < self.num_cores:
            raise ValueError(
                f"core_id {core_id} out of range for {self.num_cores} cores"
            )

    def collect_stats(self) -> Dict[str, int]:
        """Aggregate hierarchy-level statistics for reporting."""
        stats: Dict[str, int] = {
            "l1i_accesses": sum(c.stats.accesses for c in self.l1i),
            "l1i_misses": sum(c.stats.misses for c in self.l1i),
            "l1d_accesses": sum(c.stats.accesses for c in self.l1d),
            "l1d_misses": sum(c.stats.misses for c in self.l1d),
            "itlb_misses": sum(t.stats.misses for t in self.itlb),
            "dtlb_misses": sum(t.stats.misses for t in self.dtlb),
            "dram_accesses": self.dram.stats.accesses,
            "dram_queue_delay": self.dram.stats.total_queue_delay,
            "coherence_transfers": self.coherence.stats.cache_to_cache_transfers,
            "coherence_invalidations": self.coherence.stats.invalidations_sent,
        }
        if self.l2 is not None:
            stats["l2_accesses"] = self.l2.stats.accesses
            stats["l2_misses"] = self.l2.stats.misses
        return stats
