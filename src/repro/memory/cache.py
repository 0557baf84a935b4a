"""Set-associative cache model with per-line coherence state.

All caches in the hierarchy (private L1 instruction/data caches and the
shared L2) are instances of :class:`SetAssociativeCache`.  Lines carry a
MOESI coherence state so the same structure serves both the coherent private
data caches and the non-coherent instruction caches (which simply keep their
lines in the Exclusive state).

Replacement policy is true LRU, implemented with an ordered list per set
(most-recently-used last); the cache sizes of Table 1 keep the per-set lists
short (4–8 ways), so the list operations are cheap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..common.config import CacheConfig

__all__ = ["CoherenceState", "CacheLine", "CacheStats", "SetAssociativeCache"]


class CoherenceState(enum.IntEnum):
    """MOESI coherence states (plus Invalid)."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    OWNED = 3
    MODIFIED = 4

    @property
    def is_valid(self) -> bool:
        """``True`` for any state other than Invalid."""
        return self != CoherenceState.INVALID

    @property
    def can_supply(self) -> bool:
        """``True`` when a cache in this state must supply data to requestors.

        In MOESI, the Owned and Modified states hold the only up-to-date copy
        (memory may be stale), so they answer snoop requests with data.
        Exclusive may also supply (clean data) as an optimization.
        """
        return self in (CoherenceState.MODIFIED, CoherenceState.OWNED, CoherenceState.EXCLUSIVE)

    @property
    def is_dirty(self) -> bool:
        """``True`` when this copy differs from memory."""
        return self in (CoherenceState.MODIFIED, CoherenceState.OWNED)


@dataclass(slots=True)
class CacheLine:
    """One cache line: address tag plus MOESI state.

    ``CoherenceState.INVALID`` is zero, so hot paths test validity with the
    state's truthiness instead of the :attr:`valid` property chain.
    """

    tag: int
    state: CoherenceState = CoherenceState.EXCLUSIVE

    @property
    def valid(self) -> bool:
        """``True`` unless the line is Invalid."""
        return self.state.is_valid


@dataclass
class CacheStats:
    """Per-cache access statistics."""

    accesses: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    coherence_downgrades: int = 0

    @property
    def hits(self) -> int:
        """Number of accesses that hit."""
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per access."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.invalidations_received = 0
        self.coherence_downgrades = 0


class SetAssociativeCache:
    """A set-associative cache with LRU replacement and MOESI line states.

    The cache stores only tags and states (no data), which is all a timing
    simulator needs.  The coherence controller (:mod:`repro.memory.coherence`)
    applies its transitions directly to the lines :meth:`probe` returns,
    counting each one in :attr:`stats` (``invalidations_received``,
    ``coherence_downgrades``).  An L1d the controller adopts
    (:meth:`track_sharers`) also keeps the controller's sharer map current
    on every :meth:`fill`.
    """

    def __init__(self, config: CacheConfig, name: str = "cache", level: int = 1) -> None:
        self.config = config
        self.name = name
        self.level = level
        self.stats = CacheStats()
        self._offset_bits = config.line_size.bit_length() - 1
        self._num_sets = config.num_sets
        # Per-set line lists, allocated lazily on first fill: a shared L2 has
        # thousands of sets, most never touched in short simulations.
        self._sets: List[Optional[List[CacheLine]]] = [None] * self._num_sets
        # Sharer map (block number -> core bitmask) of the coherence
        # controller that adopted this cache (see track_sharers), and this
        # cache's bit in it; None otherwise.
        self._sharers: Optional[Dict[int, int]] = None
        self._sharer_bit = 0

    # -- address helpers ---------------------------------------------------------

    def line_address(self, address: int) -> int:
        """Return the line-aligned address containing ``address``."""
        return address >> self._offset_bits << self._offset_bits

    def _index_tag(self, address: int) -> Tuple[int, int]:
        """Split an address into (set index, tag)."""
        block = address >> self._offset_bits
        return block % self._num_sets, block // self._num_sets

    # -- lookup / fill -----------------------------------------------------------

    def probe(self, address: int) -> Optional[CacheLine]:
        """Look up a line without updating LRU order or statistics."""
        block = address >> self._offset_bits
        tag = block // self._num_sets
        entry_set = self._sets[block % self._num_sets]
        if entry_set:
            # Scan MRU-first (sets keep MRU last): hits cluster at the hot end.
            for line in reversed(entry_set):
                if line.tag == tag and line.state:
                    return line
        return None

    def lookup(self, address: int, count_access: bool = True) -> Optional[CacheLine]:
        """Look up a line, updating LRU order and (optionally) statistics.

        Returns the :class:`CacheLine` on a hit, or ``None`` on a miss.
        """
        block = address >> self._offset_bits
        tag = block // self._num_sets
        entry_set = self._sets[block % self._num_sets]
        if count_access:
            self.stats.accesses += 1
        if entry_set:
            # Scan MRU-first (sets keep MRU last): hits cluster at the hot end.
            position = len(entry_set) - 1
            last = position
            while position >= 0:
                line = entry_set[position]
                if line.tag == tag and line.state:
                    # Move to MRU (a no-op when the line already is MRU).
                    if position != last:
                        entry_set.append(entry_set.pop(position))
                    return line
                position -= 1
        if count_access:
            self.stats.misses += 1
        return None

    def fill(
        self, address: int, state: CoherenceState = CoherenceState.EXCLUSIVE
    ) -> Optional[CacheLine]:
        """Insert a line after a miss; returns the evicted line, if any.

        The evicted line is returned so the caller can issue a write-back when
        it is dirty (Modified/Owned).  On an adopted cache the filled line's
        sharer bit is set and the evicted line's bit cleared.
        """
        block = address >> self._offset_bits
        tag = block // self._num_sets
        index = block % self._num_sets
        entry_set = self._sets[index]
        if entry_set is None:
            entry_set = self._sets[index] = []
        sharers = self._sharers
        if sharers is not None:
            sharers[block] = sharers.get(block, 0) | self._sharer_bit
        # One pass resolves both questions: an existing (possibly invalid)
        # line with this tag, and otherwise the first invalid line to reuse.
        invalid_at = -1
        last = len(entry_set) - 1
        for position in range(last + 1):
            line = entry_set[position]
            if line.tag == tag:
                # Refill of an existing (possibly invalid) line.
                line.state = state
                if position != last:
                    entry_set.append(entry_set.pop(position))
                return None
            if invalid_at < 0 and not line.state:
                invalid_at = position
        victim: Optional[CacheLine] = None
        if last + 1 >= self.config.associativity:
            # Prefer evicting an invalid line.
            if invalid_at >= 0:
                entry_set.pop(invalid_at)
            else:
                victim = entry_set.pop(0)
                self.stats.evictions += 1
                # Dirty (Modified/Owned) states sort above the clean ones.
                if victim.state >= CoherenceState.OWNED:
                    self.stats.writebacks += 1
                if sharers is not None:
                    victim_block = victim.tag * self._num_sets + index
                    remaining = sharers.get(victim_block, 0) & ~self._sharer_bit
                    if remaining:
                        sharers[victim_block] = remaining
                    else:
                        sharers.pop(victim_block, None)
        entry_set.append(CacheLine(tag=tag, state=state))
        return victim

    def fill_cold(
        self, address: int, state: CoherenceState = CoherenceState.EXCLUSIVE
    ) -> Optional[CacheLine]:
        """:meth:`fill` for a cache that can hold neither the tag nor invalid
        lines.

        Callers must have just verified the miss (so no *valid* same-tag line
        exists) on a cache whose lines are never invalidated or mutated
        behind its back — the I-side caches and the shared L2 (coherence only
        touches the L1 data caches), and the L1d itself when no other cache
        can snoop it.  Under that invariant the same-tag/invalid scans of
        :meth:`fill` are dead code and the fill is a straight evict-append.
        """
        block = address >> self._offset_bits
        tag = block // self._num_sets
        index = block % self._num_sets
        entry_set = self._sets[index]
        if entry_set is None:
            entry_set = self._sets[index] = []
        victim: Optional[CacheLine] = None
        if len(entry_set) >= self.config.associativity:
            victim = entry_set.pop(0)
            self.stats.evictions += 1
            # Dirty (Modified/Owned) states sort above the clean ones.
            if victim.state >= CoherenceState.OWNED:
                self.stats.writebacks += 1
        entry_set.append(CacheLine(tag=tag, state=state))
        return victim

    # -- coherence hooks ---------------------------------------------------------

    def track_sharers(self, sharers: Dict[int, int], bit: int) -> None:
        """Keep ``bit`` of ``sharers[block]`` set for every resident line.

        ``block`` is the line address shifted right by the offset bits.
        Called by the coherence controller that owns this L1d.  The map is
        seeded from the lines resident now; from then on :meth:`fill` sets
        the bit of the line it installs and clears the bit of the line it
        evicts, and the controller clears the bits of the copies it
        invalidates.  Lines that leave the cache any other way
        (:meth:`drop_line`, :meth:`flush`, a direct :meth:`invalidate_line`)
        leave a stale bit behind, which costs the controller one probe that
        misses and clears it.  The cache must not be filled through
        :meth:`fill_cold` afterwards.
        """
        self._sharers = sharers
        self._sharer_bit = bit
        for index, line in self.resident_lines():
            block = line.tag * self._num_sets + index
            sharers[block] = sharers.get(block, 0) | bit

    def set_state(self, address: int, state: CoherenceState) -> bool:
        """Set the coherence state of a resident line; returns ``True`` if found."""
        line = self.probe(address)
        if line is None:
            return False
        line.state = state
        return True

    def invalidate_line(self, address: int) -> bool:
        """Invalidate a line if present (snoop-invalidate); returns ``True`` if hit."""
        line = self.probe(address)
        if line is None:
            return False
        line.state = CoherenceState.INVALID
        self.stats.invalidations_received += 1
        return True

    def drop_line(self, address: int) -> bool:
        """Remove a line from its set entirely; returns ``True`` if present.

        Fault-injection hook: unlike :meth:`invalidate_line` (which leaves
        an INVALID husk occupying its way — fine for the coherent L1d, whose
        fills tolerate invalid same-tag lines) this frees the way, so it is
        safe on caches filled through :meth:`fill_cold` (the I-side caches
        and the shared L2, whose invariant forbids invalid same-tag
        residents).  The LRU order of the surviving lines is preserved and
        no statistics are touched — the next access simply misses, exactly
        as if the line had never been fetched.
        """
        block = address >> self._offset_bits
        tag = block // self._num_sets
        entry_set = self._sets[block % self._num_sets]
        if entry_set:
            for position in range(len(entry_set) - 1, -1, -1):
                line = entry_set[position]
                if line.tag == tag and line.state:
                    del entry_set[position]
                    return True
        return False

    def downgrade_line(self, address: int) -> bool:
        """Downgrade M/E → O/S on a remote read snoop; returns ``True`` if hit."""
        line = self.probe(address)
        if line is None or not line.valid:
            return False
        if line.state == CoherenceState.MODIFIED:
            line.state = CoherenceState.OWNED
        elif line.state == CoherenceState.EXCLUSIVE:
            line.state = CoherenceState.SHARED
        self.stats.coherence_downgrades += 1
        return True

    # -- inspection --------------------------------------------------------------

    def resident_lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield (set index, line) for every valid resident line."""
        for index, entry_set in enumerate(self._sets):
            if not entry_set:
                continue
            for line in entry_set:
                if line.valid:
                    yield index, line

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(1 for _ in self.resident_lines())

    def flush(self) -> None:
        """Invalidate the entire cache (statistics are kept)."""
        self._sets = [None] * self._num_sets

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.config.size_bytes}, "
            f"ways={self.config.associativity}, sets={self._num_sets})"
        )
