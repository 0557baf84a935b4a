"""Set-associative cache model with per-line coherence state.

All caches in the hierarchy (private L1 instruction/data caches and the
shared L2) are instances of :class:`SetAssociativeCache`.  Lines carry a
MOESI coherence state so the same structure serves both the coherent private
data caches and the non-coherent instruction caches (which simply keep their
lines in the Exclusive state).

Replacement policy is true LRU.  Each set is a dict from block number
(address >> offset bits) to the line's state, and its insertion order is
the LRU order, most recently used last: a hit pops the block and reinserts
it, and a fill into a full set evicts the first key.  An Invalid line is
simply absent.  Only this module knows that order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..common.config import CacheConfig

__all__ = ["CoherenceState", "CacheStats", "SetAssociativeCache"]


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


#: Shared stand-in for every set not yet filled (a shared L2 has thousands
#: of sets, most never touched in short simulations).  Probes and lookups
#: miss on it without writing; :meth:`SetAssociativeCache.fill` gives the set
#: a dict of its own before inserting, so nothing ever writes to this one.
_UNFILLED: Dict[int, CoherenceState] = {}


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

    The cache stores only block numbers and states (no data), which is all a
    timing simulator needs.  The coherence controller
    (:mod:`repro.memory.coherence`) reads states through :meth:`probe` and
    applies its transitions through :meth:`set_state` and
    :meth:`invalidate_line`, counting each one in :attr:`stats`
    (``invalidations_received``, ``coherence_downgrades``).  An L1d the
    controller adopts (:meth:`track_sharers`) also keeps the controller's
    sharer map current on every :meth:`fill`.
    """

    def __init__(self, config: CacheConfig, name: str = "cache", level: int = 1) -> None:
        self.config = config
        self.name = name
        self.level = level
        self.stats = CacheStats()
        self._offset_bits = config.line_size.bit_length() - 1
        self._num_sets = config.num_sets
        self._ways = config.associativity
        # Per-set {block: state} dicts in LRU order, most recently used last.
        self._sets: List[Dict[int, CoherenceState]] = [_UNFILLED] * self._num_sets
        # Sharer map (block number -> core bitmask) of the coherence
        # controller that adopted this cache (see track_sharers), and this
        # cache's bit in it; None otherwise.
        self._sharers: Optional[Dict[int, int]] = None
        self._sharer_bit = 0

    # -- lookup / fill -----------------------------------------------------------

    def probe(self, address: int) -> Optional[CoherenceState]:
        """State of the line holding ``address``, or ``None`` on a miss.

        Touches neither the LRU order nor the statistics.
        """
        block = address >> self._offset_bits
        return self._sets[block % self._num_sets].get(block)

    def lookup(self, address: int) -> Optional[CoherenceState]:
        """Count an access and, on a hit, make the line MRU.

        Returns the line's state on a hit, or ``None`` on a miss.
        """
        block = address >> self._offset_bits
        entry_set = self._sets[block % self._num_sets]
        self.stats.accesses += 1
        state = entry_set.pop(block, None)
        if state is None:
            self.stats.misses += 1
            return None
        entry_set[block] = state
        return state

    def fill(
        self, address: int, state: CoherenceState = CoherenceState.EXCLUSIVE
    ) -> Optional[CoherenceState]:
        """Install the line as MRU in ``state``; returns the evicted state, if any.

        The evicted state is returned so the caller can issue a write-back
        when it is dirty (Modified/Owned).  Refilling a resident line only
        changes its state and makes it MRU.  On an adopted cache the filled
        line's sharer bit is set and the evicted line's bit cleared.
        """
        block = address >> self._offset_bits
        index = block % self._num_sets
        entry_set = self._sets[index]
        if entry_set is _UNFILLED:
            entry_set = self._sets[index] = {}
        sharers = self._sharers
        if sharers is not None:
            sharers[block] = sharers.get(block, 0) | self._sharer_bit
        victim: Optional[CoherenceState] = None
        if entry_set.pop(block, None) is None and len(entry_set) >= self._ways:
            victim_block = next(iter(entry_set))
            victim = entry_set.pop(victim_block)
            self.stats.evictions += 1
            # Dirty (Modified/Owned) states sort above the clean ones.
            if victim >= CoherenceState.OWNED:
                self.stats.writebacks += 1
            if sharers is not None:
                remaining = sharers.get(victim_block, 0) & ~self._sharer_bit
                if remaining:
                    sharers[victim_block] = remaining
                else:
                    sharers.pop(victim_block, None)
        entry_set[block] = state
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
        misses and clears it.
        """
        self._sharers = sharers
        self._sharer_bit = bit
        for block, _ in self.resident_lines():
            sharers[block] = sharers.get(block, 0) | bit

    def set_state(self, address: int, state: CoherenceState) -> bool:
        """Set a resident line's (valid) state in place, keeping its LRU position.

        Returns ``True`` if the line was resident.
        """
        block = address >> self._offset_bits
        entry_set = self._sets[block % self._num_sets]
        if block not in entry_set:
            return False
        entry_set[block] = state
        return True

    def invalidate_line(self, address: int) -> bool:
        """Invalidate a line if present (snoop-invalidate); returns ``True`` if hit."""
        if not self.drop_line(address):
            return False
        self.stats.invalidations_received += 1
        return True

    def drop_line(self, address: int) -> bool:
        """Remove a line without counting anything; returns ``True`` if present.

        Fault-injection hook: the LRU order of the surviving lines is kept
        and the next access simply misses, exactly as if the line had never
        been fetched.
        """
        block = address >> self._offset_bits
        return self._sets[block % self._num_sets].pop(block, None) is not None

    # -- inspection --------------------------------------------------------------

    def resident_lines(self) -> Iterator[Tuple[int, CoherenceState]]:
        """Yield (block, state) for every resident line, set by set in LRU order."""
        for entry_set in self._sets:
            if entry_set:
                yield from entry_set.items()

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(map(len, self._sets))

    def flush(self) -> None:
        """Invalidate the entire cache (statistics are kept)."""
        self._sets = [_UNFILLED] * self._num_sets

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.config.size_bytes}, "
            f"ways={self.config.associativity}, sets={self._num_sets})"
        )
