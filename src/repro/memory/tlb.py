"""Translation lookaside buffers.

The paper's miss-event taxonomy includes I-TLB and D-TLB misses, which are
handled exactly like cache misses by the interval model (the miss latency —
here, a fixed page-table-walk latency — is added to the per-core simulated
time).  The TLB is a small set-associative structure over virtual page
numbers with LRU replacement.  It keeps the layout of
:mod:`repro.memory.cache`: each set is a dict keyed by page number whose
insertion order is the LRU order, most recently used last, so a hit pops
and reinserts the page and a miss into a full set evicts the first key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..common.config import TLBConfig

__all__ = ["TLBStats", "TLB"]


@dataclass
class TLBStats:
    """TLB access statistics."""

    accesses: int = 0
    misses: int = 0

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


class TLB:
    """A set-associative TLB with LRU replacement."""

    def __init__(self, config: TLBConfig, name: str = "tlb") -> None:
        self.config = config
        self.name = name
        self.stats = TLBStats()
        self._page_shift = config.page_size.bit_length() - 1
        self._num_sets = config.num_sets
        # Per-set {page: True} dicts in LRU order, most recently used last.
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self._num_sets)]

    def access(self, address: int) -> bool:
        """Translate ``address``; returns ``True`` on a hit, ``False`` on a miss.

        A miss installs the translation (the page walk itself is charged by
        the memory hierarchy as ``config.miss_latency`` cycles).
        """
        page = address >> self._page_shift
        entry_set = self._sets[page % self._num_sets]
        self.stats.accesses += 1
        hit = entry_set.pop(page, False)
        entry_set[page] = True
        if hit:
            return True
        self.stats.misses += 1
        if len(entry_set) > self.config.associativity:
            del entry_set[next(iter(entry_set))]
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU order or statistics."""
        page = address >> self._page_shift
        return page in self._sets[page % self._num_sets]

    def flush(self) -> None:
        """Invalidate all translations (statistics are kept)."""
        self._sets = [{} for _ in range(self._num_sets)]
