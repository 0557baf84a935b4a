"""Branch target buffer (BTB).

Table 1 of the paper specifies an 8-way set-associative 2K-entry BTB.  The
BTB caches the most recent target of taken branches; a taken branch whose
target is absent or stale counts as a (target) misprediction even when the
direction was predicted correctly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["BranchTargetBuffer"]

#: ``dict.pop`` default that no stored target can equal.
_MISS = object()


class BranchTargetBuffer:
    """A set-associative branch target buffer with LRU replacement.

    Each set is a dict from branch word (``pc >> 2``) to target whose
    insertion order is the LRU order, most recently used last, as in
    :mod:`repro.memory.cache`.
    """

    def __init__(self, entries: int = 2048, associativity: int = 8) -> None:
        if entries <= 0 or associativity <= 0:
            raise ValueError("BTB entries and associativity must be positive")
        if entries % associativity:
            raise ValueError("BTB entries must be a multiple of associativity")
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        self._sets: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]

    def lookup(self, pc: int) -> Optional[int]:
        """Return the predicted target for ``pc``, or ``None`` on a BTB miss."""
        word = pc >> 2
        entry_set = self._sets[word % self.num_sets]
        target = entry_set.pop(word, _MISS)
        if target is _MISS:
            return None
        entry_set[word] = target
        return target

    def update(self, pc: int, target: int) -> None:
        """Record the actual target of a taken branch."""
        word = pc >> 2
        entry_set = self._sets[word % self.num_sets]
        entry_set.pop(word, None)
        entry_set[word] = target
        if len(entry_set) > self.associativity:
            del entry_set[next(iter(entry_set))]

    def flush(self) -> None:
        """Invalidate the entire BTB."""
        self._sets = [{} for _ in range(self.num_sets)]
