"""Memory-hierarchy simulators.

This package implements the memory-side substrate of the paper's framework:
private per-core L1 instruction/data caches and TLBs, a shared L2, a
MOESI/MESI/MSI snooping coherence protocol whose snoops a sharer map filters
down to the L1ds that may hold the line, and main memory behind a
finite-bandwidth off-chip bus.  The same
:class:`~repro.memory.hierarchy.MemoryHierarchy` instance is used by the
interval simulator and by the detailed reference simulator so both observe
identical miss events.
"""

from .cache import CacheStats, CoherenceState, SetAssociativeCache
from .coherence import CoherenceController, CoherenceStats, SnoopResult
from .dram import DRAMStats, MainMemory
from .hierarchy import AccessResult, MemoryHierarchy
from .tlb import TLB, TLBStats

__all__ = [
    "CacheStats",
    "CoherenceState",
    "SetAssociativeCache",
    "CoherenceController",
    "CoherenceStats",
    "SnoopResult",
    "DRAMStats",
    "MainMemory",
    "AccessResult",
    "MemoryHierarchy",
    "TLB",
    "TLBStats",
]
