"""MOESI cache-coherence protocol with a sharer-filtered snoop.

The paper's baseline CMP keeps the per-core L1 data caches coherent with a
MOESI protocol (Table 1).  This module implements the protocol controller:
it owns references to every core's L1 data cache and resolves read and write
requests by snooping the other caches, applying the MOESI state transitions
and reporting whether the request was satisfied by a cache-to-cache transfer
(a *coherence miss*, which the interval model treats as a long-latency event)
and how many remote copies had to be invalidated.

The protocol is that of a snooping bus, but the host does not probe every
other L1d per request.  The controller keeps a sharer map (line -> bitmask
of the cores whose L1d may hold it: a host-side snoop filter in the manner
of JETTY, Moshovos et al., HPCA 2001) and probes only the cores whose bit is
set, in ascending core order, which is the order a broadcast visits them in.
The map is a superset of the true sharers: every valid copy has its bit set,
while a stale bit only costs one side-effect-free probe, which then clears
it.  The adopted L1ds maintain it on every fill
(:meth:`~repro.memory.cache.SetAssociativeCache.track_sharers`), so
simulated results are exactly those of a broadcast snoop.

A simpler MESI and MSI mode are provided as well (selected through
``MemoryConfig.coherence_protocol``) so protocol trade-offs can be explored;
they differ only in which states are reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .cache import CoherenceState, SetAssociativeCache

__all__ = ["SnoopResult", "CoherenceStats", "CoherenceController"]


@dataclass(slots=True)
class SnoopResult:
    """Outcome of a coherence request.

    Attributes
    ----------
    supplied_by_cache:
        ``True`` when another core's cache supplied the data
        (cache-to-cache transfer).
    supplier_core:
        Core that supplied the data, or ``None``.
    invalidations:
        Number of remote copies invalidated (write requests only).
    had_remote_sharers:
        ``True`` when at least one other cache held the line.
    writeback_to_memory:
        ``True`` when a dirty remote copy had to be written back.
    """

    supplied_by_cache: bool = False
    supplier_core: Optional[int] = None
    invalidations: int = 0
    had_remote_sharers: bool = False
    writeback_to_memory: bool = False


@dataclass
class CoherenceStats:
    """Protocol-level statistics."""

    read_requests: int = 0
    write_requests: int = 0
    upgrades: int = 0
    cache_to_cache_transfers: int = 0
    invalidations_sent: int = 0
    writebacks: int = 0
    #: Remote L1d probes the sharer filter let through.  Host-side work,
    #: not simulated behavior: a broadcast snoop would make
    #: ``(read_requests + write_requests) * (cores - 1)`` of them.
    snoop_probes: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.read_requests = 0
        self.write_requests = 0
        self.upgrades = 0
        self.cache_to_cache_transfers = 0
        self.invalidations_sent = 0
        self.writebacks = 0
        self.snoop_probes = 0


#: Shared immutable "no remote sharers" snoop outcome, returned by trivial
#: controllers and whenever the sharer map names no remote core.  Callers
#: only read SnoopResult fields.
_NO_SNOOP = SnoopResult()

_SHARED = CoherenceState.SHARED
_EXCLUSIVE = CoherenceState.EXCLUSIVE
_OWNED = CoherenceState.OWNED
_MODIFIED = CoherenceState.MODIFIED


class CoherenceController:
    """Sharer-filtered MOESI/MESI/MSI snoop controller for the private L1Ds.

    Each cache handed to a non-trivial controller is adopted: it keeps the
    controller's sharer map current on every fill, so a cache may belong to
    at most one controller.
    """

    def __init__(
        self,
        l1d_caches: Sequence[SetAssociativeCache],
        protocol: str = "MOESI",
        epochs: Optional[List[int]] = None,
    ) -> None:
        if protocol not in ("MOESI", "MESI", "MSI", "NONE"):
            raise ValueError(f"unsupported coherence protocol: {protocol!r}")
        self._caches: List[SetAssociativeCache] = list(l1d_caches)
        self.protocol = protocol
        self.stats = CoherenceStats()
        # Per-core coherence epochs, shared with the hierarchy when provided:
        # epochs[r] is bumped whenever this controller mutates core r's L1d
        # behind that core's back (snoop invalidation or downgrade), which
        # invalidates any memo core r holds of its own L1d state (the
        # hierarchy's D-side fast path checks the epoch before trusting its
        # memo).
        self.epochs: List[int] = (
            epochs if epochs is not None else [0] * len(self._caches)
        )
        # With a single cache (or no protocol) every snoop trivially finds no
        # remote sharers; requests then return the shared _NO_SNOOP result and
        # no sharer map is kept.
        self._trivial = len(self._caches) <= 1 or protocol == "NONE"
        # Sharer map: block number (line address >> offset bits) -> bitmask
        # of the cores whose L1d may hold the line (bit r is set whenever
        # core r holds a valid copy).
        self._sharers: Dict[int, int] = {}
        self._offset_bits = self._caches[0]._offset_bits if self._caches else 0
        if not self._trivial:
            for core, cache in enumerate(self._caches):
                cache.track_sharers(self._sharers, 1 << core)
        # Degraded-interconnect fault state (see
        # repro.faults.injector.LinkFaultState), installed by the fault
        # injector after functional warm-up; None in fault-free runs.  The
        # hierarchy consults it at its cache-to-cache penalty sites, so
        # in-window coherence transfers pay the loss/latency-multiplied
        # overhead while the protocol state transitions stay untouched.
        self.link_faults = None

    def install_link_faults(self, state) -> None:
        """Arm degraded-link fault windows on the coherence interconnect."""
        self.link_faults = state

    @property
    def num_cores(self) -> int:
        """Number of caches kept coherent."""
        return len(self._caches)

    # -- requests ----------------------------------------------------------------

    def read_request(self, core_id: int, line_address: int) -> SnoopResult:
        """Resolve a read miss from ``core_id`` for ``line_address``.

        Snoops the other L1 data caches that may hold the line.  If a remote
        cache holds it in a state that can supply data, a cache-to-cache
        transfer happens and the supplier is downgraded (M→O, E→S under
        MOESI; M→S with a memory write-back under MESI/MSI).  Returns the
        snoop outcome; the caller decides the resulting state of the
        requester's line (:meth:`requester_read_state`).
        """
        self.stats.read_requests += 1
        if self._trivial:
            return _NO_SNOOP
        sharers = self._sharers
        block = line_address >> self._offset_bits
        candidates = sharers.get(block, 0) & ~(1 << core_id)
        if not candidates:
            return _NO_SNOOP
        caches = self._caches
        epochs = self.epochs
        moesi = self.protocol == "MOESI"
        result = SnoopResult()
        stale = 0
        probes = 0
        # Visit the set bits in ascending core order (lowest bit first).
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            remote_id = bit.bit_length() - 1
            cache = caches[remote_id]
            state = cache.probe(line_address)
            probes += 1
            if state is None:
                stale |= bit
                continue
            result.had_remote_sharers = True
            # E, O and M (the states above Shared) can supply data.
            if state > _SHARED and not result.supplied_by_cache:
                result.supplied_by_cache = True
                result.supplier_core = remote_id
                self.stats.cache_to_cache_transfers += 1
                epochs[remote_id] += 1
                if moesi:
                    # Dirty suppliers keep ownership (O); clean ones become S.
                    if state == _MODIFIED:
                        cache.set_state(line_address, _OWNED)
                        cache.stats.coherence_downgrades += 1
                    elif state == _EXCLUSIVE:
                        cache.set_state(line_address, _SHARED)
                        cache.stats.coherence_downgrades += 1
                else:
                    # MESI/MSI: dirty data is written back to memory and the
                    # supplier keeps a Shared copy.
                    if state >= _OWNED:
                        result.writeback_to_memory = True
                        self.stats.writebacks += 1
                    cache.set_state(line_address, _SHARED)
                    cache.stats.coherence_downgrades += 1
            elif state == _EXCLUSIVE:
                cache.set_state(line_address, _SHARED)
                epochs[remote_id] += 1
                cache.stats.coherence_downgrades += 1
        self.stats.snoop_probes += probes
        if stale:
            remaining = sharers[block] & ~stale
            if remaining:
                sharers[block] = remaining
            else:
                del sharers[block]
        return result

    def write_request(
        self, core_id: int, line_address: int, already_resident: bool
    ) -> SnoopResult:
        """Resolve a write (store) from ``core_id`` needing ownership.

        Invalidate every remote copy.  ``already_resident`` distinguishes an
        upgrade (the requester already holds the line in S/O) from a write
        miss; both invalidate remote sharers, but an upgrade does not need a
        data transfer unless a remote cache held the only dirty copy.
        Afterwards no remote bit of the line is left in the sharer map.
        """
        self.stats.write_requests += 1
        if already_resident:
            self.stats.upgrades += 1
        if self._trivial:
            return _NO_SNOOP
        sharers = self._sharers
        own = 1 << core_id
        block = line_address >> self._offset_bits
        holders = sharers.get(block, 0)
        candidates = holders & ~own
        if not candidates:
            return _NO_SNOOP
        caches = self._caches
        epochs = self.epochs
        result = SnoopResult()
        probes = 0
        # Visit the set bits in ascending core order (lowest bit first).
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            remote_id = bit.bit_length() - 1
            cache = caches[remote_id]
            state = cache.probe(line_address)
            probes += 1
            if state is None:
                continue
            result.had_remote_sharers = True
            # O and M (the states above Exclusive) are dirty.
            if state > _EXCLUSIVE and not result.supplied_by_cache:
                # The remote dirty copy supplies the data to the writer.
                result.supplied_by_cache = True
                result.supplier_core = remote_id
                self.stats.cache_to_cache_transfers += 1
            cache.invalidate_line(line_address)
            epochs[remote_id] += 1
            result.invalidations += 1
            self.stats.invalidations_sent += 1
        self.stats.snoop_probes += probes
        if holders & own:
            sharers[block] = own
        else:
            del sharers[block]
        return result

    # -- state decisions ---------------------------------------------------------

    def requester_read_state(self, snoop: SnoopResult) -> CoherenceState:
        """State the requester installs after a read, given the snoop result."""
        if self.protocol == "NONE":
            return CoherenceState.EXCLUSIVE
        if snoop.had_remote_sharers:
            return CoherenceState.SHARED
        if self.protocol == "MSI":
            return CoherenceState.SHARED
        return CoherenceState.EXCLUSIVE
