"""Runtime fault injection against a live memory hierarchy.

The :class:`FaultInjector` is built by the multicore driver after functional
warm-up (faults never perturb warming) and does three things:

* materializes every point-fault spec into a lazy, seeded event stream and
  exposes :attr:`FaultInjector.next_cycle` so the driver can clamp each
  core's ``run_until`` to the next pending fault — no core ever simulates
  past an unapplied fault;
* applies due point events through the hierarchy's fault helpers
  (:meth:`~repro.memory.hierarchy.MemoryHierarchy.fault_drop_line` /
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.fault_corrupt_line`),
  which bump the victim cores' coherence epochs so the D-side memo is
  invalidated exactly the way a remote coherence action would invalidate it;
* installs the window-fault state on the DRAM model and the coherence
  controller, sharing the per-core counter arrays it later merges into
  :class:`~repro.common.stats.CoreStats`.

Determinism argument: point events are applied only between event steps, at
the first heap pop whose time reaches the event cycle; at that moment every
runnable core has simulated strictly past ``cycle - 1`` and none past the
clamped ``run_until``, so the hierarchy state the event mutates — and the
MRU memo the adversarial targeting reads — is a pure function of simulated
time, identical across the fast and reference driver/kernel paths and
across all three timing models.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from .plan import FaultPlan, FaultSpec, derive_stream_seed, fault_draw

__all__ = ["DramFaultState", "LinkFaultState", "FaultInjector"]

_INFINITY = float("inf")


class _PointStream:
    """Lazy seeded event stream for one point-fault spec."""

    __slots__ = ("spec", "seed", "order", "index", "next_cycle")

    def __init__(self, spec: FaultSpec, seed: int, order: int) -> None:
        self.spec = spec
        self.seed = seed
        self.order = order
        self.index = 0
        self.next_cycle: float = spec.start + self._gap(0)
        self._clip()

    def _gap(self, index: int) -> int:
        period = self.spec.period
        if period == 1:
            return 1
        return 1 + fault_draw(self.seed, index) % (2 * period - 1)

    def _clip(self) -> None:
        spec = self.spec
        if spec.count is not None and self.index >= spec.count:
            self.next_cycle = _INFINITY
        elif spec.stop is not None and self.next_cycle >= spec.stop:
            self.next_cycle = _INFINITY

    def advance(self) -> None:
        """Consume the current event and schedule the next one."""
        self.index += 1
        self.next_cycle += self._gap(self.index)
        self._clip()


class DramFaultState:
    """Flaky-DRAM windows installed on :class:`~repro.memory.dram.MainMemory`.

    Each in-window access draws deterministically (by DRAM access index)
    whether it faults; a faulted access retries ``1..max_retries`` times
    with exponential backoff, and the summed retry latency is charged to the
    requesting core *without* extending the bus reservation — retries occupy
    the requester's miss, not the shared bus, so other cores' queue delays
    are unchanged (a modeling choice that keeps the window fault a pure
    function of the access stream).
    """

    __slots__ = ("windows", "retries_by_core", "retry_cycles_by_core")

    def __init__(
        self,
        windows: Sequence[Tuple[int, Optional[int], int, float, int, int]],
        retries_by_core: List[int],
        retry_cycles_by_core: List[int],
    ) -> None:
        # Each window: (start, stop, seed, rate, max_retries, backoff).
        self.windows = list(windows)
        self.retries_by_core = retries_by_core
        self.retry_cycles_by_core = retry_cycles_by_core

    def extra_latency(self, now: int, access_index: int, core_id: int) -> int:
        """Retry latency (cycles) for DRAM access ``access_index`` at ``now``."""
        extra = 0
        retries_total = 0
        for start, stop, seed, rate, max_retries, backoff in self.windows:
            if now < start or (stop is not None and now >= stop):
                continue
            draw = fault_draw(seed, access_index)
            if (draw & 0xFFFF) / 65536.0 >= rate:
                continue
            retries = 1 + (draw >> 16) % max_retries
            retries_total += retries
            # Exponential backoff: retry i costs backoff << i cycles.
            extra += backoff * ((1 << retries) - 1)
        if retries_total:
            self.retries_by_core[core_id] += retries_total
            self.retry_cycles_by_core[core_id] += extra
        return extra


class LinkFaultState:
    """Degraded-interconnect windows applied to coherence transfers.

    Consulted by the hierarchy at its two cache-to-cache penalty sites (the
    write-upgrade invalidation and the remote-supply transfer).  Each
    transfer increments a private transfer index — identical across the
    fast and reference paths because the penalty sites fire identically —
    and in-window transfers pay ``base * multiplier`` plus, on a seeded loss
    draw, one or two full retransmissions of the base overhead.
    """

    __slots__ = ("windows", "retry_cycles_by_core", "transfers")

    def __init__(
        self,
        windows: Sequence[Tuple[int, Optional[int], int, float, float]],
        retry_cycles_by_core: List[int],
    ) -> None:
        # Each window: (start, stop, seed, multiplier, loss_rate).
        self.windows = list(windows)
        self.retry_cycles_by_core = retry_cycles_by_core
        self.transfers = 0

    def transfer_extra(self, base: int, now: int, core_id: int) -> int:
        """Extra cycles (beyond ``base``) for one coherence transfer at ``now``."""
        index = self.transfers
        self.transfers = index + 1
        extra = 0
        for start, stop, seed, multiplier, loss_rate in self.windows:
            if now < start or (stop is not None and now >= stop):
                continue
            extra += int(base * multiplier) - base
            if loss_rate > 0.0:
                draw = fault_draw(seed, index)
                if (draw & 0xFFFF) / 65536.0 < loss_rate:
                    retransmissions = 1 + (draw >> 16) % 2
                    extra += base * retransmissions
        if extra:
            self.retry_cycles_by_core[core_id] += extra
        return extra


class FaultInjector:
    """Applies a :class:`~repro.faults.plan.FaultPlan` to a live hierarchy."""

    def __init__(self, plan: FaultPlan, hierarchy) -> None:
        self.hierarchy = hierarchy
        num_cores = hierarchy.num_cores
        self.faults_injected = [0] * num_cores
        self.refetches_forced = [0] * num_cores
        self.dram_retries = [0] * num_cores
        self.retry_cycles = [0] * num_cores

        dram_windows: List[Tuple[int, Optional[int], int, float, int, int]] = []
        link_windows: List[Tuple[int, Optional[int], int, float, float]] = []
        streams: List[Tuple[float, int, _PointStream]] = []
        for order, spec in enumerate(plan.specs):
            seed = derive_stream_seed(plan.seed, order, spec.kind)
            if spec.is_point:
                stream = _PointStream(spec, seed, order)
                if stream.next_cycle != _INFINITY:
                    streams.append((stream.next_cycle, order, stream))
            elif spec.kind == "flaky_dram":
                dram_windows.append(
                    (spec.start, spec.stop, seed, spec.rate,
                     spec.max_retries, spec.backoff)
                )
            else:  # degraded_link
                link_windows.append(
                    (spec.start, spec.stop, seed, spec.multiplier,
                     spec.loss_rate)
                )
        heapq.heapify(streams)
        self._streams = streams
        self.next_cycle: float = streams[0][0] if streams else _INFINITY

        if dram_windows:
            hierarchy.dram.install_faults(
                DramFaultState(dram_windows, self.dram_retries, self.retry_cycles)
            )
        if link_windows:
            hierarchy.coherence.install_link_faults(
                LinkFaultState(link_windows, self.retry_cycles)
            )

    def apply_due(self, now: int) -> None:
        """Apply every pending point event with cycle ``<= now``.

        Events apply in (cycle, spec order) order; after this returns,
        :attr:`next_cycle` is strictly greater than ``now``.
        """
        streams = self._streams
        heappush = heapq.heappush
        heappop = heapq.heappop
        while streams and streams[0][0] <= now:
            _, order, stream = heappop(streams)
            self._apply_event(stream)
            stream.advance()
            if stream.next_cycle != _INFINITY:
                heappush(streams, (stream.next_cycle, order, stream))
        self.next_cycle = streams[0][0] if streams else _INFINITY

    def _apply_event(self, stream: _PointStream) -> None:
        """Fire one point event: pick the victim and drop/corrupt the line."""
        spec = stream.spec
        hierarchy = self.hierarchy
        num_cores = hierarchy.num_cores
        if spec.core is not None:
            victim = spec.core % num_cores
        else:
            victim = stream.index % num_cores
        if spec.lines:
            address = spec.lines[stream.index % len(spec.lines)]
        else:
            address = hierarchy.fault_victim_line(victim, spec.level)
        self.faults_injected[victim] += 1
        if address is None:
            # Nothing resident to target yet (cold memo): the event still
            # counts as injected but forces no refetch.
            return
        if spec.kind == "drop_line":
            dropped = hierarchy.fault_drop_line(victim, address, spec.level)
        else:
            dropped = hierarchy.fault_corrupt_line(address, spec.level)
        self.refetches_forced[victim] += dropped

    def merge_into(self, core_stats: Sequence) -> None:
        """Fold the injector's per-core counters into the run's CoreStats."""
        for core_id, stats in enumerate(core_stats):
            stats.faults_injected += self.faults_injected[core_id]
            stats.refetches_forced += self.refetches_forced[core_id]
            stats.dram_retries += self.dram_retries[core_id]
            stats.retry_cycles += self.retry_cycles[core_id]
