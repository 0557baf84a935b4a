"""Shared interval-at-a-time execution-kernel layer.

All three timing models execute through the same batched machinery, factored
out of the original interval implementation:

* **Driver contract** — the multi-core driver
  (:class:`~repro.multicore.simulator.MulticoreSimulator`) hands every core
  the longest span it can run without another core needing to interleave;
  a kernel core consumes that whole span in one
  :meth:`~repro.multicore.simulator.CoreModel.simulate_interval` call, and
  :meth:`ColumnarKernelCore.simulate_cycle` remains the one-event-step entry
  point.  A step ends in one of three ways: the span is consumed (per-core
  time strictly past ``multi_core_time``), the core blocks on a sync object
  (``blocked_on`` set; the driver parks it off the event heap until the
  release), or the core *releases* parked waiters (the step finishes its
  cycle and yields so the driver re-inserts the waiters before this core
  runs ahead).  Under the spin reference driver cores never park — a
  blocked core charges its whole handed span as stall instead.
* **Columnar cursor plumbing** — :meth:`ColumnarKernelCore.bind_thread`
  resolves the bound cursor's trace to its cached
  :class:`~repro.trace.columnar.TraceBatch` once, so kernels index
  per-field columns instead of pulling :class:`~repro.common.isa.Instruction`
  objects through property chains; the cursor position stays the shared
  currency between columnar and object consumers.
* **Flag-byte fetch templates** — each batch pre-marks positions that never
  access the I-side (sync pseudo-ops) in
  :attr:`~repro.trace.columnar.TraceBatch.fetch_skip_template`; the batched
  fetch probe (:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_block`)
  skips any position whose flag byte intersects the caller's mask.  The
  interval kernel additionally stores its per-position overlap state in the
  same byte (bits :data:`F_IOVR`/:data:`F_BROVR`/:data:`F_DOVR`).
* **Blocked-sync spans** — :meth:`ColumnarKernelCore._blocked_stall_span`
  charges a sync-blocked core's whole handed span at once under the spin
  reference driver; the barrier/lock interpreter itself,
  :meth:`~repro.multicore.simulator.CoreModel._handle_sync_kind`, is shared
  with the detailed model.

Concrete kernels: :class:`~repro.core.interval_core.IntervalCore` (interval
analysis over an implicit window) and :class:`~repro.core.oneipc.OneIPCCore`
(whole inter-event runs committed as constant-time arithmetic).  The detailed
model (:class:`~repro.detailed.ooo_core.DetailedCore`) follows the same driver
contract and reads the same columns, but stays cycle-level by design: its
``simulate_interval`` is one fused per-cycle loop over commit, issue,
dispatch and fetch.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from ..branch import BranchPredictor
from ..common.config import MachineConfig
from ..common.isa import InstructionClass
from ..common.stats import CoreStats
from ..memory.hierarchy import MemoryHierarchy
from ..multicore.simulator import _SK_LOCK_ACQUIRE, CoreModel
from ..multicore.sync import SynchronizationManager
from ..trace.columnar import FLAG_NO_FETCH, TraceBatch
from ..trace.stream import TraceCursor

__all__ = [
    "ColumnarKernelCore",
    "KLASS_LOAD",
    "KLASS_STORE",
    "KLASS_BRANCH",
    "KLASS_SERIALIZING",
    "KLASS_SYNC",
    "F_IOVR",
    "F_BROVR",
    "F_DOVR",
    "F_NOFETCH",
    "F_SKIP_FETCH",
]


# Instruction-class codes, hoisted so the kernels compare plain ints.
KLASS_LOAD = int(InstructionClass.LOAD)
KLASS_STORE = int(InstructionClass.STORE)
KLASS_BRANCH = int(InstructionClass.BRANCH)
KLASS_SERIALIZING = int(InstructionClass.SERIALIZING)
KLASS_SYNC = int(InstructionClass.SYNC)

# Flag bits, one byte per trace position.  Bits 1/2/4 are the
# ``I/br/D_overlapped`` flags of the paper's Figure-3 pseudocode (used by the
# interval kernel's implicit window); bit 8 (shared with the batch's
# fetch-skip template) marks sync pseudo-ops, which never access the I-side.
F_IOVR = 1
F_BROVR = 2
F_DOVR = 4
F_NOFETCH = FLAG_NO_FETCH
F_SKIP_FETCH = F_IOVR | F_NOFETCH

#: Sentinel span of an unbounded driver interval (run_until = +inf).
_UNBOUNDED_SPAN = float("inf")


class ColumnarKernelCore(CoreModel):
    """Base class for per-core timing models on the columnar kernel.

    Owns the state every batched kernel needs — the cached
    :class:`~repro.trace.columnar.TraceBatch`, the consumption position
    (``_head``), and the exclusive end of the verified-fetch run
    (``_fetch_limit``, maintained through the hierarchy's batched probes) —
    plus the blocked-sync span helpers and completion bookkeeping.
    Subclasses implement :meth:`simulate_interval` as their kernel loop and
    may extend :meth:`_bind_batch` / :meth:`_finalize_stats`.
    """

    def __init__(
        self,
        core_id: int,
        config: MachineConfig,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: CoreStats,
        sync: Optional[SynchronizationManager] = None,
    ) -> None:
        super().__init__(core_id, stats)
        self.config = config
        self.core_config = config.core
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.sync = sync
        # Columnar kernel state, bound in bind_thread().
        self._batch: Optional[TraceBatch] = None
        self._n = 0
        self._head = 0
        self._fetch_limit = 0
        # Fetch-line run column for the hierarchy's batched probes, or None
        # when the configuration rules the run-column fast path out.
        self._line_runs: Optional[Sequence[int]] = None

    # -- CoreModel interface -----------------------------------------------------

    def bind_thread(self, cursor: TraceCursor, thread_id: int) -> None:
        """Attach a software thread's instruction stream to this core."""
        self._cursor = cursor
        self._thread_id = thread_id
        batch = cursor.trace.batch()
        self._batch = batch
        self._n = batch.length
        # The cursor position accounts for any functionally-warmed prefix.
        self._head = cursor.position
        self._fetch_limit = self._head
        self._line_runs = self.hierarchy.fetch_line_runs(batch)
        self._bind_batch(batch, cursor)

    def _bind_batch(self, batch: TraceBatch, cursor: TraceCursor) -> None:
        """Hook for kernel-specific columnar state (latency tables, flags)."""

    def simulate_cycle(self, multi_core_time: int) -> None:
        """Simulate one whole event step of this core."""
        if self.finished or self._cursor is None:
            return
        if self.sim_time != multi_core_time:
            return
        self.simulate_interval(multi_core_time + 1)

    @abc.abstractmethod
    def simulate_interval(self, run_until: int) -> None:
        """The kernel loop: run until ``sim_time`` reaches ``run_until``.

        Kernel cores must override this — the :class:`CoreModel` default
        steps :meth:`simulate_cycle`, which for a kernel core delegates right
        back here.
        """

    # -- completion ----------------------------------------------------------------

    def _finish(self, final_cycle: Optional[int] = None) -> None:
        """Record completion of this core's trace.

        ``final_cycle`` stamps the dispatch cycle of the trace's last
        instruction — the release cycle of any barriers the finish unblocks
        (``sim_time`` may already sit past it when the final instruction
        carried a penalty).
        """
        if self.finished:
            return
        self.finished = True
        self.stats.cycles = self.sim_time
        self._finalize_stats()
        if self.sync is not None and self._thread_id is not None:
            if final_cycle is None:
                final_cycle = self.sim_time
            self.sync.thread_finished(self._thread_id, final_cycle, self.core_id)

    def _finalize_stats(self) -> None:
        """Hook for model-specific end-of-run statistics (CPI-stack base)."""

    # -- synchronization -----------------------------------------------------------

    def _blocked_stall_span(self, sim_time: int, run_until: int) -> int:
        """Cycles a sync-blocked core may stall without re-checking.

        No other core runs before ``run_until``, so nothing can release the
        barrier or lock this core is blocked on: every per-cycle retry in
        ``[sim_time, run_until)`` fails exactly like the one just performed.
        The whole span can therefore be charged in one step.  With an
        unbounded ``run_until`` (last unfinished core — a genuine deadlock)
        the span degenerates to one cycle, preserving the reference
        formulation's behavior.
        """
        span = run_until - sim_time
        if span == _UNBOUNDED_SPAN:
            return 1
        span = int(span)
        return span if span > 1 else 1

    def _charge_blocked_retries(self, kind: int, span: int) -> None:
        """Account the per-retry side effects of ``span - 1`` skipped retries.

        A blocked barrier wait re-checks without side effects, but every
        skipped retry of a contended lock acquire would have counted one
        contention on both the core and the synchronization manager.
        """
        if span > 1 and kind == _SK_LOCK_ACQUIRE and self.sync is not None:
            extra = span - 1
            self.stats.lock_contended += extra
            self.sync.stats.lock_contentions += extra
