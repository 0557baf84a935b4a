"""The D-side epoch memo must be fast on repeats and sound under coherence.

:meth:`repro.memory.hierarchy.MemoryHierarchy.data_probe` memoizes the most
recently accessed (L1d line, D-TLB page) per core and fast-paths repeat hits
to the same block.  Unlike the I-side memo, this is only sound while no
*remote* core has touched this core's L1d: a remote write invalidates the
line, a remote read downgrades its state.  The hierarchy therefore keeps a
per-core coherence epoch, bumped by the controller on any remote
invalidation or downgrade, and the memo is trusted only while the epoch is
unchanged.

These tests pin both halves: the fast path actually fires (no structure
scans on repeat hits), and the epoch guard defeats the unsound-memo trap.
"""

from __future__ import annotations

import pytest

from repro.common.config import default_machine_config
from repro.memory.cache import CoherenceState
from repro.memory.hierarchy import MemoryHierarchy


def _hierarchy(num_cores: int = 1) -> MemoryHierarchy:
    return MemoryHierarchy(default_machine_config(num_cores=num_cores))


BLOCK = 0x1_0000  # line- and page-aligned data address


class TestFastPathFires:
    def test_repeat_load_skips_the_structure_scans(self):
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, False, 0)  # miss: installs line + memo

        calls = []
        original_lookup = hierarchy.l1d[0].lookup
        original_access = hierarchy.dtlb[0].access
        hierarchy.l1d[0].lookup = lambda *a, **k: calls.append("l1d") or original_lookup(*a, **k)
        hierarchy.dtlb[0].access = lambda *a, **k: calls.append("dtlb") or original_access(*a, **k)

        accesses_before = hierarchy.l1d[0].stats.accesses
        for offset in (0, 8, 16, 56):
            assert hierarchy.data_probe(0, BLOCK + offset, False, 0) is None
        # The memoized fast path touched neither structure's scan path...
        assert calls == []
        # ...while still counting every access.
        assert hierarchy.l1d[0].stats.accesses == accesses_before + 4

    def test_repeat_store_on_modified_line_fast_paths(self):
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, True, 0)  # write miss: installs Modified
        original_lookup = hierarchy.l1d[0].lookup
        calls = []
        hierarchy.l1d[0].lookup = lambda *a, **k: calls.append("l1d") or original_lookup(*a, **k)
        assert hierarchy.data_probe(0, BLOCK + 8, True, 0) is None
        assert calls == []

    def test_store_after_load_memo_is_not_trusted(self):
        # A load installs Exclusive: a following store must take the slow
        # path (E -> M transition), not the memoized one.
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, False, 0)
        assert hierarchy.data_probe(0, BLOCK, True, 0) is None
        assert hierarchy.l1d[0].probe(BLOCK) == CoherenceState.MODIFIED

    def test_different_block_misses_the_memo(self):
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, False, 0)
        far = BLOCK + 0x10_0000
        result = hierarchy.data_probe(0, far, False, 0)
        assert result is not None and result.l1_miss


class TestCoherenceEpochGuard:
    def test_remote_write_invalidates_the_memo(self):
        # The unsound-memo trap: core 0 memoizes a hit on block X, core 1
        # writes X (invalidating core 0's copy).  Core 0's next access must
        # NOT be served from the memo — it is a real miss again.
        hierarchy = _hierarchy(2)
        assert hierarchy.data_probe(0, BLOCK, False, 0) is not None  # cold miss
        assert hierarchy.data_probe(0, BLOCK, False, 0) is None      # memo hit

        hierarchy.data_probe(1, BLOCK, True, 0)  # remote write: invalidate

        result = hierarchy.data_probe(0, BLOCK, False, 0)
        assert result is not None and result.l1_miss
        # The data comes from core 1's Modified copy: a coherence miss.
        assert result.coherence_miss

    def test_remote_read_downgrade_defeats_the_store_memo(self):
        # Core 0 holds X in Modified (store memo valid).  Core 1 reads X,
        # downgrading core 0's copy to Owned.  Core 0's next store must take
        # the slow path and upgrade (invalidating core 1's copy) — the memo
        # would have silently skipped the required coherence action.
        hierarchy = _hierarchy(2)
        hierarchy.data_probe(0, BLOCK, True, 0)
        assert hierarchy.data_probe(0, BLOCK, True, 0) is None  # memoized M hit

        hierarchy.data_probe(1, BLOCK, False, 0)  # remote read: M -> O
        assert hierarchy.l1d[0].probe(BLOCK) == CoherenceState.OWNED

        invalidations_before = hierarchy.coherence.stats.invalidations_sent
        hierarchy.data_probe(0, BLOCK, True, 0)
        assert hierarchy.coherence.stats.invalidations_sent == invalidations_before + 1
        assert hierarchy.l1d[0].probe(BLOCK) == CoherenceState.MODIFIED
        assert hierarchy.l1d[1].probe(BLOCK) is None

    def test_epoch_counts_remote_actions(self):
        hierarchy = _hierarchy(2)
        hierarchy.data_probe(0, BLOCK, True, 0)
        epoch_before = hierarchy.coherence.epochs[0]
        hierarchy.data_probe(1, BLOCK, False, 0)  # downgrade core 0's line
        assert hierarchy.coherence.epochs[0] == epoch_before + 1
        hierarchy.data_probe(1, BLOCK, True, 0)  # upgrade: invalidate core 0
        assert hierarchy.coherence.epochs[0] == epoch_before + 2

    def test_reset_data_memo_forces_the_slow_path(self):
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, False, 0)
        hierarchy.l1d[0].flush()
        hierarchy.reset_data_memo()
        result = hierarchy.data_probe(0, BLOCK, False, 0)
        assert result is not None and result.l1_miss


class TestProbeEquivalence:
    """data_probe (with the memo) must mirror data_access exactly."""

    #: Two cores' interleaved access stream: repeats (memo territory), block
    #: transitions, read/write mixes and cross-core conflicts.
    STREAM = (
        [(0, BLOCK + 8 * i, False) for i in range(8)]           # repeat loads
        + [(0, BLOCK, True), (0, BLOCK + 16, True)]             # E->M, M repeats
        + [(1, BLOCK, False)] + [(0, BLOCK + 8, True)]          # downgrade, upgrade
        + [(1, BLOCK, True)] + [(0, BLOCK + 24, False)]         # invalidate, re-miss
        + [(0, BLOCK + 0x2000 * i, False) for i in range(6)]    # page walk misses
        + [(1, BLOCK + 0x2000 * i, True) for i in range(6)]     # remote writes
        + [(0, BLOCK + 8 * i, False) for i in range(8)]         # repeats again
    )

    def _state(self, hierarchy):
        return {
            "l1d": [
                sorted(
                    (block, int(state)) for block, state in cache.resident_lines()
                )
                for cache in hierarchy.l1d
            ],
            "l1d_stats": [
                (c.stats.accesses, c.stats.misses, c.stats.evictions, c.stats.writebacks)
                for c in hierarchy.l1d
            ],
            "dtlb": [(t.stats.accesses, t.stats.misses) for t in hierarchy.dtlb],
            "l2": (hierarchy.l2.stats.accesses, hierarchy.l2.stats.misses),
            "coherence": (
                hierarchy.coherence.stats.read_requests,
                hierarchy.coherence.stats.write_requests,
                hierarchy.coherence.stats.upgrades,
                hierarchy.coherence.stats.cache_to_cache_transfers,
                hierarchy.coherence.stats.invalidations_sent,
                hierarchy.coherence.stats.writebacks,
            ),
            "dram": hierarchy.dram.stats.accesses,
        }

    def test_probe_matches_access_on_interleaved_stream(self):
        probing, reference = _hierarchy(2), _hierarchy(2)
        for core, address, is_write in self.STREAM:
            result = probing.data_probe(core, address, is_write, 0)
            mirror = reference.data_access(core, address, is_write, now=0)
            if result is None:
                assert mirror.penalty == 0 and not mirror.tlb_miss
            else:
                assert (result.l1_miss, result.tlb_miss, result.coherence_miss,
                        result.penalty) == (
                    mirror.l1_miss, mirror.tlb_miss, mirror.coherence_miss,
                    mirror.penalty)
            assert self._state(probing) == self._state(reference)

    def test_warm_data_matches_probe_state(self):
        # warm_data skips timing (DRAM reservations) but must leave the
        # caches, TLBs and coherence state/stats exactly like data_probe.
        warming, reference = _hierarchy(2), _hierarchy(2)
        for core, address, is_write in self.STREAM:
            warming.warm_data(core, address, is_write)
            reference.data_probe(core, address, is_write, 0)
        warming_state = self._state(warming)
        reference_state = self._state(reference)
        # DRAM is excluded: both models reset it after warm-up anyway.
        warming_state.pop("dram")
        reference_state.pop("dram")
        assert warming_state == reference_state
