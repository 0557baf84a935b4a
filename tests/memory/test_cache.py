"""Tests for the set-associative cache model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig, TLBConfig
from repro.memory.cache import CacheStats, CoherenceState, SetAssociativeCache
from repro.memory.tlb import TLB, TLBStats


def make_cache(size=1024, ways=2, line=64):
    return SetAssociativeCache(CacheConfig(size_bytes=size, associativity=ways, line_size=line))


class TestCoherenceState:
    def test_validity(self):
        assert not CoherenceState.INVALID.is_valid
        assert CoherenceState.SHARED.is_valid

    def test_dirty_states(self):
        assert CoherenceState.MODIFIED.is_dirty
        assert CoherenceState.OWNED.is_dirty
        assert not CoherenceState.SHARED.is_dirty
        assert not CoherenceState.EXCLUSIVE.is_dirty

    def test_suppliers(self):
        assert CoherenceState.MODIFIED.can_supply
        assert CoherenceState.OWNED.can_supply
        assert not CoherenceState.SHARED.can_supply


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(0x1000) is None
        cache.fill(0x1000)
        assert cache.lookup(0x1000) is not None
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1

    def test_same_line_offsets_hit(self):
        cache = make_cache(line=64)
        cache.fill(0x1000)
        assert cache.lookup(0x1004) is not None
        assert cache.lookup(0x103F) is not None
        assert cache.lookup(0x1040) is None

    def test_lru_eviction_order(self):
        cache = make_cache(size=256, ways=2, line=64)  # 2 sets of 2 ways
        sets = cache.config.num_sets
        a, b, c = 0x0, 64 * sets, 2 * 64 * sets  # same set
        cache.fill(a)
        cache.fill(b)
        cache.lookup(a)          # touch a so b becomes LRU
        victim = cache.fill(c)   # evicts b
        assert victim is not None
        assert cache.probe(a) is not None
        assert cache.probe(b) is None
        assert cache.probe(c) is not None

    def test_dirty_eviction_counts_writeback(self):
        cache = make_cache(size=128, ways=1, line=64)
        sets = cache.config.num_sets
        cache.fill(0x0, CoherenceState.MODIFIED)
        cache.fill(64 * sets)  # same set, evicts the dirty line
        assert cache.stats.writebacks == 1

    def test_fill_existing_line_updates_state(self):
        cache = make_cache()
        cache.fill(0x1000, CoherenceState.SHARED)
        cache.fill(0x1000, CoherenceState.MODIFIED)
        assert cache.probe(0x1000) == CoherenceState.MODIFIED

    def test_probe_does_not_count_access(self):
        cache = make_cache()
        cache.probe(0x1000)
        assert cache.stats.accesses == 0


class TestCoherenceHooks:
    def test_invalidate(self):
        cache = make_cache()
        cache.fill(0x1000, CoherenceState.SHARED)
        assert cache.invalidate_line(0x1000)
        assert cache.probe(0x1000) is None
        assert cache.stats.invalidations_received == 1

    def test_invalidate_absent_line(self):
        cache = make_cache()
        assert not cache.invalidate_line(0x1000)

    def test_set_state(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.set_state(0x1000, CoherenceState.SHARED)
        assert not cache.set_state(0x9999000, CoherenceState.SHARED)


class TestOccupancyAndFlush:
    def test_occupancy_bounded_by_capacity(self):
        cache = make_cache(size=512, ways=2, line=64)
        for i in range(100):
            cache.fill(i * 64)
        assert cache.occupancy <= cache.config.num_lines

    def test_flush_empties_cache(self):
        cache = make_cache()
        cache.fill(0x1000)
        cache.flush()
        assert cache.occupancy == 0

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_invariant_under_random_fills(self, addresses):
        cache = make_cache(size=1024, ways=4, line=64)
        for address in addresses:
            cache.fill(address)
        assert cache.occupancy <= cache.config.num_lines
        # Every address filled most recently in its set must still be present.
        assert cache.probe(addresses[-1]) is not None

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = make_cache(size=2048, ways=4, line=64)
        for address in addresses:
            cache.lookup(address)
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses

    def test_small_cache_thrashes_large_working_set(self):
        small = make_cache(size=256, ways=2, line=64)
        working_set = [i * 64 for i in range(64)]
        for _ in range(4):
            for address in working_set:
                small.lookup(address) or small.fill(address)
        assert small.stats.miss_rate > 0.9


class ListCache:
    """Reference: per-set ``[tag, state]`` lists, MRU last, with Invalid husks.

    Invalidation leaves a husk in its way, and a fill reuses a same-tag husk
    or evicts an invalid way before the LRU valid one.  The dict sets of
    :class:`SetAssociativeCache` drop Invalid lines instead; the
    differential below holds the two layouts to the same behaviour.
    """

    def __init__(self, config: CacheConfig):
        self.offset_bits = config.line_size.bit_length() - 1
        self.num_sets, self.ways = config.num_sets, config.associativity
        self.sets = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _find(self, address, valid_only=True):
        block = address >> self.offset_bits
        tag, lines = block // self.num_sets, self.sets[block % self.num_sets]
        for position, line in enumerate(lines):
            if line[0] == tag and (line[1] or not valid_only):
                return lines, position, tag
        return lines, None, tag

    def probe(self, address):
        lines, position, _ = self._find(address)
        return None if position is None else lines[position][1]

    def lookup(self, address):
        self.stats.accesses += 1
        lines, position, _ = self._find(address)
        if position is None:
            self.stats.misses += 1
            return None
        lines.append(lines.pop(position))
        return lines[-1][1]

    def fill(self, address, state=CoherenceState.EXCLUSIVE):
        lines, position, tag = self._find(address, valid_only=False)
        if position is not None:
            lines[position][1] = state
            lines.append(lines.pop(position))
            return None
        victim = None
        if len(lines) >= self.ways:
            invalid = [i for i, line in enumerate(lines) if not line[1]]
            if invalid:
                lines.pop(invalid[0])
            else:
                victim = lines.pop(0)[1]
                self.stats.evictions += 1
                self.stats.writebacks += victim.is_dirty
        lines.append([tag, state])
        return victim

    def set_state(self, address, state):
        lines, position, _ = self._find(address)
        if position is not None:
            lines[position][1] = state
        return position is not None

    def invalidate_line(self, address):
        lines, position, _ = self._find(address)
        if position is not None:
            lines[position][1] = CoherenceState.INVALID
            self.stats.invalidations_received += 1
        return position is not None

    def drop_line(self, address):
        lines, position, _ = self._find(address)
        if position is not None:
            del lines[position]
        return position is not None

    def flush(self):
        self.sets = [[] for _ in range(self.num_sets)]

    def resident_lines(self):
        return [
            (tag * self.num_sets + index, state)
            for index, lines in enumerate(self.sets)
            for tag, state in lines
            if state
        ]


VALID_STATES = [state for state in CoherenceState if state.is_valid]
#: Op kinds repeated by weight: fills and lookups dominate, so sets fill up,
#: evict and reorder, and a flush is rare enough that state rebuilds after it.
CACHE_OP_KINDS = (
    ["fill"] * 8 + ["lookup"] * 8
    + ["probe", "set_state", "invalidate_line", "drop_line"] * 2 + ["flush"]
)
CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(CACHE_OP_KINDS),
        st.integers(0, 11),             # line number: a few lines per set
        st.integers(0, 63),             # byte offset within the line
        st.sampled_from(VALID_STATES),
    ),
    min_size=20,
    max_size=120,
)


@given(
    ways=st.integers(1, 4),
    sets=st.sampled_from([1, 2, 4]),
    ops=CACHE_OPS,
)
@settings(max_examples=150, deadline=None)
def test_dict_sets_match_list_reference(ways, sets, ops):
    """Dict sets with absent Invalid lines behave as lists with husks."""
    config = CacheConfig(size_bytes=ways * sets * 64, associativity=ways, line_size=64)
    cache, reference = SetAssociativeCache(config), ListCache(config)
    for op, line, offset, state in ops:
        address = line * 64 + offset
        args = (address, state) if op in ("fill", "set_state") else (address,)
        if op == "flush":
            args = ()
        assert getattr(cache, op)(*args) == getattr(reference, op)(*args)
        assert cache.stats == reference.stats
        assert list(cache.resident_lines()) == reference.resident_lines()


@given(
    ways=st.integers(1, 4),
    sets=st.sampled_from([1, 2, 4]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["access"] * 8 + ["probe"] * 2 + ["flush"]),
            st.integers(0, 11),
        ),
        min_size=20,
        max_size=120,
    ),
)
@settings(max_examples=100, deadline=None)
def test_tlb_dict_sets_match_list_reference(ways, sets, ops):
    """The TLB's dict sets behave as per-set page-tag lists, MRU last."""
    tlb = TLB(TLBConfig(entries=ways * sets, associativity=ways, page_size=4096))
    tag_lists = [[] for _ in range(sets)]
    stats = TLBStats()
    for op, page in ops:
        address = page * 4096 + 8
        tags = tag_lists[page % sets]
        tag = page // sets
        if op == "flush":
            tlb.flush()
            tag_lists = [[] for _ in range(sets)]
            continue
        if op == "probe":
            assert tlb.probe(address) == (tag in tags)
            continue
        stats.accesses += 1
        hit = tag in tags
        if hit:
            tags.remove(tag)
        else:
            stats.misses += 1
        tags.append(tag)
        if len(tags) > ways:
            tags.pop(0)
        assert tlb.access(address) == hit
        assert tlb.stats == stats
        assert [[key // sets for key in keys] for keys in tlb._sets] == tag_lists
