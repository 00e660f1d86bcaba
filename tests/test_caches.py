"""Cache timing models (repro.tile.caches, Table I geometries)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tile.caches import (
    CacheConfig,
    CacheModel,
    L1D_CONFIG,
    L1I_CONFIG,
    L2_CONFIG,
    MemoryHierarchy,
)
from repro.tile.dram import DRAMConfig, DRAMModel
from repro.tile.tilelink import TileLinkBus
from tests.hypothesis_budget import examples


class TestTableIGeometries:
    def test_l1_sizes(self):
        assert L1I_CONFIG.size_bytes == 16 * 1024
        assert L1D_CONFIG.size_bytes == 16 * 1024

    def test_l2_size(self):
        assert L2_CONFIG.size_bytes == 256 * 1024

    def test_set_counts(self):
        assert L1D_CONFIG.num_sets == 16 * 1024 // (4 * 64)
        assert L2_CONFIG.num_sets == 256 * 1024 // (8 * 64)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, ways=3, hit_latency_cycles=1)

    @pytest.mark.parametrize(
        "geometry",
        [
            dict(size_bytes=0, ways=4),
            dict(size_bytes=-256, ways=4),
            dict(size_bytes=256, ways=0),
            dict(size_bytes=256, ways=-1),
            dict(size_bytes=256, ways=4, line_bytes=0),
            dict(size_bytes=256, ways=4, line_bytes=-64),
            dict(size_bytes=256, ways=4, hit_latency_cycles=-1),
        ],
    )
    def test_impossible_geometry_rejected(self, geometry):
        with pytest.raises(ValueError):
            CacheConfig(**{"hit_latency_cycles": 1, **geometry})

    def test_zero_hit_latency_allowed(self):
        assert CacheConfig(256, 4, 0).num_sets == 1


class TestCacheModel:
    def test_cold_miss_then_hit(self):
        cache = CacheModel("c", L1D_CONFIG)
        hit, _ = cache.lookup(0x1000, False)
        assert not hit
        hit, _ = cache.lookup(0x1000, False)
        assert hit

    def test_same_line_different_byte_hits(self):
        cache = CacheModel("c", L1D_CONFIG)
        cache.lookup(0x1000, False)
        hit, _ = cache.lookup(0x103F, False)
        assert hit

    def test_lru_eviction_order(self):
        config = CacheConfig(size_bytes=2 * 64, ways=2, hit_latency_cycles=1)
        cache = CacheModel("tiny", config)  # 1 set, 2 ways
        cache.lookup(0 * 64, False)  # A
        cache.lookup(1 * 64, False)  # B
        cache.lookup(0 * 64, False)  # touch A: B becomes LRU
        cache.lookup(2 * 64, False)  # C evicts B
        hit_a, _ = cache.lookup(0 * 64, False)
        assert hit_a
        hit_b, _ = cache.lookup(1 * 64, False)
        assert not hit_b  # B was evicted

    def test_dirty_eviction_reports_writeback(self):
        config = CacheConfig(size_bytes=2 * 64, ways=2, hit_latency_cycles=1)
        cache = CacheModel("tiny", config)
        cache.lookup(0, True)  # dirty A
        cache.lookup(64, False)
        _, writeback = cache.lookup(128, False)  # evicts dirty A
        assert writeback == 0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        config = CacheConfig(size_bytes=2 * 64, ways=2, hit_latency_cycles=1)
        cache = CacheModel("tiny", config)
        cache.lookup(0, False)
        cache.lookup(64, False)
        _, writeback = cache.lookup(128, False)
        assert writeback is None

    def test_invalidate_all(self):
        cache = CacheModel("c", L1D_CONFIG)
        for i in range(10):
            cache.lookup(i * 64, False)
        assert cache.occupancy() == 10
        assert cache.invalidate_all() == 10
        assert cache.occupancy() == 0

    def test_miss_rate(self):
        cache = CacheModel("c", L1D_CONFIG)
        cache.lookup(0, False)
        cache.lookup(0, False)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    @settings(max_examples=examples(25))
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, lines):
        config = CacheConfig(size_bytes=8 * 64, ways=2, hit_latency_cycles=1)
        cache = CacheModel("tiny", config)
        for line in lines:
            cache.lookup(line * 64, False)
        assert cache.occupancy() <= 8


class TestMemoryHierarchy:
    def make(self):
        dram = DRAMModel()
        l1 = CacheModel("l1", L1D_CONFIG)
        l2 = CacheModel("l2", L2_CONFIG)
        return MemoryHierarchy(l1, l2, dram), l1, l2

    def test_latency_ordering(self):
        hierarchy, _, _ = self.make()
        cold = hierarchy.access(0, 0x1000)
        l1_hit = hierarchy.access(1000, 0x1000)
        assert l1_hit == L1D_CONFIG.hit_latency_cycles
        assert cold > l1_hit

    def test_l2_hit_latency_between_l1_and_dram(self):
        hierarchy, l1, _ = self.make()
        hierarchy.access(0, 0x1000)  # fill both
        l1.invalidate_all()
        l2_hit = hierarchy.access(1000, 0x1000)
        assert l2_hit == (
            L1D_CONFIG.hit_latency_cycles + L2_CONFIG.hit_latency_cycles
        )

    def test_dma_bypasses_l1(self):
        hierarchy, l1, l2 = self.make()
        hierarchy.dma_access(0, 0x2000, 512, is_write=True)
        assert l1.stats.accesses == 0
        assert l2.stats.accesses > 0

    def test_dma_l2_resident_faster_than_dram(self):
        hierarchy, _, _ = self.make()
        cold_done = hierarchy.dma_access(0, 0x4000, 1024, is_write=False)
        warm_done = (
            hierarchy.dma_access(cold_done, 0x4000, 1024, is_write=False)
            - cold_done
        )
        assert warm_done < cold_done

    def test_dma_with_bus_is_beat_limited(self):
        dram = DRAMModel()
        l2 = CacheModel("l2", L2_CONFIG)
        bus = TileLinkBus()
        hierarchy = MemoryHierarchy(
            CacheModel("l1", L1D_CONFIG), l2, dram, bus=bus
        )
        hierarchy.dma_access(0, 0x8000, 512, is_write=False)  # warm L2
        start = 100_000
        done = hierarchy.dma_access(start, 0x8000, 512, is_write=False)
        # 512 B = 8 lines; L2-resident DMA paces at 8 beats (cycles)/line.
        assert done - start == 8 * 8


def per_line_lookup(cache, addr, is_write):
    """One line's LRU access, written out independently of the model."""
    num_sets = cache.config.num_sets
    line = addr // cache.config.line_bytes
    set_index, tag = line % num_sets, line // num_sets
    cache_set = cache._sets[set_index]
    if tag in cache_set:
        cache.stats.hits += 1
        cache_set.move_to_end(tag)
        if is_write:
            cache_set[tag] = True
        return True, None
    cache.stats.misses += 1
    writeback = None
    if len(cache_set) >= cache.config.ways:
        victim_tag, dirty = cache_set.popitem(last=False)
        cache.stats.evictions += 1
        if dirty:
            cache.stats.writebacks += 1
            victim_line = victim_tag * num_sets + set_index
            writeback = victim_line * cache.config.line_bytes
    cache_set[tag] = is_write
    return False, writeback


def per_line_dma(hierarchy, cycle, addr, size, is_write):
    """The spec of ``MemoryHierarchy.dma_access``: one L2 lookup, then one
    bus burst (hit) or victim writeback plus DRAM access (miss), per line."""
    l2 = hierarchy.l2
    line = l2.config.line_bytes
    completion = cycle
    for line_index in range(addr // line, (addr + max(size, 1) - 1) // line + 1):
        line_addr = line_index * line
        hit, writeback = per_line_lookup(l2, line_addr, is_write)
        if hit:
            if hierarchy.bus is not None:
                done = hierarchy.bus.acquire(cycle, line)
            else:
                done = completion + l2.config.hit_latency_cycles
        else:
            if writeback is not None:
                hierarchy.dram.access(cycle, writeback, True)
            done = hierarchy.dram.access(cycle, line_addr, is_write)
        completion = max(completion, done)
    return completion


def timing_state(hierarchy):
    """Everything a DMA transfer can change, in comparable form."""
    dram = hierarchy.dram
    bus = hierarchy.bus
    return {
        "l2_sets": [list(s.items()) for s in hierarchy.l2._sets],
        "l2_stats": hierarchy.l2.stats,
        "bus": None if bus is None else (bus.busy_until, bus.stats),
        "dram_stats": dram.stats,
        "dram_banks": [
            [(b.open_row, b.busy_until, b.active_since) for b in channel]
            for channel in dram._banks
        ],
        "dram_bus_free": list(dram._bus_free),
    }


transfers = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20_000),  # request cycle
        st.integers(min_value=0, max_value=64 * 96),  # address
        st.integers(min_value=1, max_value=4096),  # size
        st.booleans(),  # is_write
    ),
    min_size=1,
    max_size=8,
)


def dma_hierarchies(sets, ways, with_bus):
    """Two identical few-line-L2 hierarchies: one to run, one for the spec."""
    l2_config = CacheConfig(
        size_bytes=sets * ways * 64, ways=ways, hit_latency_cycles=12
    )

    def build():
        return MemoryHierarchy(
            CacheModel("l1", L1D_CONFIG),
            CacheModel("l2", l2_config),
            DRAMModel(DRAMConfig(banks_per_channel=2, row_bytes=256)),
            bus=TileLinkBus() if with_bus else None,
        )

    return build(), build()


@st.composite
def repeated_ranges(draw):
    """Steps over a pool of 2-3 DMA ranges, so ranges recur back to back.

    A step is a transfer of one pool range (read or write, so a write
    follows a read of the same range), a single-line ``lookup`` inside
    or outside a range, or an ``invalidate_all``.  Ranges run from one
    line to well past ``num_sets`` lines.
    """
    pool = draw(st.lists(
        st.tuples(
            st.integers(0, 64 * 40),  # address
            st.one_of(  # size: mostly within num_sets lines
                st.integers(1, 64 * 3), st.integers(1, 64 * 12)
            ),
        ),
        min_size=2,
        max_size=3,
    ))
    transfer = st.tuples(
        st.just("dma"),
        st.integers(0, len(pool) - 1),
        st.booleans(),
        st.integers(0, 20_000),  # request cycle
    )
    step = st.one_of(
        transfer,
        transfer,
        st.tuples(
            st.just("lookup"),
            st.integers(0, len(pool) - 1),
            st.booleans(),
            st.integers(-64, 64 * 12),  # offset from the range's address
        ),
        st.tuples(st.just("invalidate")),
    )
    steps = draw(st.lists(step, min_size=1, max_size=16))
    return pool, steps


class TestDmaPass:
    @settings(max_examples=examples(150), deadline=None)
    @given(
        script=repeated_ranges(),
        sets=st.sampled_from([1, 2, 4, 8]),
        ways=st.sampled_from([1, 2, 4]),
        with_bus=st.booleans(),
    )
    def test_repeated_range_matches_per_line_loop(
        self, script, sets, ways, with_bus
    ):
        """A transfer that repeats the L2's last range skips its walk;
        every step still equals the per-line spec."""
        pool, steps = script
        fast, spec = dma_hierarchies(sets, ways, with_bus)
        for step in steps:
            if step[0] == "dma":
                _, which, is_write, cycle = step
                addr, size = pool[which]
                assert fast.dma_access(
                    cycle, addr, size, is_write
                ) == per_line_dma(spec, cycle, addr, size, is_write)
            elif step[0] == "lookup":
                _, which, is_write, offset = step
                addr = max(pool[which][0] + offset, 0)
                assert fast.l2.lookup(addr, is_write) == per_line_lookup(
                    spec.l2, addr, is_write
                )
            else:
                assert fast.l2.invalidate_all() == spec.l2.invalidate_all()
            assert timing_state(fast) == timing_state(spec)

    def test_stream_buffer_repeats_skip_the_walk(self):
        """A stream's fixed buffer: repeats are hits, and a write after a
        read of the same range still marks it dirty."""
        fast, spec = dma_hierarchies(sets=8, ways=2, with_bus=True)
        for cycle, is_write in [(0, False), (100, False), (200, True),
                                (300, True), (400, False)]:
            assert fast.dma_access(cycle, 0x100, 512, is_write) == (
                per_line_dma(spec, cycle, 0x100, 512, is_write)
            )
            assert timing_state(fast) == timing_state(spec)
        assert (fast.l2.stats.hits, fast.l2.stats.misses) == (32, 8)
        assert all(
            dirty for s in fast.l2._sets for dirty in s.values()
        )

    @settings(max_examples=examples(80), deadline=None)
    @given(
        transfers=transfers,
        sets=st.sampled_from([1, 2, 4]),
        ways=st.sampled_from([1, 2, 4]),
        channels=st.sampled_from([1, 2]),
        with_bus=st.booleans(),
        bus_busy_bytes=st.integers(min_value=0, max_value=2000),
    )
    def test_matches_per_line_loop(
        self, transfers, sets, ways, channels, with_bus, bus_busy_bytes
    ):
        # A few-line L2 forces evictions and dirty writebacks; a small
        # DRAM row makes open-row hits, misses and conflicts all occur.
        l2_config = CacheConfig(
            size_bytes=sets * ways * 64, ways=ways, hit_latency_cycles=12
        )
        dram_config = DRAMConfig(
            num_channels=channels, banks_per_channel=2, row_bytes=256
        )

        def build():
            bus = None
            if with_bus:
                bus = TileLinkBus()
                if bus_busy_bytes:
                    bus.acquire(0, bus_busy_bytes)
            return MemoryHierarchy(
                CacheModel("l1", L1D_CONFIG),
                CacheModel("l2", l2_config),
                DRAMModel(dram_config),
                bus=bus,
            )

        fast, spec = build(), build()
        for cycle, addr, size, is_write in transfers:
            assert fast.dma_access(cycle, addr, size, is_write) == per_line_dma(
                spec, cycle, addr, size, is_write
            )
            assert timing_state(fast) == timing_state(spec)

    def test_access_lines_reports_misses_in_order(self):
        config = CacheConfig(size_bytes=2 * 64, ways=1, hit_latency_cycles=1)
        cache = CacheModel("tiny", config)  # 2 sets, 1 way
        cache.lookup(1 * 64, True)  # dirty line 1 (set 1)
        # Lines 1..4: hit, miss, miss (evicts dirty line 1), miss.
        assert cache.access_lines(1, 4, False) == [(1, None), (2, 64), (3, None)]
        assert (cache.stats.hits, cache.stats.misses) == (1, 4)
        assert cache.stats.writebacks == 1
