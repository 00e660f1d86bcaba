"""TileLink interconnect occupancy (repro.tile.tilelink)."""

import pytest

from repro.tile.tilelink import TileLinkBus


class TestTileLinkBus:
    def test_burst_occupies_one_beat_per_8_bytes(self):
        bus = TileLinkBus()
        assert bus.acquire(0, 64) == 8

    def test_partial_beat_rounds_up(self):
        bus = TileLinkBus()
        assert bus.acquire(0, 9) == 2

    def test_contention_serializes(self):
        bus = TileLinkBus()
        first = bus.acquire(0, 64)
        second = bus.acquire(0, 64)
        assert second == first + 8
        assert bus.stats.stall_cycles == first

    def test_idle_bus_no_stall(self):
        bus = TileLinkBus()
        bus.acquire(0, 64)
        bus.acquire(100, 64)
        assert bus.stats.stall_cycles == 0

    def test_stats_accumulate(self):
        bus = TileLinkBus()
        bus.acquire(0, 64)
        bus.acquire(0, 16)
        assert bus.stats.requests == 2
        assert bus.stats.beats == 8 + 2

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            TileLinkBus().acquire(0, 0)

    @pytest.mark.parametrize("busy_from", [0, 5, 500])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_counted_bursts_equal_single_bursts(self, busy_from, count):
        single, counted = TileLinkBus(), TileLinkBus()
        single.acquire(busy_from, 40)
        counted.acquire(busy_from, 40)
        for _ in range(count):
            done = single.acquire(20, 64)
        assert counted.acquire(20, 64, count) == done
        assert counted.busy_until == single.busy_until
        assert counted.stats == single.stats

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            TileLinkBus().acquire(0, 64, 0)

    def test_busy_until_tracks_completion(self):
        bus = TileLinkBus()
        done = bus.acquire(10, 32)
        assert bus.busy_until == done
