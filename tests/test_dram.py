"""DDR3 DRAM timing model (repro.tile.dram)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tile.dram import DRAMConfig, DRAMModel


def fresh_dram(**kwargs):
    return DRAMModel(DRAMConfig(**kwargs))


class TestRowBuffer:
    def test_first_access_is_a_row_miss(self):
        dram = fresh_dram()
        dram.access(0, 0)
        assert dram.stats.row_misses == 1

    def test_same_row_hits(self):
        dram = fresh_dram()
        # Lines interleave across banks at 64 B; the same (bank, row)
        # repeats every banks*channels*64 bytes.
        same_bank_stride = 64 * dram.config.banks_per_channel
        done = dram.access(0, 0)
        dram.access(done, same_bank_stride)  # same bank, same row
        assert dram.stats.row_hits == 1

    def test_row_hit_faster_than_miss(self):
        dram = fresh_dram()
        same_bank_stride = 64 * dram.config.banks_per_channel
        miss_done = dram.access(0, 0)
        miss_latency = miss_done
        hit_done = dram.access(miss_done, same_bank_stride)
        hit_latency = hit_done - miss_done
        assert hit_latency < miss_latency

    def test_row_conflict_slowest(self):
        dram = fresh_dram()
        config = dram.config
        # Two addresses in the same bank, different rows: stride by
        # row_bytes * banks * channels.
        stride = config.row_bytes * config.banks_per_channel * config.num_channels
        first_done = dram.access(0, 0)
        conflict_done = dram.access(first_done, stride)
        conflict_latency = conflict_done - first_done
        hit_probe = fresh_dram()
        base = hit_probe.access(0, 0)
        hit_latency = hit_probe.access(base, 64) - base
        assert conflict_latency > hit_latency
        assert dram.stats.row_conflicts == 1

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            fresh_dram().access(0, -64)


class TestChannelBus:
    def test_bus_serializes_concurrent_bursts(self):
        dram = fresh_dram(banks_per_channel=8)
        # Issue to two different banks at the same cycle: the second
        # burst must wait for the first on the shared data bus.
        done_a = dram.access(0, 0)
        done_b = dram.access(0, 64 * dram.config.num_channels * 1)  # other bank
        assert done_b != done_a

    def test_multi_channel_parallelism(self):
        single = fresh_dram(num_channels=1)
        quad = fresh_dram(num_channels=4)
        # Four 64-byte accesses striped across channels finish sooner
        # with four channels.
        single_done = max(single.access(0, i * 64) for i in range(4))
        quad_done = max(quad.access(0, i * 64) for i in range(4))
        assert quad_done < single_done


class TestMonotonicity:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**24),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_completions_never_precede_issue(self, accesses):
        dram = fresh_dram()
        cycle = 0
        for addr, is_write in accesses:
            done = dram.access(cycle, addr * 64, is_write)
            assert done > cycle
            cycle = done

    def test_stats_read_write_split(self):
        dram = fresh_dram()
        dram.access(0, 0, is_write=False)
        dram.access(100, 64, is_write=True)
        assert dram.stats.reads == 1
        assert dram.stats.writes == 1

    def test_idle_latency_positive(self):
        assert fresh_dram().idle_latency_cycles > 0
