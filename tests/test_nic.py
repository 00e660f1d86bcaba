"""NIC model (repro.nic.nic, §III-A2, Figure 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.token import TokenBatch, TokenWindow
from repro.net.ethernet import EthernetFrame, mac_address
from repro.nic.nic import NIC, NICConfig, _TxPacket
from repro.perf.stream import ColumnarBatch
from repro.tile.caches import CacheModel, L1D_CONFIG, L2_CONFIG, MemoryHierarchy
from repro.tile.dram import DRAMModel
from repro.tile.tilelink import TileLinkBus
from tests.hypothesis_budget import examples


def fresh_nic(**config_kwargs):
    hierarchy = MemoryHierarchy(
        CacheModel("l1", L1D_CONFIG),
        CacheModel("l2", L2_CONFIG),
        DRAMModel(),
        bus=TileLinkBus(),
    )
    return NIC("nic", hierarchy, NICConfig(**config_kwargs))


def frame(size=64, dst=1):
    return EthernetFrame(src=mac_address(0), dst=mac_address(dst), size_bytes=size)


def drain(nic, start, length):
    window = TokenWindow(start, start + length)
    batch = TokenBatch(window.start, window.length)
    nic.fill_tx(window, batch)
    return batch


def feed(nic, start, length, frames):
    """Deliver frames' flits to the NIC starting at ``start``."""
    batch = TokenBatch.empty(start, length)
    cycle = start
    for f in frames:
        for flit in f.to_flits():
            batch.add(cycle, flit)
            cycle += 1
    nic.receive_tokens(batch)


class TestSendPath:
    def test_post_send_emits_all_flits(self):
        nic = fresh_nic()
        f = frame(size=128)
        nic.post_send(0, f)
        batch = drain(nic, 0, 50_000)
        assert batch.valid_count == f.flit_count
        assert nic.stats.tx_frames == 1
        assert nic.stats.tx_bytes == 128

    def test_emission_waits_for_dma_and_aligner(self):
        nic = fresh_nic()
        nic.post_send(0, frame())
        batch = drain(nic, 0, 50_000)
        first_cycle = min(batch.flits)
        config = nic.config
        assert first_cycle >= (
            config.controller_latency_cycles + config.aligner_latency_cycles
        )

    def test_sent_cycle_recorded(self):
        nic = fresh_nic()
        f = frame()
        nic.post_send(0, f)
        batch = drain(nic, 0, 50_000)
        assert f.sent_cycle == min(batch.flits)

    def test_packets_emit_in_post_order(self):
        nic = fresh_nic()
        first, second = frame(), frame()
        nic.post_send(0, first)
        nic.post_send(0, second)
        batch = drain(nic, 0, 100_000)
        firsts = [c for c, fl in batch.flits.items() if fl.data is first]
        seconds = [c for c, fl in batch.flits.items() if fl.data is second]
        assert max(firsts) < min(seconds)

    def test_emission_straddles_windows(self):
        nic = fresh_nic()
        f = frame(size=1514)  # 190 flits
        nic.post_send(0, f)
        got = 0
        for start in range(0, 4096, 512):
            got += drain(nic, start, 512).valid_count
        assert got == f.flit_count

    def test_rate_limiter_paces_emission(self):
        nic = fresh_nic()
        nic.set_bandwidth(1, 4)  # quarter rate
        f = frame(size=512)
        nic.post_send(0, f)
        batch = drain(nic, 0, 100_000)
        cycles = sorted(batch.flits)
        assert len(cycles) == f.flit_count
        span = cycles[-1] - cycles[0]
        assert span >= (f.flit_count - 1) * 4 - 4

    def test_tx_backlog_visible(self):
        nic = fresh_nic()
        nic.post_send(0, frame())
        assert nic.tx_backlog == 1


class TestReceivePath:
    def test_complete_packet_dmas_and_completes(self):
        nic = fresh_nic()
        feed(nic, 0, 1000, [frame()])
        assert nic.stats.rx_frames == 1
        assert len(nic.rx_completions) == 1
        done, received = nic.rx_completions[0]
        assert done > 0

    def test_interrupt_fires_after_writes_retire(self):
        nic = fresh_nic()
        interrupts = []
        nic.interrupt_handler = lambda cy, kind, f: interrupts.append(
            (cy, kind)
        )
        feed(nic, 0, 1000, [frame()])
        rx = [i for i in interrupts if i[1] == "rx"]
        assert len(rx) == 1
        assert rx[0][0] >= 8  # after writer latency + DMA

    def test_buffer_full_drops_whole_packets(self):
        nic = fresh_nic(packet_buffer_bytes=256, rx_descriptors=0)
        # No descriptors posted: packets pile into the 256-byte buffer.
        feed(nic, 0, 4000, [frame(size=128), frame(size=128), frame(size=128)])
        assert nic.stats.rx_dropped_frames == 1
        assert nic.stats.rx_dropped_bytes == 128

    def test_descriptor_post_drains_waiting_packets(self):
        nic = fresh_nic(rx_descriptors=0)
        feed(nic, 0, 1000, [frame()])
        assert nic.stats.rx_frames == 0
        nic.post_recv_descriptors(2000, 1)
        assert nic.stats.rx_frames == 1

    def test_negative_descriptor_count_rejected(self):
        with pytest.raises(ValueError):
            fresh_nic().post_recv_descriptors(0, -1)

    def test_occupancy_returns_to_zero(self):
        nic = fresh_nic()
        feed(nic, 0, 1000, [frame()])
        assert nic.rx_buffer_occupancy == 0


# -- columnar blade edge: rows equal the per-flit spec --------------------


@st.composite
def tx_script(draw):
    """Limiter settings, queued frames and a window schedule.

    Window lengths run from a few cycles (cutting bursts) to past the
    6 400-cycle quantum (many frames), and the rate may change between
    windows.  Refill periods reach 256 cycles (100 Gbit/s), and the
    paper's 40 Gbit/s ``k=25, p=128`` over 6 400-cycle windows, Fig 6's
    shape, is drawn on purpose.
    """
    k, p = draw(st.one_of(
        st.just((25, 128)),
        st.integers(1, 256).flatmap(
            lambda p: st.tuples(st.integers(1, p), st.just(p))
        ),
    ))
    cap = draw(st.one_of(st.none(), st.integers(1, 3 * p)))
    credit = draw(st.integers(0, cap if cap is not None else k))
    frames = draw(st.lists(
        st.tuples(st.integers(64, 1514), st.integers(0, 400)),
        min_size=1, max_size=8,
    ))
    windows = draw(st.lists(
        st.one_of(st.just(6400), st.integers(1, 7000)),
        min_size=1, max_size=12,
    ))
    changes = draw(st.dictionaries(
        st.integers(0, 11),
        st.integers(1, 256).flatmap(
            lambda p2: st.tuples(st.integers(1, p2), st.just(p2))
        ),
        max_size=2,
    ))
    return (k, p, cap, credit), frames, windows, changes


def scripted_nic(limiter, frames):
    k, p, cap, credit = limiter
    nic = fresh_nic()
    nic.limiter.set_rate(k, p, cap)
    nic.limiter._count = credit
    ready = 0
    for size, gap in frames:
        ready += gap
        nic._tx_queue.append(_TxPacket(frame(size=size), ready))
    return nic


def tx_state(nic, packets):
    return (
        nic.limiter._count, nic.limiter._applied_periods,
        nic._emit_cursor, len(nic._tx_queue),
        [packet.flits_emitted for packet in packets],
        [packet.frame.sent_cycle for packet in packets],
        repr(nic.stats),
    )


class TestBurstRows:
    @settings(max_examples=examples(300), deadline=None)
    @given(script=tx_script())
    def test_rows_equal_the_per_flit_loop(self, script):
        limiter, frames, windows, changes = script
        spec, rows = scripted_nic(limiter, frames), scripted_nic(limiter, frames)
        spec_packets, rows_packets = list(spec._tx_queue), list(rows._tx_queue)
        position = {
            id(packet.frame): index
            for packets in (spec_packets, rows_packets)
            for index, packet in enumerate(packets)
        }
        start = 0
        for index, length in enumerate(windows):
            if index in changes:
                spec.set_bandwidth(*changes[index])
                rows.set_bandwidth(*changes[index])
            window = TokenWindow(start, start + length)
            expected = TokenBatch(window.start, window.length)
            spec.fill_tx(window, expected)
            got = rows.fill_tx(window)
            if got is None:
                # Nothing sent: no window is built at all.
                got = TokenBatch(window.start, window.length)
            else:
                assert type(got) is ColumnarBatch and got.valid_count >= 1
            assert got.start_cycle == start and got.length == length
            assert [
                (cycle, position[id(flit.data)], flit.index, flit.last)
                for cycle, flit in got.iter_flits()
            ] == [
                (cycle, position[id(flit.data)], flit.index, flit.last)
                for cycle, flit in expected.iter_flits()
            ]
            assert got.valid_count == expected.valid_count
            assert tx_state(rows, rows_packets) == tx_state(
                spec, spec_packets
            )
            start += length

    def test_unlimited_rate_is_one_row_per_frame(self):
        nic = fresh_nic()
        nic.post_send(0, frame(size=1514))
        nic.post_send(0, frame(size=1514))
        rows = nic.fill_tx(TokenWindow(0, 50_000))
        assert [row[2] for row in rows.rows] == [190, 190]
        assert [row[3] for row in rows.rows] == [0, 0]

    def test_forty_gbit_bursts_follow_the_refill_period(self):
        nic = fresh_nic()
        nic.set_bandwidth(25, 128)
        nic.post_send(0, frame(size=1514))
        rows = nic.fill_tx(TokenWindow(0, 50_000))
        assert [row[2] for row in rows.rows] == [25] * 7 + [15]
        firsts = [row[1] for row in rows.rows[1:]]
        assert [b - a for a, b in zip(firsts, firsts[1:])] == [128] * 6


def rows_of(start, length, frames, first_cycle):
    """Back-to-back whole-frame rows from ``first_cycle`` on."""
    rows = []
    for f in frames:
        rows.append((f, first_cycle, f.flit_count, 0, f.flit_count))
        first_cycle += f.flit_count
    return ColumnarBatch(start, length, 1, rows)


class TestReceiveRows:
    def test_overflow_drops_whole_frames_identically(self):
        sizes = [128, 64, 128, 1514, 64]
        outcomes = []
        for as_rows in (False, True):
            nic = fresh_nic(packet_buffer_bytes=256, rx_descriptors=0)
            frames = [frame(size=size) for size in sizes]
            batch = rows_of(0, 4000, frames, 10)
            nic.receive_tokens(batch if as_rows else batch.to_batch())
            outcomes.append((
                repr(nic.stats), nic.rx_buffer_occupancy,
                [(p.arrival_cycle, frames.index(p.frame))
                 for p in nic._rx_waiting],
            ))
        assert outcomes[0] == outcomes[1]
        assert "rx_dropped_frames=2" in outcomes[0][0]

    def test_frame_completes_at_its_done_row_only(self):
        f = frame(size=1514)  # 190 flits, split over two windows
        first = ColumnarBatch(0, 100, 1, [(f, 0, 100, 0, 190)])
        second = ColumnarBatch(100, 100, 1, [(f, 100, 90, 100, 190)])
        nic = fresh_nic()
        nic.receive_tokens(first)
        assert nic.stats.rx_frames == 0
        nic.receive_tokens(second)
        assert nic.stats.rx_frames == 1
        spec = fresh_nic()
        spec.receive_tokens(first.to_batch())
        spec.receive_tokens(second.to_batch())
        assert nic.rx_completions[0][0] == spec.rx_completions[0][0]
