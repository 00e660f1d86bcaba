"""Switch model behaviour (repro.net.switch, paper §III-B1)."""

import json

import pytest

from repro.core.token import TokenBatch, TokenWindow
from repro.net.ethernet import BROADCAST_MAC, EthernetFrame, mac_address
from repro.net.switch import SwitchConfig, SwitchModel
from repro.obs.trace import set_trace_sink
from repro.perf.switch import ColumnarSwitch
from tests.test_columnar_switch import RecordingSink


def make_switch(ports=3, min_latency=10, mac_table=None, default_port=None,
                buffer_flits=16384, cycles_per_flit=1):
    return SwitchModel(
        "sw",
        SwitchConfig(
            num_ports=ports,
            min_latency_cycles=min_latency,
            buffer_flits=buffer_flits,
            cycles_per_flit=cycles_per_flit,
        ),
        mac_table=mac_table or {},
        default_port=default_port,
    )


def tick(switch, window_start, window_len, injections):
    """Drive one window; injections maps port index -> [(cycle, frame)]."""
    window = TokenWindow(window_start, window_start + window_len)
    inputs = {}
    for port in range(switch.config.num_ports):
        batch = TokenBatch.empty(window_start, window_len)
        for cycle, frame in injections.get(port, []):
            for index, flit in enumerate(frame.to_flits()):
                batch.add(cycle + index, flit)
        inputs[f"port{port}"] = batch
    return switch.tick(window, inputs)


def frame_to(dst, size=64):
    return EthernetFrame(src=mac_address(7), dst=dst, size_bytes=size)


def egress_cycles(batch):
    return [cycle for cycle, flit in batch.iter_flits()]


class TestRouting:
    def test_unicast_follows_mac_table(self):
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 2})
        outputs = tick(switch, 0, 100, {0: [(0, frame_to(mac))]})
        assert outputs["port2"].valid_count == 8
        assert outputs["port1"].valid_count == 0

    def test_unknown_mac_uses_default_port(self):
        switch = make_switch(default_port=1)
        outputs = tick(switch, 0, 100, {0: [(0, frame_to(mac_address(99)))]})
        assert outputs["port1"].valid_count == 8

    def test_unknown_mac_without_default_dropped(self):
        switch = make_switch()
        outputs = tick(switch, 0, 100, {0: [(0, frame_to(mac_address(99)))]})
        assert all(b.valid_count == 0 for b in outputs.values())

    def test_broadcast_floods_all_but_ingress(self):
        switch = make_switch(ports=4)
        outputs = tick(switch, 0, 100, {1: [(0, frame_to(BROADCAST_MAC))]})
        assert outputs["port1"].valid_count == 0
        for port in (0, 2, 3):
            assert outputs[f"port{port}"].valid_count == 8
        assert switch.stats.broadcasts == 1

    def test_table_edits_between_ticks_reroute_the_next_packet(self):
        mac = mac_address(1)
        switch = make_switch(ports=4, mac_table={mac: 1})
        switch.mac_table[mac] = 2
        outputs = tick(switch, 0, 100, {0: [(0, frame_to(mac))]})
        assert outputs["port2"].valid_count == 8
        del switch.mac_table[mac]
        switch.default_port = 3
        outputs = tick(switch, 100, 100, {0: [(100, frame_to(mac))]})
        assert outputs["port3"].valid_count == 8
        switch.default_port = None
        outputs = tick(switch, 200, 100, {0: [(200, frame_to(mac))]})
        assert all(b.valid_count == 0 for b in outputs.values())
        assert switch.stats.packets_dropped == 1

    def test_broadcast_on_one_port_switch_goes_nowhere(self):
        switch = make_switch(ports=1)
        outputs = tick(switch, 0, 100, {0: [(0, frame_to(BROADCAST_MAC))]})
        assert outputs["port0"].valid_count == 0
        assert switch.stats.broadcasts == 1
        assert switch.stats.packets_dropped == 0
        assert switch.queued_packets() == 0


class TestTiming:
    def test_store_and_forward_releases_after_last_flit_plus_latency(self):
        mac = mac_address(1)
        switch = make_switch(min_latency=10, mac_table={mac: 1})
        frame = frame_to(mac)  # 8 flits: last arrives at cycle 7
        outputs = tick(switch, 0, 100, {0: [(0, frame)]})
        cycles = egress_cycles(outputs["port1"])
        assert cycles[0] == 7 + 10  # arrival of last token + min latency
        assert cycles == list(range(17, 25))

    def test_min_latency_configurable(self):
        mac = mac_address(1)
        switch = make_switch(min_latency=50, mac_table={mac: 1})
        outputs = tick(switch, 0, 100, {0: [(0, frame_to(mac))]})
        assert egress_cycles(outputs["port1"])[0] == 7 + 50

    def test_contending_packets_serialize_on_output_port(self):
        mac = mac_address(1)
        switch = make_switch(ports=3, mac_table={mac: 2})
        outputs = tick(
            switch,
            0,
            200,
            {0: [(0, frame_to(mac))], 1: [(0, frame_to(mac))]},
        )
        cycles = egress_cycles(outputs["port2"])
        assert len(cycles) == 16
        # Both packets timestamped identically; they serialize back-to-back.
        assert cycles == list(range(17, 33))

    def test_packet_straddles_window_boundary(self):
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 1})
        outputs = tick(switch, 0, 20, {0: [(10, frame_to(mac))]})
        first = egress_cycles(outputs["port1"])
        # last flit at 17, +10 latency => egress from 27: next window.
        assert first == []
        outputs = tick(switch, 20, 20, {})
        second = egress_cycles(outputs["port1"])
        assert second == list(range(27, 35))

    def test_egress_pacing_with_cycles_per_flit(self):
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 1}, cycles_per_flit=4)
        outputs = tick(switch, 0, 100, {0: [(0, frame_to(mac))]})
        cycles = egress_cycles(outputs["port1"])
        assert cycles == list(range(17, 17 + 8 * 4, 4))


class TestCongestionAndDrops:
    def test_drop_when_packet_lags_beyond_buffer(self):
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 1}, buffer_flits=16)
        # Keep the output port saturated: inject 8 frames per window from
        # two ingress ports; the port drains 1 flit/cycle so the queue
        # builds until packets exceed the 16-flit lag bound and drop.
        for window_index in range(6):
            start = window_index * 64
            injections = {
                0: [(start + i * 8, frame_to(mac)) for i in range(8)],
                2: [(start + i * 8, frame_to(mac)) for i in range(8)],
            }
            tick(switch, start, 64, injections)
        assert switch.stats.packets_dropped > 0
        assert (
            switch.stats.packets_in
            == switch.stats.packets_out
            + switch.stats.packets_dropped
            + switch.queued_packets()
        )

    def test_no_drops_below_buffer_bound(self):
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 1}, buffer_flits=100_000)
        for window_index in range(4):
            start = window_index * 64
            tick(switch, start, 64, {0: [(start, frame_to(mac))]})
        assert switch.stats.packets_dropped == 0


class TestStats:
    def test_bytes_and_packets_counted(self):
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 1})
        tick(switch, 0, 200, {0: [(0, frame_to(mac, size=128))]})
        assert switch.stats.packets_in == 1
        assert switch.stats.packets_out == 1
        assert switch.stats.bytes_in == 128
        assert switch.stats.bytes_out == 128

    def test_bytes_in_counts_ingress_even_when_dropped(self):
        """Ingress accounting is independent of egress fate, so ingress
        utilization is computable from bytes_in alone."""
        switch = make_switch()  # no MAC table, no default: all dropped
        tick(switch, 0, 200, {0: [(0, frame_to(mac_address(5), size=256))]})
        assert switch.stats.bytes_in == 256
        assert switch.stats.bytes_out == 0

    def test_byte_conservation_through_congestion(self):
        """bytes_in == bytes_out + bytes_dropped + queued bytes, even
        while the output port is saturated and dropping."""
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 1}, buffer_flits=16)
        for window_index in range(6):
            start = window_index * 64
            injections = {
                0: [(start + i * 8, frame_to(mac)) for i in range(8)],
                2: [(start + i * 8, frame_to(mac)) for i in range(8)],
            }
            tick(switch, start, 64, injections)
            stats = switch.stats
            assert stats.bytes_in == (
                stats.bytes_out + stats.bytes_dropped + switch.queued_bytes()
            )
        assert switch.stats.packets_dropped > 0
        assert switch.stats.bytes_dropped == 64 * switch.stats.packets_dropped

    def test_byte_conservation_after_drain(self):
        """Once the queues drain with no drops, every ingress byte has
        egressed exactly once."""
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 1})
        tick(switch, 0, 64, {0: [(0, frame_to(mac, size=200))]})
        tick(switch, 64, 200, {})
        assert switch.queued_packets() == 0
        assert switch.stats.bytes_in == switch.stats.bytes_out == 200
        assert switch.stats.bytes_dropped == 0

    def test_bandwidth_probe_records_egress(self):
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 1})
        switch.enable_bandwidth_probe()
        tick(switch, 0, 200, {0: [(0, frame_to(mac))]})
        assert len(switch.egress_log) == 1
        cycle, size = switch.egress_log[0]
        assert size == 64


def plain(value):
    """True when ``value`` is built of JSON-native Python types only
    (``numpy.int64`` is not an ``int`` subclass, so it fails)."""
    if isinstance(value, (list, tuple)):
        return all(plain(item) for item in value)
    if isinstance(value, dict):
        return all(plain(k) and plain(v) for k, v in value.items())
    return value is None or type(value) in (int, str, bool)


class TestSharedQueues:
    def test_scalar_tick_over_columnar_queues_stays_numpy_free(self):
        """Whichever phase filled the queues, nothing a scalar tick
        hands out may carry a non-native scalar (``numpy.int64`` once
        did, when the queues were numpy columns)."""
        mac = mac_address(1)
        switch = make_switch(mac_table={mac: 1}, buffer_flits=4)
        switch.enable_bandwidth_probe()
        window = TokenWindow(0, 64)
        inputs = {}
        for port in range(3):
            batch = TokenBatch.empty(0, 64)
            if port != 1:
                for start in (40, 48, 56):
                    for index, flit in enumerate(frame_to(mac).to_flits()):
                        batch.add(start + index, flit)
            inputs[f"port{port}"] = batch
        ColumnarSwitch(switch).step(window, inputs)
        switch.current_cycle = 64
        assert switch.queued_packets() > 0
        sink = RecordingSink()
        set_trace_sink(sink)
        try:
            outputs = tick(
                switch, 64, 64, {0: [(64, frame_to(mac_address(9)))]}
            )
        finally:
            set_trace_sink(None)
        cycles = egress_cycles(outputs["port1"])
        assert cycles and plain(cycles)
        assert switch.egress_log and plain(switch.egress_log)
        assert {event[1] for event in sink.events} >= {"drop", "dequeue"}
        assert plain(sink.events)
        json.dumps([cycles, switch.egress_log, sink.events])
        assert plain([
            switch.queued_packets(), switch.queued_bytes(),
            switch._port_next_free, switch._seq,
        ])
        assert "np." not in repr(switch.stats)


class TestConfigValidation:
    def test_bad_port_count(self):
        with pytest.raises(ValueError):
            SwitchConfig(num_ports=0)

    def test_bad_latency(self):
        with pytest.raises(ValueError):
            SwitchConfig(num_ports=2, min_latency_cycles=-1)

    def test_bad_pacing(self):
        with pytest.raises(ValueError):
            SwitchConfig(num_ports=2, cycles_per_flit=0)

    def test_bad_buffer(self):
        with pytest.raises(ValueError):
            SwitchConfig(num_ports=2, buffer_flits=0)
