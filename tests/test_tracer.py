"""Network tracing probes (repro.net.tracer)."""

import pytest

from repro.core.simulation import Simulation
from repro.net.ethernet import mac_address
from repro.net.switch import SwitchConfig, SwitchModel
from repro.net.tracer import splice_tracer
from repro.obs.trace import ChromeTraceSink, set_trace_sink
from repro.swmodel.apps.ping import RESULT_KEY, make_ping_client
from repro.swmodel.server import ServerBlade


def traced_pair(link_latency=6400, quantum_override=None):
    sim = Simulation(quantum_override=quantum_override)
    a = sim.add_model(ServerBlade("node0", node_index=0))
    b = sim.add_model(ServerBlade("node1", node_index=1))
    switch = sim.add_model(
        SwitchModel(
            "tor",
            SwitchConfig(num_ports=2),
            mac_table={mac_address(0): 0, mac_address(1): 1},
        )
    )
    tracer_a = splice_tracer(sim, a, "net", switch, "port0", link_latency, "trace-a")
    tracer_b = splice_tracer(sim, switch, "port1", b, "net", link_latency, "trace-b")
    return sim, a, b, tracer_a, tracer_b


class TestSplicing:
    def test_tracer_preserves_end_to_end_timing(self):
        """RTTs with a spliced tracer equal RTTs on a plain link."""

        def run(with_tracer):
            sim = Simulation()
            a = sim.add_model(ServerBlade("node0", node_index=0))
            b = sim.add_model(ServerBlade("node1", node_index=1))
            switch = sim.add_model(
                SwitchModel(
                    "tor",
                    SwitchConfig(num_ports=2),
                    mac_table={mac_address(0): 0, mac_address(1): 1},
                )
            )
            if with_tracer:
                splice_tracer(sim, a, "net", switch, "port0", 6400)
            else:
                sim.connect(a, "net", switch, "port0", 6400)
            sim.connect(switch, "port1", b, "net", 6400)
            a.spawn("ping", make_ping_client(b.mac, count=4, interval_cycles=80_000))
            sim.run_seconds(0.001)
            return tuple(a.results[RESULT_KEY])

        assert run(True) == run(False)

    def test_odd_latency_rejected(self):
        sim = Simulation()
        a = sim.add_model(ServerBlade("node0", node_index=0))
        b = sim.add_model(ServerBlade("node1", node_index=1))
        with pytest.raises(ValueError, match="odd"):
            splice_tracer(sim, a, "net", b, "net", 6401)

    def test_timing_invariance_under_small_quantum(self):
        """Splicing stays distortion-free when the round quantum is
        overridden to far less than the (half-)link latency: batching
        granularity must not change cycle arithmetic."""

        def rtts(quantum_override):
            sim, a, b, _, _ = traced_pair(
                link_latency=6400, quantum_override=quantum_override
            )
            a.spawn(
                "ping",
                make_ping_client(b.mac, count=3, interval_cycles=80_000),
            )
            sim.run_seconds(0.001)
            return tuple(a.results[RESULT_KEY])

        full = rtts(None)  # natural quantum: the 3200-cycle half link
        assert len(full) == 2  # count=3, first skipped (ARP)
        assert full == rtts(400)
        assert full == rtts(100)


class TestRecords:
    def test_packets_recorded_with_direction(self):
        sim, a, b, tracer_a, tracer_b = traced_pair()
        a.spawn("ping", make_ping_client(b.mac, count=3, interval_cycles=80_000))
        sim.run_seconds(0.001)
        requests = tracer_a.packets("a_to_b")
        replies = tracer_a.packets("b_to_a")
        assert len(requests) == 3
        assert len(replies) == 3
        for record in requests:
            assert record.src == a.mac
            assert record.dst == b.mac
            assert record.last_flit_cycle >= record.first_flit_cycle

    def test_packet_spans_land_in_trace_sink(self):
        """With a Chrome sink installed, every recorded packet also
        becomes a target-time span on the tracer's track."""
        sink = set_trace_sink(ChromeTraceSink())
        try:
            sim, a, b, tracer_a, _ = traced_pair()
            a.spawn(
                "ping",
                make_ping_client(b.mac, count=3, interval_cycles=80_000),
            )
            sim.run_seconds(0.001)
        finally:
            set_trace_sink(None)
        spans = [
            e for e in sink.events
            if e.get("cat") == "net" and e["tid"] and e.get("ph") == "X"
        ]
        by_track = [
            e for e in spans
            if e["args"].get("bytes") is not None
        ]
        # 3 requests + 3 replies per tracer, two tracers.
        assert len(by_track) == len(tracer_a.records) * 2 == 12
        record = tracer_a.packets("a_to_b")[0]
        match = [
            e for e in spans
            if e["name"] == "a_to_b"
            and e["args"]["start_cycle"] == record.first_flit_cycle
        ]
        assert match, "tracer record missing from the trace sink"

    def test_latency_probe_measures_switch_crossing(self):
        sim, a, b, tracer_a, tracer_b = traced_pair(link_latency=6400)
        a.spawn("ping", make_ping_client(b.mac, count=3, interval_cycles=80_000))
        sim.run_seconds(0.001)
        # Match packets seen at both tracers by frame identity.
        sent = {
            r.frame_id: r.last_flit_cycle
            for r in tracer_a.packets("a_to_b")
        }
        latencies = [
            r.last_flit_cycle - sent[r.frame_id]
            for r in tracer_b.packets("a_to_b") if r.frame_id in sent
        ]
        assert len(latencies) == 3
        # Path between tracers, last flit to last flit: half-link +
        # store-and-forward switch (release stamped at last ingress flit
        # + 10-cycle min latency, then the packet reserializes) +
        # half-link = link latency + 10 + (flits - 1).
        flits = -(-tracer_a.packets("a_to_b")[0].size_bytes // 8)
        assert all(lat == 6400 + 10 + flits - 1 for lat in latencies)
