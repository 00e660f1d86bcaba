"""Columnar vs scalar switch: bit-equality under randomized traffic.

The columnar fast path (``repro.perf.switch``) must be observably
indistinguishable from the scalar ``SwitchModel`` phases it stands in
for: identical output flits (cycle, frame, last, index), identical
``SwitchStats``, identical queue/cursor/partial state, and identical
trace-sink event streams.  Both work the model's one set of queues, so
Hypothesis drives twin switches through the same randomized scripts —
multi-flit frames straddling window boundaries, broadcasts, unroutable
unicasts, buffer-bound drops, and MAC-table edits mid-run — and asserts
equality after every window.
"""

from hypothesis import given, settings, strategies as st

from repro.core.token import TokenBatch, TokenWindow
from repro.net.ethernet import BROADCAST_MAC, EthernetFrame, mac_address
from repro.net.switch import SwitchConfig, SwitchModel
from repro.obs.trace import TraceSink, set_trace_sink
from repro.perf.stream import TokenStream
from repro.perf.switch import ColumnarBatch, ColumnarSwitch

WINDOW = 64
NUM_PORTS = 4
#: MACs the table knows about (one per port); mac_address(77) is
#: deliberately absent so it exercises default-port/unroutable paths.
KNOWN_MACS = [mac_address(i) for i in range(NUM_PORTS)]
UNKNOWN_MAC = mac_address(77)


@st.composite
def traffic_script(draw):
    """A randomized multi-window drive plan for one switch."""
    windows = draw(st.integers(min_value=3, max_value=7))
    pace = draw(st.sampled_from([1, 2]))
    buffer_flits = draw(st.sampled_from([8, 24, 16384]))
    default_port = draw(st.sampled_from([None, 1]))
    injections = {}
    count = draw(st.integers(min_value=1, max_value=24))
    for _ in range(count):
        window = draw(st.integers(min_value=0, max_value=windows - 1))
        port = draw(st.integers(min_value=0, max_value=NUM_PORTS - 1))
        offset = draw(st.integers(min_value=0, max_value=WINDOW + 40))
        dst = draw(
            st.sampled_from(KNOWN_MACS + [BROADCAST_MAC, UNKNOWN_MAC])
        )
        size = draw(st.sampled_from([64, 200, 600]))
        frame = EthernetFrame(src=mac_address(port), dst=dst, size_bytes=size)
        injections.setdefault((window, port), []).append((offset, frame))
    # One flit per cycle per ingress port: prune overlapping injections.
    # Offsets may exceed the window; flits spill into later windows,
    # which is exactly the straddling-ingress case under test.
    for key, entries in injections.items():
        entries.sort(key=lambda entry: entry[0])
        pruned = []
        cursor = -1
        for offset, frame in entries:
            if offset > cursor:
                pruned.append((offset, frame))
                cursor = offset + frame.flit_count
        injections[key] = pruned
    # Optional mid-run route-table churn: (window, kind) applied before
    # that window ticks, on both implementations.
    bumps = []
    if draw(st.booleans()):
        bumps.append(
            (draw(st.integers(min_value=1, max_value=windows - 1)), "remap")
        )
    if draw(st.booleans()):
        bumps.append(
            (draw(st.integers(min_value=1, max_value=windows - 1)), "default")
        )
    return {
        "windows": windows,
        "pace": pace,
        "buffer_flits": buffer_flits,
        "default_port": default_port,
        "injections": injections,
        "bumps": bumps,
    }


def build_switch(script):
    config = SwitchConfig(
        num_ports=NUM_PORTS,
        min_latency_cycles=10,
        cycles_per_flit=script["pace"],
        buffer_flits=script["buffer_flits"],
    )
    table = {mac: port for port, mac in enumerate(KNOWN_MACS)}
    return SwitchModel(
        "sw", config, mac_table=table, default_port=script["default_port"]
    )


def window_inputs(script, window_index, as_streams):
    """This window's input batches, every ingress flit at its cycle."""
    start = window_index * WINDOW
    inputs = {}
    for port in range(NUM_PORTS):
        flits = {}
        for injected_window in range(window_index + 1):
            for offset, frame in script["injections"].get(
                (injected_window, port), []
            ):
                base = injected_window * WINDOW + offset
                for index, flit in enumerate(frame.to_flits()):
                    cycle = base + index * 1
                    if start <= cycle < start + WINDOW:
                        flits[cycle] = flit
        if as_streams:
            inputs[f"port{port}"] = TokenStream.from_flits(
                start, WINDOW, flits
            )
        else:
            batch = TokenBatch.empty(start, WINDOW)
            for cycle in sorted(flits):
                batch.add(cycle, flits[cycle])
            inputs[f"port{port}"] = batch
    return inputs


def apply_bumps(script, window_index, model):
    for bump_window, kind in script["bumps"]:
        if bump_window != window_index:
            continue
        if kind == "remap":
            # Move the unknown MAC into the table: the very next
            # switching step must route by it.
            model.mac_table[UNKNOWN_MAC] = 2
        else:
            model.default_port = 3


def output_flits(batch):
    return [
        (cycle, flit.data.frame_id, flit.last, flit.index)
        for cycle, flit in sorted(batch.flits.items())
    ]


def queue_state(model):
    """Everything a switch carries from one window to the next."""
    queues = []
    for queue in model._out_queues:
        rows = slice(queue.head, queue.tail)
        order = list(
            zip(queue.release[rows].tolist(), queue.seq[rows].tolist())
        )
        # The invariant that lets enqueue be an append, not a heap push.
        assert order == sorted(order) and len(set(order)) == len(order)
        frames = queue.frame[rows].tolist()
        assert queue.size[rows].tolist() == [f.size_bytes for f in frames]
        assert queue.total[rows].tolist() == [f.flit_count for f in frames]
        queues.append(
            (order, [f.frame_id for f in frames], queue.head_emitted)
        )
    return (
        queues,
        list(model._port_next_free),
        [(frame and frame.frame_id, seen) for frame, seen in model._partial],
        model._seq,
    )


class RecordingSink(TraceSink):
    enabled = True

    def __init__(self):
        self.events = []

    def target_span(self, name, cat, start_cycle, end_cycle,
                    track="target", args=None):
        self.events.append(("span", name, cat, start_cycle, end_cycle,
                            track, tuple(sorted((args or {}).items()))))

    def target_instant(self, name, cat, cycle, track="target", args=None):
        self.events.append(("instant", name, cat, cycle, track,
                            tuple(sorted((args or {}).items()))))


def run_pair(script, as_streams, traced):
    """Drive scalar and columnar twins; return their observations."""
    scalar = build_switch(script)
    columnar = build_switch(script)
    assert columnar.columnar_safe
    observations = []
    scalar_sink = RecordingSink()
    columnar_sink = RecordingSink()
    try:
        for window_index in range(script["windows"] + 3):
            start = window_index * WINDOW
            window = TokenWindow(start, start + WINDOW)
            apply_bumps(script, window_index, scalar)
            apply_bumps(script, window_index, columnar)
            if traced:
                set_trace_sink(scalar_sink)
            scalar_out = scalar.tick(
                window, window_inputs(script, window_index, False)
            )
            if traced:
                set_trace_sink(columnar_sink)
            columnar_out = ColumnarSwitch(columnar).step(
                window, window_inputs(script, window_index, as_streams)
            )
            if traced:
                set_trace_sink(None)
            for port in range(NUM_PORTS):
                key = f"port{port}"
                assert (
                    output_flits(scalar_out[key])
                    == output_flits(columnar_out[key])
                ), f"window {window_index} {key} flits diverge"
                out = columnar_out[key]
                if type(out) is ColumnarBatch:
                    assert out.start_cycle == start
                    assert out.length == WINDOW
                    assert out.valid_count == len(out.flits)
            observations.append(repr(scalar.stats))
            assert repr(scalar.stats) == repr(columnar.stats), (
                f"stats diverge after window {window_index}"
            )
            assert queue_state(scalar) == queue_state(columnar), (
                f"queue state diverges after window {window_index}"
            )
    finally:
        set_trace_sink(None)
    if traced:
        assert scalar_sink.events == columnar_sink.events
    return observations


class TestColumnarEquality:
    @settings(max_examples=60, deadline=None)
    @given(script=traffic_script())
    def test_stream_inputs_bit_identical(self, script):
        run_pair(script, as_streams=True, traced=False)

    @settings(max_examples=40, deadline=None)
    @given(script=traffic_script())
    def test_batch_inputs_bit_identical(self, script):
        run_pair(script, as_streams=False, traced=False)

    @settings(max_examples=40, deadline=None)
    @given(script=traffic_script())
    def test_trace_events_bit_identical(self, script):
        """With a sink enabled the columnar phases must emit the exact
        scalar event stream — drops, enqueues, and dequeue spans
        interleaved in scalar pop order."""
        run_pair(script, as_streams=True, traced=True)

    def test_drop_storm_parity(self):
        """Deterministic worst case: heavy fan-in to one port with a
        tiny buffer forces interleaved drops and dequeues."""
        script = {
            "windows": 6,
            "pace": 1,
            "buffer_flits": 8,
            "default_port": None,
            "injections": {
                (w, p): [(0, EthernetFrame(
                    src=mac_address(p), dst=KNOWN_MACS[3], size_bytes=600,
                ))]
                for w in range(4) for p in range(3)
            },
            "bumps": [],
        }
        run_pair(script, as_streams=True, traced=True)

    def test_engines_alternate_on_one_model(self):
        """One model ticked scalar and columnar on alternate windows
        tracks an all-scalar twin: there is no representation to
        convert, so any window boundary is a valid switch-over point."""
        script = {
            "windows": 3,
            "pace": 1,
            "buffer_flits": 16384,
            "default_port": 1,
            "injections": {
                (0, 0): [(50, EthernetFrame(
                    src=mac_address(0), dst=KNOWN_MACS[2], size_bytes=600,
                ))],
                (1, 1): [(10, EthernetFrame(
                    src=mac_address(1), dst=UNKNOWN_MAC, size_bytes=200,
                ))],
                (1, 3): [(30, EthernetFrame(
                    src=mac_address(3), dst=BROADCAST_MAC, size_bytes=200,
                ))],
            },
            "bumps": [],
        }
        for columnar_first in (True, False):
            scalar = build_switch(script)
            hybrid = build_switch(script)
            for window_index in range(6):
                start = window_index * WINDOW
                window = TokenWindow(start, start + WINDOW)
                a = scalar.tick(
                    window, window_inputs(script, window_index, False)
                )
                if (window_index % 2 == 0) == columnar_first:
                    b = ColumnarSwitch(hybrid).step(
                        window, window_inputs(script, window_index, True)
                    )
                    # The batched engine maintains this after every step.
                    hybrid.current_cycle = window.end
                else:
                    b = hybrid.tick(
                        window, window_inputs(script, window_index, False)
                    )
                for port in range(NUM_PORTS):
                    key = f"port{port}"
                    assert output_flits(a[key]) == output_flits(b[key])
                assert repr(scalar.stats) == repr(hybrid.stats)
                assert queue_state(scalar) == queue_state(hybrid)
            assert scalar.stats.packets_out == 5  # 2 unicasts + 3 flooded
