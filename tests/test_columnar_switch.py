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
def traffic_script(draw, rows=False):
    """A randomized multi-window drive plan for one switch.

    ``rows`` scripts are fed as ``ColumnarBatch`` rows, which cannot
    carry one frame's flits overwritten by another's, so their frames
    never overlap on a port.  Other scripts only keep each window's own
    injections apart: a frame spilling out of window w may overwrite
    window w+1's on the same port, and both sides must agree on the
    partial reassembly that leaves.
    """
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
    # One flit per cycle per ingress port: prune injections overlapping
    # an earlier one of the same window and port — for rows, of any
    # window on that port.  Offsets may exceed the window; flits spill
    # into later windows, which is exactly the straddling-ingress case
    # under test.
    by_start = sorted(
        (
            (window * WINDOW + offset, port, window, offset, frame)
            for (window, port), entries in injections.items()
            for offset, frame in entries
        ),
        key=lambda entry: entry[:4],
    )
    injections = {}
    cursors = {}
    for start, port, window, offset, frame in by_start:
        key = port if rows else (window, port)
        if start > cursors.get(key, -1):
            injections.setdefault((window, port), []).append((offset, frame))
            cursors[key] = start + frame.flit_count
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
        "egress_log": draw(st.booleans()),
    }


def build_switch(script):
    ports = script.get("ports", NUM_PORTS)
    config = SwitchConfig(
        num_ports=ports,
        min_latency_cycles=10,
        cycles_per_flit=script["pace"],
        buffer_flits=script["buffer_flits"],
    )
    table = {mac_address(port): port for port in range(ports)}
    model = SwitchModel(
        "sw", config, mac_table=table, default_port=script["default_port"]
    )
    if script.get("egress_log"):
        model.enable_bandwidth_probe()
    return model


def as_rows(start, flits):
    """A window's flits as stride-1 packet-segment rows (NIC shape)."""
    rows = []
    for cycle in sorted(flits):
        flit = flits[cycle]
        last = rows[-1] if rows else None
        if last and last[0] is flit.data and last[1] + last[2] == cycle:
            last[2] += 1
        else:
            rows.append(
                [flit.data, cycle, 1, flit.index, flit.data.flit_count]
            )
    if not rows:
        return TokenBatch.empty(start, WINDOW)
    return ColumnarBatch(start, WINDOW, 1, rows)


def window_inputs(script, window_index, form):
    """This window's input batches, every ingress flit at its cycle, as
    a ``"batch"``, a ``"stream"`` or ``"rows"``."""
    start = window_index * WINDOW
    inputs = {}
    for port in range(script.get("ports", NUM_PORTS)):
        flits = {}
        for injected_window in range(window_index + 1):
            for offset, frame in script["injections"].get(
                (injected_window, port), []
            ):
                base = injected_window * WINDOW + offset
                if base + frame.flit_count <= start:
                    continue
                for index, flit in enumerate(frame.to_flits()):
                    cycle = base + index * 1
                    if start <= cycle < start + WINDOW:
                        flits[cycle] = flit
        if form == "stream":
            inputs[f"port{port}"] = TokenStream.from_flits(
                start, WINDOW, flits
            )
        elif form == "rows":
            inputs[f"port{port}"] = as_rows(start, flits)
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
    """A window's flits as comparable tuples; an absent window is empty."""
    if batch is None:
        return []
    return [
        (cycle, flit.data.frame_id, flit.last, flit.index)
        for cycle, flit in sorted(batch.flits.items())
    ]


def queue_state(model):
    """Everything a switch carries from one window to the next."""
    queues = []
    for rows, head_emitted in zip(model._out_rows, model._head_emitted):
        order = [(release, seq) for release, seq, _ in rows]
        # The invariant that lets enqueue be an append, not a heap push.
        assert order == sorted(order) and len(set(order)) == len(order)
        queues.append((
            order,
            [frame.frame_id for _, _, frame in rows],
            head_emitted,
        ))
    # Python ints only: these reach flit-dict keys, trace args and
    # repr() digests, where a numpy.int64 would print differently.
    carried = [value for order, _, _ in queues for row in order
               for value in row]
    carried += model._port_next_free
    carried += [value for entry in model.egress_log or () for value in entry]
    assert all(type(value) is int for value in carried), carried
    return (
        queues,
        list(model._port_next_free),
        [(frame and frame.frame_id, seen) for frame, seen in model._partial],
        model._seq,
        model.egress_log,
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


def run_pair(script, form, traced):
    """Drive scalar and columnar twins, the columnar one on ``form``
    inputs; return how many packets they hold after each window."""
    scalar = build_switch(script)
    columnar = build_switch(script)
    assert columnar.columnar_safe
    backlog = []
    step = ColumnarSwitch(columnar).step
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
                window, window_inputs(script, window_index, "batch")
            )
            if traced:
                set_trace_sink(columnar_sink)
            columnar_out = step(
                window, window_inputs(script, window_index, form)
            )
            if traced:
                set_trace_sink(None)
            assert set(columnar_out) <= set(scalar_out)
            for port in range(script.get("ports", NUM_PORTS)):
                key = f"port{port}"
                out = columnar_out.get(key)
                assert (
                    output_flits(scalar_out[key]) == output_flits(out)
                ), f"window {window_index} {key} flits diverge"
                if out is not None:
                    # Only a window carrying flits is built.
                    assert type(out) is ColumnarBatch
                    assert out.start_cycle == start
                    assert out.length == WINDOW
                    assert out.valid_count == len(out.flits) >= 1
            backlog.append(scalar.queued_packets())
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
    return backlog


class TestColumnarEquality:
    @settings(max_examples=60, deadline=None)
    @given(script=traffic_script())
    def test_stream_inputs_bit_identical(self, script):
        run_pair(script, "stream", traced=False)

    @settings(max_examples=40, deadline=None)
    @given(script=traffic_script())
    def test_batch_inputs_bit_identical(self, script):
        run_pair(script, "batch", traced=False)

    @settings(max_examples=60, deadline=None)
    @given(script=traffic_script(rows=True))
    def test_row_inputs_bit_identical(self, script):
        """Rows are what a stock blade NIC or switch hands a switch."""
        run_pair(script, "rows", traced=False)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_trace_events_bit_identical(self, data):
        """With a sink enabled the columnar phases must emit the exact
        scalar event stream — drops, enqueues, and dequeue spans
        interleaved in scalar pop order."""
        form = data.draw(st.sampled_from(["stream", "rows"]))
        script = data.draw(traffic_script(rows=form == "rows"))
        run_pair(script, form, traced=True)

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
        run_pair(script, "stream", traced=True)

    def test_overwritten_straddler_parity(self):
        """A frame spilling out of window 0 is overwritten mid-flight by
        window 1's injection on the same port: both paths must leave
        the spec's partial reassembly, on flit-carrying inputs."""
        script = {
            "windows": 3,
            "pace": 1,
            "buffer_flits": 16384,
            "default_port": None,
            "injections": {
                (0, 0): [(60, EthernetFrame(
                    src=mac_address(0), dst=KNOWN_MACS[2], size_bytes=600,
                ))],
                (1, 0): [(10, EthernetFrame(
                    src=mac_address(0), dst=KNOWN_MACS[3], size_bytes=200,
                ))],
            },
            "bumps": [],
        }
        for form in ("stream", "batch"):
            run_pair(script, form, traced=True)

    def test_deep_backlog_parity(self):
        """Three ports flood a fourth with back-to-back 64 B frames: the
        egress queue grows past 120 packets and starts to drain, and
        every window stays bit-identical to the spec.  An eight-port
        incast then backs up and drains to empty."""
        script = {
            "windows": 9,
            "pace": 1,
            "buffer_flits": 16384,
            "default_port": None,
            "injections": {
                (w, p): [
                    (offset, EthernetFrame(
                        src=mac_address(p), dst=KNOWN_MACS[3], size_bytes=64,
                    ))
                    for offset in range(0, WINDOW, 8)
                ]
                for w in range(9) for p in range(3)
            },
            "bumps": [],
            "egress_log": True,
        }
        backlog = run_pair(script, "rows", traced=True)
        assert max(backlog) > 120, backlog
        assert backlog[-1] < max(backlog)
        # Incast: seven ports send back-to-back 600 B frames into the
        # eighth, every 16th frame to an unknown MAC (dropped), and the
        # switch is drained to empty.
        ports = 8
        frames = {}
        for port in range(ports - 1):
            cycle = 0
            for sent in range(16):
                dst = UNKNOWN_MAC if sent % 16 == 15 else mac_address(7)
                frame = EthernetFrame(
                    src=mac_address(port), dst=dst, size_bytes=600,
                )
                frames.setdefault((cycle // WINDOW, port), []).append(
                    (cycle % WINDOW, frame)
                )
                cycle += frame.flit_count
        script = {
            # The egress port sends one flit a cycle: enough windows to
            # drain every sender's whole stream.
            "windows": (ports - 1) * cycle // WINDOW + 4,
            "pace": 1,
            "buffer_flits": 1 << 20,
            "default_port": None,
            "injections": frames,
            "bumps": [],
            "ports": ports,
        }
        backlog = run_pair(script, "rows", traced=False)
        assert max(backlog) > 80, backlog
        assert backlog[-1] == 0

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
                    window, window_inputs(script, window_index, "batch")
                )
                if (window_index % 2 == 0) == columnar_first:
                    b = ColumnarSwitch(hybrid).step(
                        window,
                        window_inputs(script, window_index, "stream"),
                    )
                    # The batched engine maintains this after every step.
                    hybrid.current_cycle = window.end
                else:
                    b = hybrid.tick(
                        window, window_inputs(script, window_index, "batch")
                    )
                for port in range(NUM_PORTS):
                    key = f"port{port}"
                    assert output_flits(a[key]) == output_flits(b.get(key))
                assert repr(scalar.stats) == repr(hybrid.stats)
                assert queue_state(scalar) == queue_state(hybrid)
            assert scalar.stats.packets_out == 5  # 2 unicasts + 3 flooded
