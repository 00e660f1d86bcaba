"""Coalesced wire format (repro.dist.frame) and the adaptive quantum.

The frame codec is the one payload layout the worker rings ship, so it
must round-trip every window representation the producers emit —
batched streams and scalar dict-flit batches, and empty windows of
either — inside a single multi-link payload.  The
adaptive round quantum rides the same wire: workers exchange one
coalesced message per ``round_quantum // quantum`` rounds, and the
result must stay bit-identical to the serial oracle (paper Fig 9:
batching is a rate lever, never a semantics lever).
"""

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigError
from repro.core.channel import Link
from repro.core.token import Flit, TokenBatch
from repro.dist import plan_from_assignment, plan_partitions, run_distributed
from repro.dist.frame import ENTRY_BYTES, decode_entries, encode_entries
from repro.dist.remote_link import deliver
from repro.dist.shm import ShmRing, leaked_segments
from repro.faults.checkpoint import state_digest
from repro.faults.plan import RingCorruption
from repro.host.perfmodel import exchange_quantum
from repro.manager.mapper import map_topology
from repro.manager.runfarm import RunFarmConfig, elaborate
from repro.manager.topology import two_tier
from repro.net.ethernet import EthernetFrame, mac_address
from repro.perf.stream import ColumnarBatch, TokenStream
from repro.swmodel.apps.ping import RESULT_KEY, make_ping_client

from tests.test_dist import ONE_FPGA, TARGET_CYCLES, build, fingerprint


def stream_window(start, length, cycles_and_flits):
    """A busy batched-engine window (the producer's TokenStream form)."""
    cycles = [c for c, _ in cycles_and_flits]
    flits = [flit for _, flit in cycles_and_flits]
    return TokenStream(start, length, cycles, flits)


def batch_window(start, length, flits_by_cycle):
    """A scalar-engine window (sparse dict of absolute cycle -> flit)."""
    return TokenBatch(start, length, flits_by_cycle)


def window_shape(entry):
    """Normalized (link, kind, start, length, [(cycle, payload)...])."""
    link, window = entry
    if isinstance(window, TokenStream):
        valid = tuple(
            (cycle, flit.data) for cycle, flit in window.iter_flits()
        )
        return (link, "data" if valid else "idle",
                window.start_cycle, window.length, valid)
    valid = tuple(
        (cycle, window.flits[cycle].data)
        for cycle in sorted(window.flits)
    )
    return (link, "data" if valid else "idle",
            window.start_cycle, window.length, valid)


class TestFrameCodec:
    def test_entry_table_packs_without_padding(self):
        assert ENTRY_BYTES == 24

    def test_multi_link_round_trip_mixed_kinds(self):
        """One frame carries several links' windows of every kind."""
        entries = [
            (0, stream_window(1000, 640, [(1001, Flit("a")),
                                          (1600, Flit("b", last=True))])),
            (3, batch_window(1000, 640, {1005: Flit("c")})),
            (1, TokenBatch(1000, 640)),          # idle, dict form
            (7, stream_window(1000, 640, [])),   # idle, stream form
        ]
        out = bytearray()
        count = encode_entries(entries, out)
        assert count == len(entries)
        decoded = decode_entries(bytes(out), count)
        assert [window_shape(e) for e in decoded] == [
            (0, "data", 1000, 640, ((1001, "a"), (1600, "b"))),
            (3, "data", 1000, 640, ((1005, "c"),)),
            (1, "idle", 1000, 640, ()),
            (7, "idle", 1000, 640, ()),
        ]

    def test_flit_metadata_survives(self):
        """last/index flags ride the blob, not just the payload."""
        flit = Flit("payload", last=True, index=3)
        out = bytearray()
        count = encode_entries(
            [(5, batch_window(0, 64, {7: flit}))], out
        )
        [(_, window)] = decode_entries(bytes(out), count)
        [restored] = window.flit_list
        assert (restored.data, restored.last, restored.index) == (
            "payload", True, 3
        )

    def test_empty_frame_is_zero_bytes(self):
        """An all-quiet exchange costs nothing beyond the ring header."""
        out = bytearray()
        assert encode_entries([], out) == 0
        assert len(out) == 0
        assert decode_entries(b"", 0) == []


def fixture_entries():
    """A fixed mixed entry list: shifted and empty streams, dict batches,
    and flit payloads of several pickle types."""
    return [
        (0, TokenStream.from_flits(
            1000, 640,
            {1001: Flit("a"), 1600: Flit("b", last=True, index=1)},
            shift=640,
        )),
        (3, TokenBatch(1000, 640, {1005: Flit(("c", 7), last=True)})),
        (5, TokenStream.from_flits(2560, 640, {}, shift=0)),
        (2, TokenBatch(
            64, 64, {70: Flit(b"\x00\xff", index=2), 64: Flit(None)}
        )),
    ]


#: ``encode_entries(fixture_entries())`` as the numpy-based codec wrote
#: it: entry table, cycle column, flit pickle.  The wire may not move.
FIXTURE_HEX = (
    "00000000680600000000000080020000000000000200000003000000e8030000"
    "0000000080020000000000000100000005000000000a00000000000080020000"
    "0000000000000000020000004000000000000000400000000000000002000000"
    "6906000000000000c008000000000000ed030000000000004000000000000000"
    "4600000000000000800595b1000000000000005d94285d94288c10726570726f"
    "2e636f72652e746f6b656e948c04466c69749493942981947d94288c04646174"
    "61948c0161948c046c61737494898c05696e646578944b00756268042981947d"
    "942868078c016294680988680a4b017562655d9468042981947d942868078c01"
    "63944b078694680988680a4b007562615d945d942868042981947d942868074e"
    "680989680a4b00756268042981947d94286807430200ff94680989680a4b0275"
    "6265652e"
)


class TestWireFixture:
    def test_encoder_reproduces_the_fixture_bytes(self):
        out = bytearray()
        assert encode_entries(fixture_entries(), out) == 4
        assert out.hex() == FIXTURE_HEX

    def test_decoder_round_trips_the_fixture(self):
        payload = bytes.fromhex(FIXTURE_HEX)
        decoded = decode_entries(payload, 4)
        assert [window_shape(e) for e in decoded] == [
            window_shape(e) for e in fixture_entries()
        ]
        assert [
            (flit.last, flit.index)
            for _, window in decoded for flit in window.flit_list
        ] == [(False, 0), (True, 1), (True, 0), (False, 0), (False, 2)]
        out = bytearray()
        encode_entries(decoded, out)
        assert bytes(out) == payload


def real_payload():
    """A frame of NIC-shaped traffic: real Ethernet frames, a window
    that straddles, and a stride-2 switch port."""
    frames = [
        EthernetFrame(src=mac_address(0), dst=mac_address(1), size_bytes=size)
        for size in (64, 200, 1514)
    ]
    nic = ColumnarBatch(0, 640, 1, [
        (frames[0], 3, 8, 0, 8), (frames[2], 600, 40, 0, 190),
    ])
    port = ColumnarBatch(640, 640, 2, [(frames[1], 641, 25, 0, 25)])
    entries = [(1, nic.to_stream(640)), (4, port.to_stream(640))]
    out = bytearray()
    count = encode_entries(entries, out)
    return bytes(out), count


class TestMalformedFrames:
    """Bytes off a ring are checked before they are trusted: every
    overrun or mismatch is a ``ValueError`` naming what is wrong, never
    an ``IndexError`` and never a decoded window."""

    def test_every_truncation_raises_value_error(self):
        for payload, count in (
            real_payload(), (bytes.fromhex(FIXTURE_HEX), 4),
        ):
            assert len(decode_entries(payload, count)) == count
            for cut in range(len(payload)):
                with pytest.raises(ValueError):
                    decode_entries(payload[:cut], count)

    def test_every_flipped_table_field_raises_value_error(self):
        payload, count = real_payload()
        fields = [("<i", 0), ("<q", 4), ("<q", 12), ("<i", 20)]
        for row in range(count):
            for fmt, offset in fields:
                at = row * ENTRY_BYTES + offset
                corrupt = bytearray(payload)
                (value,) = struct.unpack_from(fmt, corrupt, at)
                struct.pack_into(fmt, corrupt, at, ~value)
                with pytest.raises(ValueError, match=f"entry {row}"):
                    decode_entries(bytes(corrupt), count)

    def test_every_valid_count_bit_flip_raises_value_error(self):
        payload, count = real_payload()
        for row in range(count):
            at = row * ENTRY_BYTES + 20
            for bit in range(32):
                corrupt = bytearray(payload)
                corrupt[at + bit // 8] ^= 1 << (bit % 8)
                with pytest.raises(ValueError):
                    decode_entries(bytes(corrupt), count)

    def test_each_check_names_its_case(self):
        payload, count = real_payload()
        with pytest.raises(ValueError, match="entry table runs past"):
            decode_entries(payload[:ENTRY_BYTES + 3], count)
        # Entry 0 carries 48 cycles; cut one into entry 1's 25.
        with pytest.raises(ValueError, match="entry 1: the cycle column"):
            decode_entries(payload[:2 * ENTRY_BYTES + 8 * 49], count)
        blob_at = 2 * ENTRY_BYTES + 8 * (48 + 25)
        one_list = payload[:blob_at] + pickle.dumps([[]])
        with pytest.raises(ValueError, match="does not hold 2 flit lists"):
            decode_entries(one_list, count)
        # Entry 1's flit list one short of its 25 tokens.
        lists = [window.flit_list for _, window in decode_entries(payload, 2)]
        lists[1] = lists[1][:-1]
        short = payload[:blob_at] + pickle.dumps(lists)
        with pytest.raises(ValueError, match="entry 1: 24 flits"):
            decode_entries(short, count)


@st.composite
def row_windows(draw):
    """Packet-segment rows with a stride, gaps, frames straddling both
    window edges, and a link latency to relabel by."""
    stride = draw(st.integers(1, 8))
    start = draw(st.integers(0, 10_000))
    cycle = start + draw(st.integers(0, 20))
    rows = []
    for number in range(draw(st.integers(0, 5))):
        total = draw(st.integers(1, 30))
        count = draw(st.integers(1, total))
        first_index = draw(st.integers(0, total - count))
        rows.append((f"frame{number}", cycle, count, first_index, total))
        cycle += count * stride + draw(st.integers(0, 40))
    length = cycle - start + draw(st.integers(1, 50))
    return start, length, stride, rows, draw(st.integers(0, 5000))


def reference(start, length, stride, rows, latency):
    """The same window built flit by flit, as the scalar spec does."""
    batch = TokenBatch(start + latency, length)
    for frame, first, count, first_index, total in rows:
        for j in range(count):
            index = first_index + j
            batch.add(
                first + j * stride + latency,
                Flit(data=frame, last=index == total - 1, index=index),
            )
    return batch


def window_of(batch):
    assert all(type(cycle) is int for cycle in batch.flits)
    return batch.start_cycle, batch.length, batch.flits


class TestContainersAgainstFlits:
    @settings(max_examples=200, deadline=None)
    @given(window=row_windows())
    def test_rows_streams_and_wire_equal_the_flit_reference(self, window):
        start, length, stride, rows, latency = window
        expected = window_of(reference(start, length, stride, rows, latency))
        unshifted = reference(start, length, stride, rows, 0).flits

        def fresh():
            return ColumnarBatch(start, length, stride, list(rows))

        stream = fresh().to_stream(latency)
        assert all(type(cycle) is int for cycle in stream.cycles)
        candidates = [
            fresh().shift(latency).to_batch(),
            stream.to_batch(),
            TokenStream.from_flits(start, length, unshifted)
            .shift(latency).to_batch(),
            TokenStream.from_flits(
                start, length, unshifted, latency
            ).to_batch(),
        ]
        out = bytearray()
        count = encode_entries([(0, stream)], out)
        [(_, decoded)] = decode_entries(bytes(out), count)
        assert all(type(cycle) is int for cycle in decoded.cycles)
        candidates.append(decoded.to_batch())
        for batch in candidates:
            assert window_of(batch) == expected
        assert fresh().valid_count == len(expected[2])


@pytest.fixture
def ring():
    ring = ShmRing.create(0, 1, capacity=1 << 16)
    yield ring
    ring.destroy()
    assert leaked_segments() == []


class TestCoalescedRing:
    def test_multi_link_per_peer_single_publish(self, ring):
        """All of a peer's links travel in one ring frame."""
        entries = [
            (0, stream_window(0, 640, [(5, Flit("x"))])),
            (1, TokenBatch(0, 640)),
            (2, stream_window(0, 640, [(10, Flit("y")), (11, Flit("z"))])),
        ]
        ring.send(0, entries)
        counters = ring.counters()
        assert counters["sent_messages"] == 1
        received = ring.recv(0)
        assert [window_shape(e) for e in received] == [
            window_shape(e) for e in entries
        ]

    def test_corrupt_coalesced_frame_fails_payload_crc(self, ring):
        ring.corrupt_next_send = True
        ring.send(
            0,
            [
                (0, stream_window(0, 640, [(5, Flit("x"))])),
                (1, TokenBatch(0, 640)),
            ],
        )
        try:
            ring.recv(0)
        except RingCorruption as corruption:
            assert "payload failed its CRC32" in str(corruption)
            assert corruption.ring == "ring:0->1"
        else:
            pytest.fail("corrupted coalesced frame was decoded")

    def test_sequence_skew_detected_on_coalesced_frames(self, ring):
        ring.send(0, [(0, TokenBatch(0, 64))])
        ring._send_seq += 1  # one frame the reader never observes
        ring.send(1, [(0, TokenBatch(64, 64))])
        assert len(ring.recv(0)) == 1
        with pytest.raises(RingCorruption, match="sequence skew"):
            ring.recv(1)

    def test_nonblocking_recv_returns_none_until_published(self, ring):
        assert ring.recv(0, False) is None
        ring.send(0, [(0, TokenBatch(0, 64))])
        received = ring.recv(0, False)
        assert received is not None and len(received) == 1
        # The permit was consumed with the message: the ring is idle
        # again, not primed with a stranded wakeup.
        assert ring.recv(1, False) is None


class TestAdaptiveQuantum:
    def test_exchange_quantum_is_floor_aligned(self):
        assert exchange_quantum(None, 160) == 160      # no boundaries
        assert exchange_quantum(160, 160) == 160       # no headroom
        assert exchange_quantum(640, 160) == 640       # exact multiple
        assert exchange_quantum(700, 160) == 640       # rounds down
        assert exchange_quantum(100, 160) == 160       # floor < quantum
        with pytest.raises(ValueError):
            exchange_quantum(640, 0)

    def test_boundary_latency_floor(self):
        running, root = build("two_tier_2x2")
        deployment = map_topology(root, ONE_FPGA)
        plan = plan_partitions(running, deployment, 2)
        floor = plan.boundary_latency_floor(running.simulation)
        assert floor is not None
        assert floor >= running.simulation.quantum
        lone = plan_from_assignment(
            {key: 0 for key in running.simulation.partition_keys()},
            num_workers=1,
        )
        assert lone.boundary_latency_floor(running.simulation) is None

    def test_explicit_round_quantum_must_be_multiple(self):
        running, root = build("two_tier_2x2")
        deployment = map_topology(root, ONE_FPGA)
        plan = plan_partitions(running, deployment, 2)
        with pytest.raises(ConfigError, match="multiple of the"):
            run_distributed(
                running.simulation, plan, TARGET_CYCLES,
                round_quantum=running.simulation.quantum + 1,
            )

    def test_explicit_round_quantum_capped_by_latency_floor(self):
        running, root = build("two_tier_2x2")
        deployment = map_topology(root, ONE_FPGA)
        plan = plan_partitions(running, deployment, 2)
        quantum = running.simulation.quantum
        floor = plan.boundary_latency_floor(running.simulation)
        too_big = (floor // quantum + 1) * quantum
        with pytest.raises(ConfigError, match="latency floor"):
            run_distributed(
                running.simulation, plan, TARGET_CYCLES,
                round_quantum=too_big,
            )


def hetero_build(engine="scalar", trunk_latency=640, ping_start=0):
    """Two-tier target whose server links are 4x shorter than trunks.

    The global quantum follows the shortest link (160), while the
    partition's boundary (the rack trunks) stays at ``trunk_latency`` —
    so the adaptive derivation batches 4 rounds per exchange.  The
    cross-rack ping starts at cycle ``ping_start``.
    """
    root = two_tier(num_racks=2, servers_per_rack=2)
    running = elaborate(
        root,
        RunFarmConfig(
            link_latency_cycles=trunk_latency,
            server_link_latency_cycles=160,
            engine=engine,
        ),
    )
    blades = running.blades
    last = max(blades)
    blades[0].spawn(
        "ping",
        make_ping_client(blades[last].mac, count=4, interval_cycles=50_000),
        start_cycle=ping_start,
    )
    # Rack-aligned shards: boundary links are the 640-cycle trunks only.
    racks = [child for child in root.downlinks]
    rack0 = {f"switch{racks[0].switch_id}", "node0", "node1"}
    assignment = {
        key: 0 if key in rack0 else 1
        for key in running.simulation.partition_keys()
    }
    return running, plan_from_assignment(assignment, num_workers=2)


class TestExchangeRoundEquivalence:
    @pytest.fixture(scope="class")
    def serial_expected(self):
        running, _ = hetero_build()
        running.simulation.run_until(TARGET_CYCLES)
        return fingerprint(running)

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    # "shm" is the compatibility spelling bench/ passes; the only one.
    @pytest.mark.parametrize("transport", ["shm"])
    def test_batched_exchanges_stay_bit_identical(
        self, transport, engine, serial_expected
    ):
        running, plan = hetero_build(engine)
        sim = running.simulation
        assert sim.quantum == 160
        assert plan.boundary_latency_floor(sim) == 640
        result = run_distributed(
            sim, plan, TARGET_CYCLES, transport=transport
        )
        assert result.round_quantum == 640
        assert result.rounds_per_exchange == 4
        if engine == "scalar":
            assert result.exchange_rounds == result.rounds // 4
        else:
            # The active set lets the shards skip idle exchanges.
            assert result.exchange_rounds <= result.rounds // 4
        assert fingerprint(running) == serial_expected
        assert serial_expected["blades"][0][RESULT_KEY]

    def test_forced_per_round_exchange_matches_adaptive(
        self, serial_expected
    ):
        """round_quantum == quantum (the pre-adaptive wire cadence)
        produces the same bits — batching is pure scheduling."""
        running, plan = hetero_build()
        result = run_distributed(
            running.simulation, plan, TARGET_CYCLES,
            round_quantum=160,
        )
        assert result.rounds_per_exchange == 1
        assert result.exchange_rounds == result.rounds
        assert fingerprint(running) == serial_expected

    def test_straddling_boundary_windows_stay_bit_identical(self):
        """A 700-cycle boundary over a 160-cycle quantum lands every
        received window across two of its consumer's rounds; the active
        set must wake the consumer in both."""
        serial, _ = hetero_build(trunk_latency=700)
        serial.simulation.run_until(TARGET_CYCLES)
        expected = fingerprint(serial)
        running, plan = hetero_build("batched", trunk_latency=700)
        result = run_distributed(running.simulation, plan, TARGET_CYCLES)
        assert result.rounds_per_exchange == 4
        assert 700 % running.simulation.quantum != 0
        assert fingerprint(running) == expected
        assert expected["blades"][0][RESULT_KEY]

    @pytest.mark.parametrize("trunk_latency", [640, 700])
    def test_late_ping_jumps_the_idle_stretch(self, trunk_latency):
        """The first cross-shard send comes after a long idle stretch:
        the shards skip its exchanges together, on and off the round
        grid, and every RTT is the serial scalar run's."""
        serial, _ = hetero_build(
            trunk_latency=trunk_latency, ping_start=250_000
        )
        serial.simulation.run_until(TARGET_CYCLES)
        running, plan = hetero_build(
            "batched", trunk_latency=trunk_latency, ping_start=250_000
        )
        result = run_distributed(running.simulation, plan, TARGET_CYCLES)
        assert fingerprint(running) == fingerprint(serial)
        assert state_digest(running) == state_digest(serial)
        assert fingerprint(serial)["blades"][0][RESULT_KEY]
        assert result.exchange_rounds < result.rounds // 4

    def test_result_dict_carries_exchange_fields(self, serial_expected):
        running, plan = hetero_build()
        result = run_distributed(running.simulation, plan, TARGET_CYCLES)
        doc = result.to_dict()
        assert doc["round_quantum"] == 640
        assert doc["rounds_per_exchange"] == 4
        assert doc["exchange_rounds"] == result.exchange_rounds
        assert "measured_critical_path_mhz" in doc
        assert "worker_cpu_seconds_max" in doc


class TestReceiver:
    """The receiving side of an exchange: only windows with tokens
    arrive, and the cycles between them are a push-cursor move."""

    def primed(self):
        endpoint = Link(latency_cycles=640).to_a
        endpoint.push(TokenBatch(0, 640))
        return endpoint

    @staticmethod
    def state(endpoint):
        return (
            endpoint._consumed_until, endpoint._pushed_until,
            endpoint._gap_at, [
                (window.start_cycle, window.length, sorted(window.flits))
                for window in endpoint._queue
            ],
        )

    def test_skipped_cycles_are_a_cursor_move(self):
        endpoint = self.primed()
        assert self.state(endpoint) == (0, 640, None, [])
        flit = Flit("x")
        deliver(endpoint, batch_window(800, 160, {810: flit}), 1280)
        assert self.state(endpoint) == (0, 960, None, [(800, 160, [810])])
        assert endpoint.available_tokens == 960
        assert endpoint.pop(800).flits == {}
        assert endpoint.pop(160).flits == {810: flit}
        assert self.state(endpoint) == (960, 960, None, [])

    def test_window_outside_its_span_or_out_of_order_raises(self):
        endpoint = self.primed()
        deliver(endpoint, batch_window(800, 160, {810: Flit("x")}), 1280)
        with pytest.raises(ValueError, match="out of order"):
            deliver(endpoint, batch_window(640, 160, {650: Flit("y")}), 1280)
        with pytest.raises(ValueError, match="outside its exchange span"):
            deliver(endpoint, batch_window(1280, 160, {1290: Flit("z")}),
                    1280)
        # Neither was queued, and neither moved a cursor.
        assert self.state(endpoint) == (0, 960, None, [(800, 160, [810])])
