"""Batched token engine (repro.perf): bit-equality with the scalar oracle.

The headline guarantee under test mirrors ``tests/test_dist.py``: running
a simulation with ``engine="batched"`` changes *nothing* observable —
cycle counts, simulation stats, switch counters, tracer packet records,
blade results, and per-link flit counts are bit-identical to the scalar
engine, for every topology/quantum combination tried, serially and
distributed.
"""

import dataclasses
import inspect
import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigError
from repro.core.fame import Fame1Model, NullModel
from repro.core.simulation import (
    ENGINES,
    RoundProgress,
    Simulation,
    round_loop,
)
from repro.core.token import Flit, TokenBatch, TokenWindow
from repro.dist import plan_from_assignment, plan_partitions, run_distributed
from repro.faults.checkpoint import SimulationSnapshot, state_digest
from repro.manager.cli import main as cli_main
from repro.manager.mapper import HostConfig, map_topology
from repro.manager.runfarm import RunFarmConfig, elaborate
from repro.manager.topology import two_tier
from repro.net.ethernet import EthernetFrame, mac_address
from repro.net.switch import SwitchConfig, SwitchModel
from repro.net.tracer import splice_tracer
from repro.obs.rate import RateMonitor
from repro.nic.ratelimit import rate_settings_for_bandwidth
from repro.perf import TOKEN_DTYPE, ColumnarBatch, TokenStream
from repro.swmodel.apps.ping import RESULT_KEY, make_ping_client
from repro.swmodel.apps.streamer import (
    attach_baremetal_receiver,
    make_baremetal_sender,
)
from repro.swmodel.server import ServerBlade
from tests.test_dist import (
    TARGET_CYCLES,
    TOPOLOGIES,
    fingerprint,
    serial_fingerprint,
)

ONE_FPGA = HostConfig(fpgas_per_instance=1)


def build_batched(topo_key, quantum_override=None):
    """The exact workload of ``tests.test_dist.build``, batched engine."""
    root = TOPOLOGIES[topo_key]()
    running = elaborate(
        root, RunFarmConfig(link_latency_cycles=640, engine="batched")
    )
    if quantum_override is not None:
        running.simulation.quantum_override = quantum_override
    blades = running.blades
    last = max(blades)
    blades[0].spawn(
        "ping",
        make_ping_client(blades[last].mac, count=4, interval_cycles=50_000),
    )
    return running, root


class TestEquivalence:
    @pytest.mark.parametrize("quantum_override", [None, 160])
    @pytest.mark.parametrize("topo_key", sorted(TOPOLOGIES))
    def test_bit_identical_to_scalar(self, topo_key, quantum_override):
        running, _ = build_batched(topo_key, quantum_override)
        running.simulation.run_until(TARGET_CYCLES)
        expected = serial_fingerprint(topo_key, quantum_override)
        assert fingerprint(running) == expected
        # The workload actually crossed switches (otherwise the equality
        # above would be vacuous).
        assert expected["blades"][0][RESULT_KEY]

    @pytest.mark.parametrize("workers", [2])
    @pytest.mark.parametrize("topo_key", sorted(TOPOLOGIES))
    def test_batched_distributed_matches_serial_scalar(
        self, topo_key, workers
    ):
        """Both axes at once: sparse batches ship across worker pipes in
        the producer's representation and still land bit-identically."""
        running, root = build_batched(topo_key)
        deployment = map_topology(root, ONE_FPGA)
        plan = plan_partitions(running, deployment, workers)
        assert len(plan.boundaries(running.simulation)) > 0
        run_distributed(running.simulation, plan, TARGET_CYCLES)
        assert fingerprint(running) == serial_fingerprint(topo_key, None)

    def test_tracer_records_match_scalar(self):
        """Spliced tracers record identical packets under both engines."""

        def run(engine):
            sim = Simulation(engine=engine)
            a = sim.add_model(ServerBlade("node0", node_index=0))
            b = sim.add_model(ServerBlade("node1", node_index=1))
            switch = sim.add_model(
                SwitchModel(
                    "tor",
                    SwitchConfig(num_ports=2),
                    mac_table={mac_address(0): 0, mac_address(1): 1},
                )
            )
            tracer_a = splice_tracer(
                sim, a, "net", switch, "port0", 640, "trace-a"
            )
            tracer_b = splice_tracer(
                sim, switch, "port1", b, "net", 640, "trace-b"
            )
            a.spawn(
                "ping",
                make_ping_client(b.mac, count=3, interval_cycles=50_000),
            )
            sim.run_until(400_000)

            def strip(records):
                return [
                    (r.src, r.dst, r.size_bytes, r.direction,
                     r.first_flit_cycle, r.last_flit_cycle)
                    for r in records
                ]

            return (
                strip(tracer_a.records),
                strip(tracer_b.records),
                tuple(a.results[RESULT_KEY]),
            )

        scalar = run("scalar")
        assert scalar[0], "scalar run recorded no packets"
        assert run("batched") == scalar

    def test_cli_engine_flag_is_cycle_exact(self):
        def session(engine):
            out = io.StringIO()
            code = cli_main(
                [
                    "buildafi", "launchrunfarm", "infrasetup",
                    "runworkload",
                    "--topology", "single_rack", "--servers-per-rack", "2",
                    "--duration-ms", "1", "--ping-count", "2",
                    "--engine", engine, "--json",
                ],
                out=out,
            )
            assert code == 0
            return json.loads(out.getvalue())["verbs"]

        scalar, batched = session("scalar"), session("batched")
        assert batched["infrasetup"]["engine"] == "batched"
        assert batched["runworkload"]["ping"] == scalar["runworkload"]["ping"]


# -- columnar blade edge ---------------------------------------------------

STREAM_SENDERS = 3
STREAM_CYCLES = 64_000


def build_stream(engine, quantum_override=None):
    """Fig 6 in miniature: three 100 Gbit/s senders through a 200 Gbit/s
    root, so the uplink saturates and every blade link carries bursts."""
    root = two_tier(num_racks=2, servers_per_rack=STREAM_SENDERS)
    running = elaborate(
        root, RunFarmConfig(link_latency_cycles=1600, engine=engine)
    )
    running.simulation.quantum_override = quantum_override
    k, p = rate_settings_for_bandwidth(100e9, 204.8e9)
    for index in range(STREAM_SENDERS):
        sender = running.blade(index)
        receiver = running.blade(STREAM_SENDERS + index)
        attach_baremetal_receiver(receiver)
        sender.nic.set_bandwidth(k, p)
        sender.spawn(
            f"stream{index}",
            make_baremetal_sender(
                receiver.mac, num_frames=30,
                start_delay_cycles=2_000 * index,
            ),
        )
    return running, root


def stream_fingerprint(running):
    """``tests.test_dist.fingerprint`` plus everything the NIC edge owns."""
    found = fingerprint(running)
    found["digest"] = state_digest(running)
    # Idle-window elision skips the no-op fills that drag an idle NIC's
    # emit cursor along, so compare the cursor the next fill would use.
    now = running.simulation.current_cycle
    found["nics"] = [
        (
            repr(blade.nic.stats), max(blade.nic._emit_cursor, now),
            blade.nic._reader_free_cycle, blade.nic._writer_free_cycle,
            blade.nic.limiter._count, blade.nic.limiter._applied_periods,
            blade.nic.tx_backlog, blade.nic.rx_buffer_occupancy,
        )
        for _, blade in sorted(running.blades.items())
    ]
    return found


_stream_cache = {}


def scalar_stream_fingerprint(quantum_override=None):
    if quantum_override not in _stream_cache:
        running, _ = build_stream("scalar", quantum_override)
        running.simulation.run_until(STREAM_CYCLES)
        _stream_cache[quantum_override] = stream_fingerprint(running)
    return _stream_cache[quantum_override]


def inbound_endpoint(simulation, blade):
    attachment = simulation._attachments[(id(blade), "net")]
    link = attachment.link
    return link.to_a if attachment.side == "a" else link.to_b


def run_until_rows_parked(running, limit=STREAM_CYCLES):
    """Advance round by round until a receiver's inbound queue holds a
    ``ColumnarBatch`` (the window a scalar consumer would have to
    materialize); returns that endpoint."""
    simulation = running.simulation
    receivers = [
        running.blade(STREAM_SENDERS + index)
        for index in range(STREAM_SENDERS)
    ]
    while simulation.current_cycle < limit:
        simulation.run_cycles(1)
        for blade in receivers:
            endpoint = inbound_endpoint(simulation, blade)
            if any(type(e) is ColumnarBatch for e in endpoint._queue):
                return endpoint
    raise AssertionError("no columnar window ever reached a blade")


class TestColumnarBladeEdge:
    @pytest.mark.parametrize("quantum_override", [None, 400])
    def test_saturating_stream_bit_identical_to_scalar(
        self, quantum_override
    ):
        running, _ = build_stream("batched", quantum_override)
        running.simulation.run_until(STREAM_CYCLES)
        expected = scalar_stream_fingerprint(quantum_override)
        assert stream_fingerprint(running) == expected
        # Saturated for real: frames crossed the root and the senders
        # were still rate-limited when the run ended.
        assert any("rx_frames=0" not in nic[0] for nic in expected["nics"])
        assert sum(a + b for a, b in expected["links"]) > 20_000

    def test_blade_links_carry_rows_not_flits(self, monkeypatch):
        """No window of a stock-blade farm is materialized."""

        def boom(*args, **kwargs):
            raise AssertionError("a columnar window was materialized")

        running, _ = build_stream("batched")
        monkeypatch.setattr(ColumnarBatch, "_materialize", boom)
        monkeypatch.setattr(TokenStream, "from_flits", boom)
        running.simulation.run_until(STREAM_CYCLES)
        assert running.blade(STREAM_SENDERS).nic.stats.rx_frames > 0

    @pytest.mark.parametrize("first", ["batched", "scalar"])
    def test_engine_switch_with_rows_parked_at_a_blade(self, first):
        running, _ = build_stream(first)
        simulation = running.simulation
        if first == "batched":
            run_until_rows_parked(running)
        else:
            simulation.run_until(STREAM_CYCLES // 2)
        simulation.engine = "scalar" if first == "batched" else "batched"
        simulation.run_until(STREAM_CYCLES)
        assert stream_fingerprint(running) == scalar_stream_fingerprint()

    def test_round_start_hook_reads_live_switch_state(self):
        """What a hook or a digest reads off a switch mid-run is the
        state the batched engine is working on — not a scalar copy
        that is stale until the run ends."""

        def observe(engine):
            running, _ = build_stream(engine)
            seen = []

            def hook(cycle, model):
                if model is None:
                    seen.append((
                        cycle,
                        [
                            (switch.queued_packets(), switch.queued_bytes())
                            for _, switch in sorted(running.switches.items())
                        ],
                        state_digest(running),
                    ))

            running.simulation.fault_hook = hook
            running.simulation.run_until(STREAM_CYCLES)
            return seen

        scalar_seen = observe("scalar")
        # Vacuous unless some round starts with packets buffered.
        assert any(packets for _, queued, _ in scalar_seen
                   for packets, _ in queued)
        assert observe("batched") == scalar_seen

    def test_snapshot_captured_inside_a_hook_restores_exactly(self):
        """A snapshot taken from a round-start hook of a batched run,
        while the switch holds packets, resumes to the undisturbed end.

        The orchestrator folds its own cycle and counters in when
        ``run_until`` returns, so the hook supplies the cycle and the
        comparison leaves ``sim.stats`` out; every model and link is
        live."""

        def model_view(sim):
            view = observe_source_farm(sim)
            return view[:3] + view[4:]

        reference = build_source_farm("scalar")
        reference.run_until(6_400)
        expected = model_view(reference)

        sim = build_source_farm("batched")
        snapshots = []

        def hook(cycle, model):
            switch = sim.models[2]
            if model is None and not snapshots and switch.queued_packets():
                snapshots.append(SimulationSnapshot.capture(sim))
                snapshots[0].cycle = cycle

        sim.fault_hook = hook
        sim.run_until(6_400)
        sim.fault_hook = None
        assert model_view(sim) == expected
        (snapshot,) = snapshots
        assert 0 < snapshot.cycle < 6_400
        for engine in ("batched", "scalar"):
            snapshot.restore(sim)
            assert sim.models[2].queued_packets() > 0
            sim.engine = engine
            sim.run_until(6_400)
            assert model_view(sim) == expected

    def test_snapshot_restore_with_rows_parked_at_a_blade(self):
        """A thread-less blade is deep-copyable, so a state snapshot can
        hold a ``ColumnarBatch`` in its inbound queue; restoring it and
        resuming on either engine lands where the scalar run does."""
        reference = build_source_farm("scalar")
        reference.run_until(6_400)
        expected = observe_source_farm(reference)
        assert "rx_frames=6" in expected[1]

        sim = build_source_farm("batched")
        while not any(
            type(e) is ColumnarBatch
            for e in sim.links[1].to_b._queue
        ):
            sim.run_cycles(1)
        snapshot = SimulationSnapshot.capture(sim)
        for engine in ("batched", "scalar"):
            sim.run_until(6_400)  # progress the restore throws away
            snapshot.restore(sim)
            assert any(
                type(e) is ColumnarBatch for e in sim.links[1].to_b._queue
            )
            sim.engine = engine
            sim.run_until(6_400)
            assert observe_source_farm(sim) == expected

    def test_distributed_boundary_at_blade_links_stays_exact(self):
        """Every blade in one worker, every switch in the other: all six
        boundary links are blade links, so each crossing takes the
        materializing fallback in both directions."""
        running, _ = build_stream("batched")
        simulation = running.simulation
        assignment = {
            key: 0 if key.startswith("node") else 1
            for key in simulation.partition_keys()
        }
        plan = plan_from_assignment(assignment, num_workers=2)
        assert len(plan.boundaries(simulation)) == 2 * STREAM_SENDERS
        run_distributed(simulation, plan, STREAM_CYCLES)
        found = stream_fingerprint(running)
        expected = dict(scalar_stream_fingerprint())
        # NIC counters and cursors stay behind in the workers; the merged
        # state carries what a workload or a checkpoint can observe.
        del found["nics"], expected["nics"]
        assert found == expected


class FrameSource(Fame1Model):
    """Sends whole frames, ``pace`` cycles per flit, from cycle 0 on
    (plain data only, so simulations holding one can be snapshotted)."""

    def __init__(self, name, frames, pace=1):
        super().__init__(name, ["net"])
        self.flits = []
        cycle = 0
        for frame in frames:
            for flit in frame.to_flits():
                self.flits.append((cycle, flit))
                cycle += pace

    def _tick(self, window, inputs):
        out = window.new_batch()
        for cycle, flit in self.flits:
            if window.start <= cycle < window.end:
                out.add(cycle, flit)
        return {"net": out}


def build_source_farm(engine):
    """source -> 2-port switch -> thread-less blade: deep-copyable, so
    a ``SimulationSnapshot`` can be taken at any round boundary."""
    frames = [
        EthernetFrame(src=mac_address(0), dst=mac_address(1), size_bytes=size)
        for size in (1514, 64, 700, 1514, 1514, 128)
    ]
    sim = Simulation(engine=engine)
    source = sim.add_model(FrameSource("src", frames, pace=3))
    blade = sim.add_model(ServerBlade("node1", node_index=1))
    switch = sim.add_model(
        SwitchModel(
            "tor", SwitchConfig(num_ports=2),
            mac_table={mac_address(0): 0, mac_address(1): 1},
        )
    )
    sim.connect(source, "net", switch, "port0", 320)
    sim.connect(switch, "port1", blade, "net", 320)
    return sim


def observe_source_farm(sim):
    blade, switch = sim.models[1], sim.models[2]
    return (
        sim.current_cycle, repr(blade.nic.stats),
        blade.nic._writer_free_cycle, repr(sim.stats),
        [(l.flits_a_to_b, l.flits_b_to_a) for l in sim.links],
        repr(switch.stats), switch.queued_packets(),
    )


class TestEngineSelection:
    def test_unknown_engine_rejected_by_simulation(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulation(engine="turbo")

    def test_unknown_engine_rejected_by_config(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            RunFarmConfig(engine="turbo")

    def test_engine_registry_names_both_paths(self):
        assert ENGINES == ("scalar", "batched")


class TestLoopContract:
    """The scalar spec and the batched loop behind one call: same
    parameters, same hook firing order, same accounting."""

    CYCLES = 64_000

    def drive(self, engine, **kwargs):
        """Call the selected loop directly over the two-tier ping farm."""
        running, _ = build_batched("two_tier_2x2")
        sim = running.simulation
        sim.start()
        progress = RoundProgress(0)
        round_loop(engine)(
            sim.models, sim._attachments, sim.quantum, 0, self.CYCLES,
            progress, **kwargs,
        )
        return sim, progress

    def test_both_loops_share_one_parameter_list(self):
        scalar, batched = (round_loop(engine) for engine in ENGINES)
        assert scalar is not batched
        assert inspect.signature(scalar) == inspect.signature(batched)

    def test_hooks_fire_in_the_same_order_with_the_same_arguments(self):
        def run(engine):
            calls = []
            sim, progress = self.drive(
                engine,
                hook=lambda cycle, model: calls.append(("hook", cycle, model)),
                pre_round=lambda cycle, n: calls.append(("pre", cycle, n)),
                post_round=lambda cycle, n: calls.append(("post", cycle, n)),
            )
            # Switch names come from a global counter: log positions.
            position = {id(model): i for i, model in enumerate(sim.models)}
            position[id(None)] = None
            calls = [
                (kind, cycle, position[id(arg)] if kind == "hook" else arg)
                for kind, cycle, arg in calls
            ]
            fields = {
                name: getattr(progress, name)
                for name in RoundProgress.__slots__
            }
            return calls, fields, len(sim.models), sim.quantum

        scalar_calls, scalar_fields, models, quantum = run("scalar")
        batched_calls, batched_fields, _, _ = run("batched")
        assert batched_calls == scalar_calls
        assert batched_fields == scalar_fields
        assert scalar_fields["rounds"] == self.CYCLES // quantum
        assert scalar_fields["valid_tokens_moved"] > 0
        # One round: pre, round-start hook, one hook per model, post.
        assert scalar_calls[: models + 3] == (
            [("pre", 0, 0), ("hook", 0, None)]
            + [("hook", 0, i) for i in range(models)]
            + [("post", quantum, 1)]
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_measure_times_every_model(self, engine):
        sim, progress = self.drive(engine, measure=True)
        assert set(progress.model_host_seconds) == {
            model.name for model in sim.models
        }
        assert all(v >= 0.0 for v in progress.model_host_seconds.values())

    def test_mid_round_hook_raise_leaves_identical_stats(self):
        class Crash(Exception):
            pass

        def run(engine):
            running, _ = build_batched("two_tier_2x2")
            sim = running.simulation
            sim.engine = engine
            sim.start()
            victim = sim.models[len(sim.models) // 2]

            def hook(cycle, model):
                if cycle == 32_000 and model is victim:
                    raise Crash

            sim.fault_hook = hook
            with pytest.raises(Crash):
                sim.run_until(self.CYCLES)
            return dataclasses.astuple(sim.stats), sim.current_cycle

        scalar = run("scalar")
        assert scalar[1] == 32_000
        assert scalar[0][2] > 0  # the failing round's tokens are counted
        assert run("batched") == scalar


class TestTokenStream:
    def test_from_flits_shifts_once(self):
        stream = TokenStream.from_flits(
            0, 64, {3: Flit(data="x"), 9: Flit(data="y")}, shift=10
        )
        assert stream.start_cycle == 10
        assert stream.end_cycle == 74
        assert stream.valid_count == 2
        assert sorted(stream.flits) == [13, 19]

    def test_to_batch_keys_are_python_ints(self):
        """np.int64 leaking into flit dicts would corrupt repr digests."""
        stream = TokenStream.from_flits(0, 8, {2: Flit(data="x")})
        batch = stream.to_batch()
        assert isinstance(batch, TokenBatch)
        assert all(type(cycle) is int for cycle in batch.flits)
        assert all(type(cycle) is int for cycle in stream.flits)
        assert all(type(cycle) is int for cycle, _ in stream.iter_flits())

    def test_shift_in_place_updates_flit_view(self):
        stream = TokenStream.from_flits(0, 32, {5: Flit(data="x")})
        assert stream.shift(100) is stream
        assert stream.start_cycle == 100
        assert sorted(stream.flits) == [105]

    def test_pickle_roundtrip_preserves_window(self):
        """Streams ship over worker pipes as-is (no convert/deconvert)."""
        stream = TokenStream.from_flits(
            640, 160, {700: Flit(data="p", last=True)}
        )
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.start_cycle == stream.start_cycle
        assert clone.length == stream.length
        assert clone.tokens.dtype == TOKEN_DTYPE
        assert sorted(clone.flits) == [700]
        assert clone.flits[700].data == "p"

    def test_duck_types_token_batch_window(self):
        stream = TokenStream.from_flits(10, 20, {})
        assert len(stream) == 20
        assert stream.valid_count == 0
        assert stream.flits == {}
        assert stream.contains_cycle(10)
        assert not stream.contains_cycle(30)


class TestStockPhaseGuards:
    MACS = {mac_address(0): 0, mac_address(1): 1}

    def make_switch(self, cls=SwitchModel):
        return cls("tor", SwitchConfig(num_ports=2), mac_table=dict(self.MACS))

    def test_columnar_safe_disabled_for_route_overrides(self):
        class CustomRoute(SwitchModel):
            def route(self, frame, ingress_port):
                return super().route(frame, ingress_port)

        assert self.make_switch().columnar_safe
        custom = self.make_switch(CustomRoute)
        assert custom._idle_safe and not custom.columnar_safe

    def test_idle_safe_disabled_for_tick_overrides(self):
        class CountingSwitch(SwitchModel):
            def _tick(self, window, inputs):
                return super()._tick(window, inputs)

        assert self.make_switch()._idle_safe
        assert not self.make_switch(CountingSwitch)._idle_safe
        assert self.make_switch(CountingSwitch).idle_outputs(None) is None


class TestRateMonitorBulkAbsorb:
    def test_absorb_tick_totals_accumulates(self):
        monitor = RateMonitor()
        monitor.absorb_tick_totals(["a", "b"], np.array([0.5, 0.25]))
        monitor.absorb_tick_totals(["a"], np.array([0.5]))
        assert monitor.model_host_seconds == {"a": 1.0, "b": 0.25}
        assert all(
            type(v) is float for v in monitor.model_host_seconds.values()
        )

    def test_absorb_round_times_matches_per_round_recording(self):
        bulk, serial = RateMonitor(), RateMonitor()
        walls = [0.25, 0.125, 0.5]
        bulk.absorb_round_times(6400, np.array(walls))
        for wall in walls:
            serial.record_round(6400, wall)
        assert bulk.report() == serial.report()

    def test_absorb_round_times_empty_is_noop(self):
        monitor = RateMonitor()
        monitor.absorb_round_times(6400, np.empty(0))
        report = monitor.report()
        assert report.rounds == 0
        assert report.wall_seconds == 0.0

    def test_batched_run_reports_same_rounds_as_scalar(self):
        def run(engine):
            root = TOPOLOGIES["single_rack_4"]()
            running = elaborate(
                root, RunFarmConfig(link_latency_cycles=640, engine=engine)
            )
            monitor = RateMonitor().attach(running.simulation)
            running.simulation.run_until(64_000)
            return monitor.report()

        scalar, batched = run("scalar"), run("batched")
        assert batched.rounds == scalar.rounds
        assert batched.cycles == scalar.cycles
        assert batched.wall_seconds > 0
        # Switch ids come from a global counter, so compare model counts,
        # not names: every model was timed under both engines.
        assert len(batched.model_host_seconds) == len(
            scalar.model_host_seconds
        )
        assert all(v >= 0 for v in batched.model_host_seconds.values())


class ScriptedSource(Fame1Model):
    """Emits one single-flit packet at each scheduled cycle; never idle-
    elidable (no ``idle_outputs`` override), like a real traffic source."""

    def __init__(self, name, schedule):
        super().__init__(name, ["out"])
        self.schedule = sorted(schedule)

    def _tick(self, window, inputs):
        batch = window.new_batch()
        for cycle in self.schedule:
            if window.start <= cycle < window.end:
                batch.flits[cycle] = Flit(data=("pkt", cycle), last=True)
        return {"out": batch}


class RecordingSink(Fame1Model):
    def __init__(self, name):
        super().__init__(name, ["in"])
        self.received = []

    def _tick(self, window, inputs):
        for cycle in sorted(inputs["in"].flits):
            self.received.append((cycle, inputs["in"].flits[cycle].data))
        return {"in": window.new_batch()}


class TestIdleElisionProperty:
    @given(
        schedule=st.sets(
            st.integers(min_value=0, max_value=20_000), max_size=12
        ),
        quantum=st.sampled_from([None, 64, 160, 320]),
    )
    @settings(max_examples=15, deadline=None)
    def test_elision_never_changes_flit_counts(self, schedule, quantum):
        """A source -> tracer -> sink chain where the tracer's windows
        are mostly idle: elision must neither drop nor invent flits,
        and delivery cycles must match the scalar engine exactly."""

        def run(engine):
            sim = Simulation(quantum_override=quantum, engine=engine)
            source = sim.add_model(ScriptedSource("src", schedule))
            sink = sim.add_model(RecordingSink("dst"))
            tracer = splice_tracer(
                sim, source, "out", sink, "in", 640, "wire"
            )
            sim.run_until(22_000 + 2 * 640)
            counts = tuple(
                (link.flits_a_to_b, link.flits_b_to_a)
                for link in sim.links
            )
            return list(sink.received), counts, len(tracer.records)

        scalar = run("scalar")
        batched = run("batched")
        assert batched == scalar
        received, counts, _ = batched
        assert len(received) == len(schedule)
        assert sorted(data[1] for _, data in received) == sorted(schedule)
        # Every hop moved exactly one flit per scheduled packet.
        assert all(a2b == len(schedule) for a2b, _ in counts)

    def test_null_model_idle_override_guard(self):
        """A NullModel subclass with a custom _tick must not be elided."""

        class Counting(NullModel):
            ticks = 0

            def _tick(self, window, inputs):
                type(self).ticks += 1
                return super()._tick(window, inputs)

        window = TokenWindow(0, 64)
        outputs = NullModel("n", ["p"]).idle_outputs(window)
        assert outputs is not None
        assert outputs["p"].valid_count == 0
        assert Counting("n", ["p"]).idle_outputs(window) is None
