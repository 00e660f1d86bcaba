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
import multiprocessing
import os
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigError
from repro.core.channel import Link, LinkEndpoint, TokenStarvationError
from repro.core.events import EventQueue
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
from repro.manager.topology import single_rack, two_tier
from repro.net.ethernet import EthernetFrame, mac_address
from repro.net.switch import SwitchConfig, SwitchModel
from repro.net.tracer import splice_tracer
from repro.obs.rate import RateMonitor
from repro.obs.trace import ChromeTraceSink
from repro.nic.ratelimit import rate_settings_for_bandwidth
from repro.perf import ColumnarBatch, TokenStream
from repro.swmodel.apps.memcached import MemcachedConfig, start_memcached
from repro.swmodel.apps.mutilate import MutilateConfig, start_mutilate
from repro.swmodel.apps.ping import RESULT_KEY, make_ping_client
from repro.swmodel.apps.streamer import (
    attach_baremetal_receiver,
    make_baremetal_sender,
)
from repro.swmodel.server import ServerBlade
from tests.test_dist import (
    TARGET_CYCLES,
    TOPOLOGIES,
    build,
    fingerprint,
    serial_fingerprint,
)
from tests.test_dist_frame import hetero_build

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


class TestContendedBlade:
    """A Figure-7-shaped farm: softirqs land on a server whose four
    unpinned memcached threads contend for its cores, so interrupts
    preempt running threads and same-cycle blade events pile up."""

    SEGMENTS = (2_000_000, 4_500_000, 6_400_000)  # ~2 ms in three runs

    def observe(self, engine, monkeypatch):
        scheduled = [0]
        schedule = EventQueue.schedule

        def counted(self, cycle, callback):
            scheduled[0] += 1
            return schedule(self, cycle, callback)

        monkeypatch.setattr(EventQueue, "schedule", counted)
        running = elaborate(single_rack(8), RunFarmConfig(engine=engine))
        server = running.blade(0)
        start_memcached(server, MemcachedConfig(num_threads=4))
        for client in range(1, 8):
            start_mutilate(
                running.blade(client),
                MutilateConfig(
                    server_mac=server.mac,
                    target_qps=130_000 / 7,
                    duration_cycles=self.SEGMENTS[-1],
                    num_connections=16,
                    server_threads=4,
                    seed=1000 + client,
                ),
            )
        seen = []
        for end in self.SEGMENTS:
            running.simulation.run_until(end)
            threads = [
                (t.cpu_cycles, t.context_switches, t.work_remaining,
                 t.slice_remaining)
                for t in server.kernel.scheduler.threads
            ]
            seen.append((state_digest(running), scheduled[0], threads))
        monkeypatch.undo()
        return seen

    def test_batched_matches_scalar_at_every_segment(self, monkeypatch):
        scalar = self.observe("scalar", monkeypatch)
        assert self.observe("batched", monkeypatch) == scalar
        # The server really was contended: its threads were switched
        # more often than they were started.
        threads = scalar[-1][2]
        assert sum(switches for _, switches, _, _ in threads) > len(threads)


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
        out = TokenBatch(window.start, window.length)
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
        period = 3

        def run(engine, with_hook):
            calls = []
            kwargs = {
                "exchange": (
                    period,
                    # ``cycle`` is ``n`` quanta in: the next exchange is
                    # ``period`` quanta on.
                    lambda cycle, n, wake: calls.append(("step", cycle, n))
                    or cycle + cycle // n * period,
                ),
            }
            if with_hook:
                kwargs["hook"] = (
                    lambda cycle, model: calls.append(("hook", cycle, model))
                )
            sim, progress = self.drive(engine, **kwargs)
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

        for with_hook in (True, False):
            scalar_calls, scalar_fields, models, quantum = run(
                "scalar", with_hook
            )
            batched_calls, batched_fields, _, _ = run("batched", with_hook)
            assert batched_calls == scalar_calls
            assert batched_fields == scalar_fields
            rounds = self.CYCLES // quantum
            assert scalar_fields["rounds"] == rounds
            assert scalar_fields["valid_tokens_moved"] > 0
            steps = [call for call in scalar_calls if call[0] == "step"]
            # At the start of every exchange after the first.
            assert steps == [
                ("step", n * quantum, n)
                for n in range(period, rounds, period)
            ]
        # One round: the round-start hook, one hook per model; the
        # step comes first in an exchange round.
        with_hooks, _, _, _ = run("scalar", True)
        assert with_hooks[: models + 1] == (
            [("hook", 0, None)] + [("hook", 0, i) for i in range(models)]
        )
        at = (models + 1) * period
        assert with_hooks[at: at + 2] == [
            ("step", period * quantum, period),
            ("hook", period * quantum, None),
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_the_step_names_the_next_exchange(self, engine):
        """Both loops exchange where the step says, and the wake they
        pass never lies before the exchange: the scalar loop, visiting
        every model, promises nothing past it."""
        calls = []

        def step(cycle, n, wake):
            calls.append((cycle, n, wake))
            return cycle + cycle // n * 5

        sim, progress = self.drive(engine, exchange=(2, step))
        quantum = sim.quantum
        assert progress.rounds == self.CYCLES // quantum
        assert [(cycle, n) for cycle, n, _ in calls] == [
            (n * quantum, n) for n in range(2, progress.rounds, 5)
        ]
        assert all(wake >= cycle for cycle, _, wake in calls)
        if engine == "scalar":
            assert all(wake == cycle for cycle, _, wake in calls)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_measure_times_every_model(self, engine):
        """``wrap`` sees each model's tick once per call of the loop."""
        monitor = RateMonitor()
        wrapped = []

        def wrap(name, tick):
            wrapped.append(name)
            return monitor.wrap_tick(name, tick)

        sim, _ = self.drive(engine, wrap=wrap)
        names = sorted(model.name for model in sim.models)
        assert sorted(wrapped) == names
        assert sorted(monitor.model_host_seconds) == names
        assert all(v >= 0.0 for v in monitor.model_host_seconds.values())

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
        """A ``numpy.int64`` cycle in a flit dict would change repr digests."""
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
        assert clone.cycles == [700]
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
        # A custom tick opts out of idle skipping: it may act any cycle.
        counting = self.make_switch(CountingSwitch)
        assert counting.idle_horizon() == counting.current_cycle
        assert self.make_switch().idle_horizon() is None


class TestRateMonitorBulkAbsorb:
    """A monitor on either engine: one wall per run, ticks wrapped."""

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

    def test_rounds_the_engine_skips_count_but_are_not_timed(self):
        """An idle rack: nearly every round is jumped over.  Those rounds
        still count toward rounds and cycles, the run's one wall covers
        them, and every model is named whether or not it ticked."""

        def run(engine):
            running = elaborate(single_rack(2), RunFarmConfig(engine=engine))
            monitor = RateMonitor().attach(running.simulation)
            running.simulation.run_until(2_000_000)
            return monitor.report()

        scalar, batched = run("scalar"), run("batched")
        assert (batched.rounds, batched.cycles) == (
            scalar.rounds, scalar.cycles
        )
        assert batched.wall_seconds > 0.0
        assert len(batched.model_host_seconds) == 3

    def test_traced_batched_run_spans_only_the_ticks_that_ran(self):
        """A slot the active set does not visit calls no tick, so it has
        no ``sim.tick`` span; the trace changes nothing the target
        sees."""

        def run(engine, sink=None):
            running = elaborate(single_rack(2), RunFarmConfig(engine=engine))
            monitor = None
            if sink is not None:
                monitor = RateMonitor(trace=sink).attach(running.simulation)
            running.blade(0).spawn(
                "ping", make_ping_client(
                    running.blade(1).mac, count=3, interval_cycles=80_000
                ),
            )
            running.simulation.run_until(2_000_000)
            return running, monitor

        sink = ChromeTraceSink()
        traced, monitor = run("batched", sink)
        sim = traced.simulation
        spans = [e for e in sink.events if e.get("cat") == "sim.tick"]
        assert 0 < len(spans) < len(sim.models) * sim.stats.rounds
        assert sorted(monitor.model_host_seconds) == sorted(
            model.name for model in sim.models
        )
        for other, _ in (run("batched"), run("scalar")):
            assert other.simulation.stats == sim.stats
            assert state_digest(other) == state_digest(traced)


class ScriptedSource(Fame1Model):
    """Emits one single-flit packet at each scheduled cycle; never idle-
    elidable (no ``idle_horizon`` override), like a real traffic source."""

    def __init__(self, name, schedule):
        super().__init__(name, ["out"])
        self.schedule = sorted(schedule)

    def _tick(self, window, inputs):
        batch = TokenBatch(window.start, window.length)
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
        return {"in": TokenBatch(window.start, window.length)}


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

        assert NullModel("n", ["p"]).idle_horizon() is None
        counting = Counting("n", ["p"])
        counting.current_cycle = 640
        assert counting.idle_horizon() == 640


class Crash(Exception):
    pass


class Bomb(Fame1Model):
    """Idle, with a horizon, until cycle ``at`` — whose round's tick
    raises (never, when ``at`` is None)."""

    def __init__(self, name, at):
        super().__init__(name, ["net"])
        self.at = at

    def _armed(self, window):
        return self.at is not None and window.start <= self.at < window.end

    def _tick(self, window, inputs):
        if self._armed(window):
            raise Crash(window.start)
        return {"net": TokenBatch(window.start, window.length)}

    def idle_horizon(self):
        if self.at is None or self.at < self.current_cycle:
            return None
        return self.at


def build_mixed(engine, bomb_at=None):
    """Two pinging blades behind a three-port switch, on 640- and
    1000-cycle links: the 1000-cycle link's windows straddle two of the
    640-cycle rounds.  The third port feeds a :class:`Bomb`."""
    sim = Simulation(engine=engine)
    a = sim.add_model(ServerBlade("node0", node_index=0))
    bomb = sim.add_model(Bomb("bomb", bomb_at))
    b = sim.add_model(ServerBlade("node1", node_index=1))
    switch = sim.add_model(
        SwitchModel(
            "tor", SwitchConfig(num_ports=3),
            mac_table={mac_address(0): 0, mac_address(1): 1},
        )
    )
    sim.connect(a, "net", switch, "port0", 640)
    sim.connect(switch, "port1", b, "net", 1000)
    sim.connect(switch, "port2", bomb, "net", 640)
    a.spawn("ping", make_ping_client(b.mac, count=3, interval_cycles=20_000))
    return sim


def queue_state(sim):
    """Every endpoint's cursors (consumed, pushed, newest push), loss
    gap and queued windows, each window as (start, length, valid
    flits), plus every model's cycle.  Queues hold only windows that
    carry flits, so the cursors say where every empty token is."""
    endpoints = []
    for link in sim.links:
        for endpoint in (link.to_a, link.to_b):
            endpoints.append((
                endpoint._consumed_until,
                endpoint._pushed_until,
                endpoint._tail_at,
                endpoint._gap_at,
                [
                    (window.start_cycle, window.length, sorted(
                        (cycle, flit.index, flit.last, flit.data.src,
                         flit.data.dst, flit.data.size_bytes)
                        for cycle, flit in window.flits.items()
                    ))
                    for window in endpoint._queue
                ],
            ))
    return (
        endpoints,
        [model.current_cycle for model in sim.models],
        dataclasses.astuple(sim.stats),
    )


class TestActiveSet:
    """The batched loop visits only slots with work and leaves the
    cursors and queues the scalar spec would."""

    def test_quiet_blade_is_not_asked_every_round(self):
        running, _ = build_batched("two_tier_2x2")
        quiet = running.blades[1]
        visits = []
        tick = quiet._tick
        quiet._tick = lambda *args, **kw: visits.append(None) or tick(
            *args, **kw
        )
        running.simulation.run_until(TARGET_CYCLES)
        assert running.simulation.stats.rounds > 1000
        # A handful of visits (start, the flooded ARP), not one a round.
        assert 0 < len(visits) <= 10

    @pytest.mark.parametrize("farm", ["mixed_latency", "two_tier_2x2",
                                      "stream"])
    def test_queues_after_batched_segments_match_scalar(self, farm):
        """Two batched segments, then a scalar one: after each, every
        endpoint holds the windows the scalar engine's does (the stream
        farm has frames in flight at every boundary)."""
        targets = (50_000, 130_000, 200_000)
        if farm == "mixed_latency":
            scalar, batched = build_mixed("scalar"), build_mixed("batched")
        elif farm == "stream":
            scalar = build_stream("scalar")[0].simulation
            batched = build_stream("batched")[0].simulation
            targets = (21_000, 42_000, STREAM_CYCLES)
        else:
            scalar = build(farm)[0].simulation
            batched = build_batched(farm)[0].simulation
        for target, engine in zip(targets, ("batched", "batched", "scalar")):
            batched.engine = engine
            scalar.run_until(target)
            batched.run_until(target)
            assert queue_state(batched) == queue_state(scalar)
        assert scalar.stats.valid_tokens_moved > 0

    def test_raise_mid_run_leaves_the_scalar_state(self):
        """A tick raising inside an active-set run: counters, model
        cycles and every queue are what the scalar loop leaves."""

        def run(engine):
            sim = build_mixed(engine, bomb_at=77_777)
            with pytest.raises(Crash):
                sim.run_until(200_000)
            return sim.current_cycle, queue_state(sim)

        scalar = run("scalar")
        assert scalar[0] == 77_777 // 640 * 640
        assert run("batched") == scalar

    @pytest.mark.parametrize("direction,starved", [
        ("a_to_b", ("tor", "port0")),
        # A stock blade meets the gap: it takes the generic visit.
        ("b_to_a", ("node0", "net")),
    ], ids=["switch", "blade"])
    def test_gap_at_entry_starves_with_the_same_diagnostic(
        self, direction, starved
    ):
        def run(engine):
            sim = build_mixed(engine)
            sim.run_until(40_000)
            sim.links[0].lose_in_flight(direction)
            with pytest.raises(TokenStarvationError) as info:
                sim.run_until(200_000)
            error = info.value
            return (
                str(error), error.model_name, error.port, error.cycle,
                queue_state(sim),
            )

        scalar = run("scalar")
        assert scalar[1:3] == starved
        assert run("batched") == scalar


def assert_latency_invariant(sim, lag=None):
    """Every endpoint holds its link's latency of tokens, and queues only
    windows that carry a flit.  ``lag(link, side)`` adds the cycles the
    endpoint's producer has pushed beyond what its consumer has popped
    (non-zero only mid-round)."""
    for link, (model_a, _), (model_b, _) in sim.link_attachments():
        for endpoint, producer, consumer in (
            (link.to_b, model_a, model_b), (link.to_a, model_b, model_a),
        ):
            held = endpoint._pushed_until - endpoint._consumed_until
            extra = lag(producer, consumer) if lag is not None else 0
            assert held == link.latency + extra, link.name
            assert all(window.valid_count for window in endpoint._queue)


class TestLatencyInvariant:
    """The paper's contract — a link of latency ``l`` holds ``l`` tokens
    — as a checkable cursor invariant at every round boundary."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("farm", ["mixed_latency", "two_tier_2x2"])
    def test_at_every_round_start_hook(self, engine, farm):
        if farm == "mixed_latency":
            sim = build_mixed(engine)
        else:
            sim = build(farm, engine=engine)[0].simulation
        checked = []

        def hook(cycle, model):
            if model is None:
                assert_latency_invariant(sim)
                checked.append(cycle)

        sim.fault_hook = hook
        sim.run_until(120_000)
        assert len(checked) == sim.stats.rounds
        assert sim.stats.valid_tokens_moved > 0

    @pytest.mark.parametrize("farm", ["mixed_latency", "two_tier_2x2"])
    def test_at_every_active_set_return(self, farm):
        if farm == "mixed_latency":
            sim = build_mixed("batched")
        else:
            sim = build_batched(farm)[0].simulation
        for target in (1, 30_000, 77_777, 130_000, 200_000):
            sim.run_until(target)
            assert_latency_invariant(sim)
        assert sim.stats.valid_tokens_moved > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_after_a_raise_mid_round(self, engine):
        """Models before the raiser finished the round, the raiser popped
        its inputs only, and the rest did nothing: each endpoint is off
        by exactly the round its producer or consumer got ahead."""
        sim = build_mixed(engine, bomb_at=77_777)
        with pytest.raises(Crash):
            sim.run_until(200_000)
        order = {id(model): index for index, model in enumerate(sim.models)}
        bomb = order[id(sim.models[1])]
        quantum = sim.quantum

        def lag(producer, consumer):
            pushed = order[id(producer)] < bomb
            popped = order[id(consumer)] <= bomb
            return quantum * (pushed - popped)

        assert sim.current_cycle == 77_777 // 640 * 640
        assert_latency_invariant(sim, lag)

    def test_at_every_exchange_of_a_two_worker_run(self, tmp_path):
        """A hook installed before the fork runs inside both workers and
        checks every endpoint at every exchange (each 640-cycle trunk
        period of the heterogeneous farm)."""
        running, plan = hetero_build("batched")
        sim = running.simulation
        log = tmp_path / "checked"

        def hook(cycle, model):
            if model is None and cycle % 640 == 0:
                assert_latency_invariant(sim)
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()} {cycle}\n")

        sim.fault_hook = hook
        result = run_distributed(sim, plan, 200_000)
        assert result.round_quantum == 640
        assert sim.stats.valid_tokens_moved > 0
        lines = log.read_text(encoding="utf-8").split()
        workers = set(lines[0::2])
        cycles = [int(cycle) for cycle in lines[1::2]]
        assert len(workers) == 2 and str(os.getpid()) not in workers
        assert sorted(cycles) == sorted(2 * list(range(0, 200_000, 640)))


def build_small_ping_farm():
    """``ping_farm`` in miniature: 2 racks x 4 blades, 6400-cycle trunks,
    1600-cycle server links, every blade pinging its rack neighbour and
    each rack's first blade pinging the next rack."""
    running = elaborate(
        two_tier(num_racks=2, servers_per_rack=4),
        RunFarmConfig(
            link_latency_cycles=6400,
            server_link_latency_cycles=1600,
            switch_latency_cycles=10,
            engine="batched",
        ),
    )
    blades = running.blades
    for index in range(8):
        rack, slot = divmod(index, 4)
        flows = [(rack * 4 + (slot + 1) % 4, 8, 20_000 + 160 * index)]
        if slot == 0:
            flows.append((((rack + 1) % 2) * 4, 9, 23_000 + 160 * index))
        for dst, ident, interval in flows:
            blades[index].spawn(
                f"ping{ident}",
                make_ping_client(
                    blades[dst].mac, count=40, interval_cycles=interval,
                    ident=ident,
                ),
                start_cycle=617 * index + 101 * (ident - 8),
            )
    return running


class TestNoEmptyWindows:
    """Absent means empty: the batched hot path builds a window only
    where it carries a flit."""

    def test_ping_farm_builds_only_windows_with_flits(self, monkeypatch):
        built = []

        def recording(cls):
            init = cls.__init__

            def wrapped(self, *args, **kwargs):
                init(self, *args, **kwargs)
                caller = sys._getframe(1)
                if caller.f_code.co_name == "empty":
                    caller = caller.f_back
                built.append((self, caller.f_code))

            monkeypatch.setattr(cls, "__init__", wrapped)

        for cls in (TokenBatch, TokenStream, ColumnarBatch):
            recording(cls)
        running = build_small_ping_farm()
        running.simulation.run_until(400_000)
        monkeypatch.undo()
        exempt = {LinkEndpoint.pop.__code__, Link.prime.__code__}
        with_flits = 0
        for window, code in built:
            if code in exempt:
                continue  # a link-priming window, or a pop gather/split
            assert window.valid_count >= 1, (
                f"{type(window).__name__} built empty by {code.co_name} "
                f"({code.co_filename}:{code.co_firstlineno})"
            )
            with_flits += 1
        assert with_flits > 100
        answered = sum(
            len(blade.results.get(RESULT_KEY, []))
            for blade in running.blades.values()
        )
        assert answered >= 8


class Chatter(Fame1Model):
    """A custom (non-raw) endpoint: sends a 64 B frame to ``peer`` at
    each scheduled cycle and records the frames it receives.  With
    ``omit``, a window with nothing to send is left out of the outputs
    on alternate windows; without, it is always an explicit empty
    batch."""

    def __init__(self, name, index, peer, schedule, omit):
        super().__init__(name, ["net"])
        self.mac = mac_address(index)
        self.peer = mac_address(peer)
        self.schedule = sorted(schedule)
        self.omit = omit
        self.omitted = 0
        self.received = []

    def _tick(self, window, inputs):
        for cycle, flit in inputs["net"].iter_flits():
            if flit.last:
                frame = flit.data
                self.received.append(
                    (cycle, frame.src, frame.dst, frame.size_bytes)
                )
        out = TokenBatch(window.start, window.length)
        for at in self.schedule:
            if window.start <= at < window.end:
                frame = EthernetFrame(
                    src=self.mac, dst=self.peer, size_bytes=64
                )
                for index, flit in enumerate(frame.to_flits()):
                    out.add(at + index, flit)
        if self.omit and not out.flits and window.start // window.length % 2:
            self.omitted += 1
            return {}
        return {"net": out}


class TimedChatter(Chatter):
    """A chatter that says when it is idle with ``idle_horizon`` alone:
    it acts without input only at its next scheduled send."""

    def idle_horizon(self):
        for at in self.schedule:
            if at >= self.current_cycle:
                return at
        return None


def build_chatter_farm(engine, omit, chatter=Chatter):
    """Two chatters through a stock switch, the second behind a tracer:
    ``a`` <-640-> switch <-320-> tracer <-320-> ``b``, so a round is
    320 cycles and every frame fits in the round it starts in."""
    sim = Simulation(engine=engine)
    a = sim.add_model(chatter(
        "a", 0, 1, [320 * k + 37 * k % 300 for k in range(3, 370, 7)], omit
    ))
    switch = sim.add_model(SwitchModel(
        "sw", SwitchConfig(num_ports=2),
        mac_table={mac_address(0): 0, mac_address(1): 1},
    ))
    b = sim.add_model(chatter(
        "b", 1, 0, [320 * k + 53 * k % 300 for k in range(5, 370, 11)], omit
    ))
    sim.connect(a, "net", switch, "port0", 640)
    splice_tracer(sim, switch, "port1", b, "net", 640, "wire")
    return sim


def chatter_fingerprint(sim, local=True):
    """What a run of the chatter farm observably did.  ``local`` adds
    what only a serial run can see: each chatter's receive log and
    every endpoint's cursors and queued windows."""
    a, switch, b, tracer = sim.models
    seen = (
        [
            (r.direction, r.src, r.dst, r.size_bytes, r.first_flit_cycle,
             r.last_flit_cycle)
            for r in tracer.records
        ],
        repr(switch.stats),
        dataclasses.astuple(sim.stats),
        [(link.flits_a_to_b, link.flits_b_to_a) for link in sim.links],
    )
    if local:
        seen += (a.received, b.received, queue_state(sim))
    return seen


def count_ticks(model):
    """Count ``model``'s ticks in a counter forked workers share."""
    ticks = multiprocessing.Value("q", 0)
    tick = model._tick

    def counted(window, inputs):
        with ticks.get_lock():
            ticks.value += 1
        return tick(window, inputs)

    model._tick = counted
    return ticks


class TestHorizonOnlyModel:
    """``idle_horizon`` is the whole idle protocol: a custom model that
    defines only a horizon, and a stock tracer, are not visited on
    quiet rounds, and every observable stays that of the explicit twin
    (a chatter without a horizon) under the scalar spec.  A hooked run
    is the spec, which ticks both every round."""

    ROUNDS = 120_000 // 320

    @pytest.fixture(scope="class")
    def reference(self):
        sim = build_chatter_farm("scalar", omit=False)
        sim.run_until(120_000)
        return chatter_fingerprint(sim)

    @staticmethod
    def build(hooked):
        sim = build_chatter_farm("batched", False, TimedChatter)
        a, _, _, tracer = sim.models
        if hooked:
            sim.fault_hook = lambda cycle, model: None
        return sim, count_ticks(a), count_ticks(tracer)

    def assert_schedule(self, hooked, *ticks):
        for count in ticks:
            if hooked:
                assert count.value == self.ROUNDS
            else:
                # Only rounds with a send or a flit.
                assert 0 < count.value < self.ROUNDS // 2

    @pytest.mark.parametrize("hooked", [False, True])
    def test_serial(self, hooked, reference):
        sim, chatter_ticks, tracer_ticks = self.build(hooked)
        sim.run_until(120_000)
        assert sim.stats.rounds == self.ROUNDS
        assert chatter_fingerprint(sim) == reference
        self.assert_schedule(hooked, chatter_ticks, tracer_ticks)

    @pytest.mark.parametrize("hooked", [False, True])
    def test_two_workers(self, hooked, reference):
        sim, chatter_ticks, tracer_ticks = self.build(hooked)
        plan = plan_from_assignment(
            {"a": 0, "sw": 1, "wire": 1, "b": 1}, num_workers=2
        )
        run_distributed(sim, plan, 120_000)
        assert chatter_fingerprint(sim, local=False) == reference[:4]
        self.assert_schedule(hooked, chatter_ticks, tracer_ticks)


class TestOmittedOutputs:
    """A port left out of a tick's outputs is an empty window: a custom
    model that omits its idle port on alternate windows is observably
    its twin that returns every empty window explicitly."""

    @pytest.fixture(scope="class")
    def reference(self):
        sim = build_chatter_farm("scalar", omit=False)
        sim.run_until(120_000)
        return chatter_fingerprint(sim)

    @pytest.mark.parametrize("mode", ["scalar", "active_set"])
    def test_omission_is_an_empty_window(self, mode, reference):
        def run(omit):
            engine = "scalar" if mode == "scalar" else "batched"
            sim = build_chatter_farm(engine, omit)
            checked = []
            if mode == "scalar":
                def hook(cycle, model):
                    if model is None:
                        assert_latency_invariant(sim)
                        checked.append(cycle)

                sim.fault_hook = hook
            for target in (30_000, 77_777, 120_000):
                sim.run_until(target)
                assert_latency_invariant(sim)
            if mode == "scalar":
                assert len(checked) == sim.stats.rounds
            return sim

        omitted, explicit = run(True), run(False)
        assert omitted.models[0].omitted > 50
        assert explicit.models[0].omitted == 0
        assert chatter_fingerprint(omitted) == reference
        assert chatter_fingerprint(explicit) == reference
        assert omitted.stats.valid_tokens_moved > 0
        assert len(omitted.models[2].received) > 10

    @pytest.mark.parametrize("hooked", [False, True])
    def test_omission_across_two_workers(self, hooked, reference, tmp_path):
        """The omitting chatter alone on worker 0: its link to the
        switch is the boundary, so an absent window is never shipped.
        The hook checks every endpoint at every exchange (each 640-cycle
        boundary period)."""
        expected = reference[:4]
        for omit in (True, False):
            sim = build_chatter_farm("batched", omit)
            log = tmp_path / f"checked-{omit}"
            if hooked:
                def hook(cycle, model):
                    if model is None and cycle % 640 == 0:
                        assert_latency_invariant(sim)
                        with open(log, "a", encoding="utf-8") as handle:
                            handle.write(f"{os.getpid()} {cycle}\n")

                sim.fault_hook = hook
            plan = plan_from_assignment(
                {"a": 0, "sw": 1, "wire": 1, "b": 1}, num_workers=2
            )
            run_distributed(sim, plan, 120_000)
            assert chatter_fingerprint(sim, local=False) == expected
            if hooked:
                lines = log.read_text(encoding="utf-8").split()
                assert len(set(lines[0::2])) == 2
                exchanges = range(0, 120_000, 640)
                assert sorted(map(int, lines[1::2])) == sorted(
                    2 * list(exchanges)
                )

    def test_tick_still_checks_present_and_unknown_ports(self):
        class Shaped(Fame1Model):
            def __init__(self, outputs):
                super().__init__("shaped", ["net"])
                self.outputs = outputs

            def _tick(self, window, inputs):
                return self.outputs(window)

        window = TokenWindow(0, 64)
        inputs = {"net": TokenBatch(0, 64)}
        assert Shaped(lambda w: {}).tick(window, inputs) == {}
        with pytest.raises(ValueError, match="extra"):
            Shaped(lambda w: {"zz": TokenBatch(0, 64)}).tick(window, inputs)
        with pytest.raises(ValueError, match="cover"):
            Shaped(lambda w: {"net": TokenBatch(0, 32)}).tick(window, inputs)
