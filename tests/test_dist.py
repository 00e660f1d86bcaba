"""Distributed execution (repro.dist): serial equivalence + recovery.

The headline guarantee under test: partitioning a simulation across
worker processes changes *nothing* observable — cycle counts, switch
byte counters, tracer packet timestamps, and workload results are
bit-identical to the serial engine, for every topology/quantum/worker
combination tried.
"""

import io
import json
import multiprocessing
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigError, RunSpec
from repro.core.simulation import Simulation
from repro.dist import plan_from_assignment, plan_partitions, run_distributed
from repro.faults.checkpoint import state_digest
from repro.faults.plan import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    WorkerCrash,
)
from repro.manager.cli import main as cli_main
from repro.manager.manager import FireSimManager
from repro.manager.mapper import HostConfig, map_topology
from repro.manager.runfarm import RunFarmConfig, elaborate
from repro.manager.topology import single_rack, two_tier
from repro.manager.workload import WorkloadSpec
from repro.net.ethernet import mac_address
from repro.net.switch import SwitchConfig, SwitchModel
from repro.net.tracer import splice_tracer
from repro.swmodel.apps.ping import RESULT_KEY, make_ping_client
from repro.swmodel.server import ServerBlade

#: One FPGA per instance so every blade is its own partitionable shard.
ONE_FPGA = HostConfig(fpgas_per_instance=1)

TOPOLOGIES = {
    "single_rack_4": lambda: single_rack(4),
    "two_tier_2x2": lambda: two_tier(num_racks=2, servers_per_rack=2),
    "two_tier_4x2": lambda: two_tier(num_racks=4, servers_per_rack=2),
}

TARGET_CYCLES = 700_000


def build(topo_key, quantum_override=None, engine="scalar"):
    root = TOPOLOGIES[topo_key]()
    running = elaborate(
        root, RunFarmConfig(link_latency_cycles=640, engine=engine)
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


def fingerprint(running):
    """Every externally observable artifact of a run, for equality."""
    sim = running.simulation
    return {
        "cycle": sim.current_cycle,
        "stats": (
            sim.stats.rounds,
            sim.stats.cycles,
            sim.stats.tokens_moved,
            sim.stats.valid_tokens_moved,
        ),
        # Positional, not by switch_id: ids come from a global counter
        # and differ between independently built (identical) topologies.
        "switches": [
            repr(sw.stats)
            for _, sw in sorted(running.switches.items())
        ],
        "blades": {
            index: {key: tuple(vals) for key, vals in blade.results.items()}
            for index, blade in running.blades.items()
        },
        "links": [
            (link.flits_a_to_b, link.flits_b_to_a) for link in sim.links
        ],
    }


_serial_cache = {}


def serial_fingerprint(topo_key, quantum_override):
    key = (topo_key, quantum_override)
    if key not in _serial_cache:
        running, _ = build(topo_key, quantum_override)
        running.simulation.run_until(TARGET_CYCLES)
        _serial_cache[key] = fingerprint(running)
    return _serial_cache[key]


class TestEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("quantum_override", [None, 160])
    @pytest.mark.parametrize("topo_key", sorted(TOPOLOGIES))
    def test_bit_identical_to_serial(
        self, topo_key, quantum_override, workers
    ):
        running, root = build(topo_key, quantum_override)
        deployment = map_topology(root, ONE_FPGA)
        plan = plan_partitions(running, deployment, workers)
        assert len(plan.boundaries(running.simulation)) > 0
        result = run_distributed(
            running.simulation, plan, TARGET_CYCLES
        )
        expected = serial_fingerprint(topo_key, quantum_override)
        assert fingerprint(running) == expected
        assert result.rounds == expected["stats"][0]
        # The workload actually crossed worker boundaries (otherwise the
        # equality above would be vacuous).
        assert expected["blades"][0][RESULT_KEY]

    def test_tracer_records_match_serial(self):
        """Packet timestamps recorded by spliced tracers are identical.

        frame_id is deliberately excluded from the comparison: it comes
        from a process-global counter, and forked workers each advance
        their own copy — cycle timing, addressing, and sizes are the
        semantically meaningful fields.
        """

        def run(distributed):
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
            if distributed:
                plan = plan_from_assignment(
                    {"node0": 0, "trace-a": 0, "tor": 1,
                     "trace-b": 1, "node1": 2}
                )
                run_distributed(sim, plan, 400_000)
            else:
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

        serial = run(False)
        assert serial[0], "serial run recorded no packets"
        assert run(True) == serial


class TestPartitioning:
    @given(
        workers=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_plan_is_deterministic(self, workers, seed):
        """Same topology + worker count → byte-identical plan, no matter
        the (seeded) RNG state of the elaborated models."""
        root = two_tier(num_racks=2, servers_per_rack=2)
        plans = []
        for spin in range(2):
            running = elaborate(
                root, RunFarmConfig(link_latency_cycles=640)
            )
            # Advance the run differently each time: model-internal RNG
            # and queue state must not leak into the plan.
            if spin == 1:
                running.simulation.run_cycles(640 * (1 + seed % 3))
            deployment = map_topology(root, ONE_FPGA)
            plans.append(plan_partitions(running, deployment, workers))
        assert plans[0].assignment == plans[1].assignment
        assert plans[0].worker_hosts == plans[1].worker_hosts
        # Full coverage, every worker non-empty.
        sim_keys = set(running.simulation.partition_keys())
        assert set(plans[0].assignment) == sim_keys
        assert set(plans[0].assignment.values()) == set(range(workers))

    def test_partition_keys_are_stable_names(self):
        running, _ = build("single_rack_4")
        sim = running.simulation
        keys = sim.partition_keys()
        assert keys == [model.name for model in sim.models]
        assert len(set(keys)) == len(keys)

    def test_more_workers_than_shards_is_config_error(self):
        running, root = build("single_rack_4")
        deployment = map_topology(root, ONE_FPGA)
        with pytest.raises(ConfigError, match="fewer than the 99 requested"):
            plan_partitions(running, deployment, 99)

    def test_empty_worker_rejected(self):
        with pytest.raises(ConfigError, match="have no models"):
            plan_from_assignment({"a": 0, "b": 2}, num_workers=3)

    def test_plan_must_cover_simulation(self):
        running, _ = build("single_rack_4")
        plan = plan_from_assignment({"node0": 0, "node1": 1})
        with pytest.raises(ConfigError, match="does not cover"):
            plan.validate_against(running.simulation)


class TestWorkersRunTheActiveSet:
    def test_quiet_blade_is_not_asked_every_round(self):
        """A worker visits a slot only when it is due, so a blade with
        no traffic and no timer is ticked a handful of times, not once
        per round.  The counter lives in shared memory, so the forked
        workers' visits land in it.  The shards also skip the exchanges
        in which no shard has a slot due."""
        running, root = build("two_tier_2x2", engine="batched")
        quiet = running.blades[1]
        visits = multiprocessing.Value("q", 0)
        tick = quiet._tick

        def counted(*args, **kw):
            with visits.get_lock():
                visits.value += 1
            return tick(*args, **kw)

        quiet._tick = counted
        plan = plan_partitions(running, map_topology(root, ONE_FPGA), 2)
        result = run_distributed(running.simulation, plan, TARGET_CYCLES)
        assert result.rounds > 1_000
        assert result.exchange_rounds < (
            result.rounds // result.rounds_per_exchange
        )
        assert 0 < visits.value <= 10


class OwnTick(ServerBlade):
    """A blade subclass with its own ``_tick``: not a stock blade."""

    def _tick(self, window, inputs):
        return super()._tick(window, inputs)


class TestStockBladeVisit:
    """The active set ticks a stock blade without asking its horizon and
    reads its event queue after the visit; it installs nothing."""

    def test_runs_leave_no_attribute_on_blades_or_queues(self):
        """No state can outlive a run or cross the fork into workers."""
        running, root = build("two_tier_2x2", engine="batched")

        def keys():
            return [
                (sorted(vars(blade)), sorted(vars(blade.events)))
                for _, blade in sorted(running.blades.items())
            ]

        before = keys()
        running.simulation.run_until(TARGET_CYCLES // 2)
        assert keys() == before
        plan = plan_partitions(running, map_topology(root, ONE_FPGA), 2)
        run_distributed(running.simulation, plan, TARGET_CYCLES)
        assert keys() == before
        assert running.simulation.current_cycle >= TARGET_CYCLES

    def test_blade_subclass_is_asked_for_its_horizon(self):
        def run(engine):
            sim = Simulation(engine=engine)
            a = sim.add_model(OwnTick("node0", node_index=0))
            b = sim.add_model(ServerBlade("node1", node_index=1))
            switch = sim.add_model(
                SwitchModel(
                    "tor",
                    SwitchConfig(num_ports=2),
                    mac_table={mac_address(0): 0, mac_address(1): 1},
                )
            )
            sim.connect(a, "net", switch, "port0", 640)
            sim.connect(switch, "port1", b, "net", 640)
            a.spawn(
                "ping",
                make_ping_client(b.mac, count=3, interval_cycles=50_000),
            )
            asked = []
            horizon = a.idle_horizon
            a.idle_horizon = lambda: asked.append(None) or horizon()
            sim.run_until(TARGET_CYCLES)
            running = SimpleNamespace(
                simulation=sim, switches={0: switch}, blades={0: a, 1: b}
            )
            return fingerprint(running), len(asked)

        scalar, _ = run("scalar")
        batched, asked = run("batched")
        assert batched == scalar
        assert len(scalar["blades"][0][RESULT_KEY]) == 2
        assert asked > 0


class TestIdleExchangeJump:
    """Shards skip together the exchanges in which no shard has a slot
    due, and every observable stays that of the serial scalar run."""

    def test_idle_cli_farm_skips_exchanges(self):
        def run(**options):
            spec = RunSpec(
                topology="two_tier", racks=4, servers_per_rack=2,
                ping_count=4, duration_ms=2, **options,
            )
            manager = spec.build_manager()
            manager.buildafi()
            manager.launchrunfarm()
            manager.infrasetup()
            result = manager.runworkload(spec.build_workload(manager))
            assert result.merged(RESULT_KEY)
            running = manager.running
            return manager, (fingerprint(running), state_digest(running))

        _, expected = run(engine="scalar")
        manager, observed = run(engine="batched", workers=2)
        assert observed == expected
        distributed = manager.last_distributed
        assert distributed.num_workers == 2
        assert distributed.exchange_rounds < (
            distributed.rounds // distributed.rounds_per_exchange
        )

    def test_star_partition_never_jumps(self):
        """Root on worker 0, rack ``i`` on worker ``i``: the spokes
        have no ring to each other, so no shard hears every wake, and
        every exchange runs."""

        def star(engine):
            running, root = build("two_tier_4x2", engine=engine)
            assignment = {f"switch{root.switch_id}": 0}
            for worker, rack in enumerate(root.downlinks):
                assignment[f"switch{rack.switch_id}"] = worker
                for server in rack.iter_servers():
                    assignment[f"node{server.node_index}"] = worker
            return running, plan_from_assignment(assignment, 4)

        serial, _ = star("scalar")
        serial.simulation.run_until(TARGET_CYCLES)
        running, plan = star("batched")
        result = run_distributed(running.simulation, plan, TARGET_CYCLES)
        assert fingerprint(running) == fingerprint(serial)
        assert state_digest(running) == state_digest(serial)
        assert result.exchange_rounds == (
            result.rounds // result.rounds_per_exchange
        )

    def test_fault_plan_keeps_every_exchange(self):
        """An armed fault hook observes single rounds, which turns the
        active set off, so no shard can promise past an exchange."""
        serial, _ = build("two_tier_2x2")
        serial.simulation.run_until(TARGET_CYCLES)
        running, root = build("two_tier_2x2", engine="batched")
        late = FaultPlan(seed=1, specs=(FaultSpec(
            kind=FaultKind.CONTROLLER_CRASH, point="runworkload",
            at_cycle=10 * TARGET_CYCLES,
        ),))
        FaultInjector(late).arm(running.simulation)
        assert running.simulation.fault_hook is not None
        plan = plan_partitions(running, map_topology(root, ONE_FPGA), 2)
        result = run_distributed(running.simulation, plan, TARGET_CYCLES)
        assert fingerprint(running) == fingerprint(serial)
        assert state_digest(running) == state_digest(serial)
        assert result.exchange_rounds == (
            result.rounds // result.rounds_per_exchange
        )


class TestCrashRecovery:
    def _manager(self, fault_plan=None, workers=2):
        return FireSimManager(
            two_tier(num_racks=2, servers_per_rack=2),
            run_config=RunFarmConfig(link_latency_cycles=640),
            host_config=ONE_FPGA,
            fault_plan=fault_plan,
            workers=workers,
        )

    def _workload(self, manager):
        workload = WorkloadSpec("ping", duration_seconds=0.0002)
        target = manager.running.blade(3)
        workload.add_job(
            0,
            "ping",
            lambda blade: blade.spawn(
                "ping",
                make_ping_client(
                    target.mac, count=3, interval_cycles=50_000
                ),
            ),
        )
        return workload

    def _run(self, fault_plan=None, workers=2):
        manager = self._manager(fault_plan=fault_plan, workers=workers)
        manager.buildafi()
        manager.launchrunfarm()
        manager.infrasetup()
        result = manager.runworkload(self._workload(manager))
        return manager, result

    def test_worker_crash_resumes_on_survivors(self):
        """An injected mid-run crash kills a worker; the manager restores
        the pre-fork checkpoint and reruns on one fewer worker, with
        results identical to a run that never crashed."""
        crash = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(
                    kind=FaultKind.CONTROLLER_CRASH,
                    point="runworkload",
                    at_cycle=100_000,
                ),
            ),
        )
        crashed_manager, crashed = self._run(fault_plan=crash)
        clean_manager, clean = self._run(fault_plan=None)
        assert crashed_manager.fault_stats.restores == 1
        assert crashed_manager.fault_stats.recoveries == 1
        assert crashed_manager.last_distributed.num_workers == 1
        assert clean_manager.last_distributed.num_workers == 2
        assert crashed.node_results == clean.node_results
        assert crashed.node_results[0][RESULT_KEY]

    def test_worker_crash_carries_host_shaped_target(self):
        fault = WorkerCrash("boom", worker_index=2, at_cycle=9)
        assert fault.target == "worker:2"
        assert fault.at_cycle == 9
        assert fault.kind is FaultKind.CONTROLLER_CRASH


class TestCLI:
    ARGS = [
        "--topology", "two_tier", "--racks", "2", "--servers-per-rack", "2",
        "--duration-ms", "0.2",
    ]

    def test_workers_flag_reports_per_partition_rates(self):
        out = io.StringIO()
        code = cli_main(
            self.ARGS + [
                "--workers", "2", "--json",
                "buildafi", "launchrunfarm", "infrasetup",
                "runworkload", "status",
            ],
            out=out,
        )
        assert code == 0
        document = json.loads(out.getvalue())
        distributed = document["verbs"]["runworkload"]["distributed"]
        assert distributed["num_workers"] == 2
        assert distributed["boundary_links"] > 0
        assert set(distributed["per_worker_rate_mhz"]) == {"0", "1"}
        # The exchanges performed, not the periods run.
        assert distributed["exchange_rounds"] < (
            distributed["rounds"] // distributed["rounds_per_exchange"]
        )
        status = document["verbs"]["status"]["distributed"]
        assert status["num_workers"] == 2
        assert status["exchange_rounds"] == distributed["exchange_rounds"]

    def test_too_many_workers_is_one_line_error(self):
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(
            self.ARGS + [
                "--workers", "99",
                "buildafi", "launchrunfarm", "infrasetup", "runworkload",
            ],
            out=out,
            err=err,
        )
        assert code == 1
        text = err.getvalue()
        assert len(text.strip().splitlines()) == 1
        assert text.startswith("firesim: error:")
        assert "requested workers" in text
