"""Fault injection, retry/backoff, and cycle-exact recovery (repro.faults)."""

import json
import random

import pytest

from repro import ConfigError
from repro.core.channel import TokenStarvationError
from repro.core.fame import Fame1Model
from repro.core.simulation import ENGINES, Simulation
from repro.dist import ShardContext, plan_from_assignment, run_shard
from repro.faults.checkpoint import (
    CheckpointError,
    CheckpointUnsupported,
    ReplayCheckpoint,
    SimulationSnapshot,
    state_digest,
)
from repro.faults.plan import (
    AgfiBuildFault,
    ControllerCrash,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InstanceLaunchFault,
)
from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.faults.watchdog import TokenWatchdog
from repro.manager.manager import FireSimManager, ManagerError
from repro.manager.mapper import map_topology
from repro.manager.topology import single_rack
from repro.manager.workload import WorkloadSpec
from repro.net.ethernet import EthernetFrame, mac_address
from repro.net.switch import SwitchConfig, SwitchModel
from repro.net.transport import HeartbeatMonitor
from repro.swmodel.apps.ping import RESULT_KEY as PING_KEY
from repro.swmodel.apps.ping import make_ping_client


# -- shared target-side fixtures ----------------------------------------


class Sender(Fame1Model):
    """Emits one frame's flits starting at a chosen cycle."""

    def __init__(self, name, frame, at_cycle):
        super().__init__(name, ["net"])
        self.frame = frame
        self.at_cycle = at_cycle
        self.sent = False

    def _tick(self, window, inputs):
        out = window.new_batch()
        if not self.sent and window.start <= self.at_cycle < window.end:
            for index, flit in enumerate(self.frame.to_flits()):
                out.add(self.at_cycle + index, flit)
            self.sent = True
        return {"net": out}


class Recorder(Fame1Model):
    def __init__(self, name):
        super().__init__(name, ["net"])
        self.last_flit_cycles = []

    def _tick(self, window, inputs):
        for cycle, flit in inputs["net"].iter_flits():
            if flit.last:
                self.last_flit_cycles.append(cycle)
        return {"net": window.new_batch()}


def switched_pair(mac_table=None, default_port=1, at_cycle=37, latency=100):
    sim = Simulation()
    frame = EthernetFrame(
        src=mac_address(0), dst=mac_address(1), size_bytes=64
    )
    sender = sim.add_model(Sender("A", frame, at_cycle))
    receiver = sim.add_model(Recorder("B"))
    switch = sim.add_model(
        SwitchModel(
            "tor",
            SwitchConfig(num_ports=2, min_latency_cycles=10),
            mac_table=(
                {mac_address(1): 1} if mac_table is None else mac_table
            ),
            default_port=default_port,
        )
    )
    sim.connect(sender, "net", switch, "port0", latency, name="A-up")
    sim.connect(switch, "port1", receiver, "net", latency, name="B-down")
    return sim, switch, receiver


def ping_workload(running, count=4, duration_s=0.001):
    workload = WorkloadSpec("ping", duration_seconds=duration_s)
    target = running.blade(1)
    workload.add_job(
        0,
        "ping",
        lambda blade: blade.spawn(
            "ping",
            make_ping_client(target.mac, count=count,
                             interval_cycles=200_000),
        ),
    )
    return workload


def run_session(plan=None, interval=None, retry_policy=None, nodes=4):
    """One full manager lifecycle; returns (manager, WorkloadResult)."""
    manager = FireSimManager(
        single_rack(nodes),
        fault_plan=plan,
        retry_policy=retry_policy,
        checkpoint_interval_cycles=interval,
    )
    manager.buildafi()
    manager.launchrunfarm()
    running = manager.infrasetup()
    result = manager.runworkload(ping_workload(running))
    return manager, result


# -- fault plans ---------------------------------------------------------


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(seed=42, specs=(
            FaultSpec(FaultKind.INSTANCE_LAUNCH, "launchrunfarm",
                      target="f1:0", times=2),
            FaultSpec(FaultKind.CONTROLLER_CRASH, "runworkload",
                      at_cycle=1000, after_model="tor"),
            FaultSpec(FaultKind.TOKEN_STALL, "runworkload",
                      target="A-up", at_cycle=500, probability=0.5),
        ))
        assert FaultPlan.from_dict(json.loads(plan.to_json())) == plan

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(FaultKind.AGFI_BUILD, "buildafi"),
        ))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_file(str(path)) == plan

    def test_unreadable_file_is_config_error(self):
        with pytest.raises(ConfigError, match="cannot read fault plan"):
            FaultPlan.from_file("/nonexistent/plan.json")

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            FaultPlan.from_file(str(path))

    def test_unknown_kind_rejected(self):
        # wakeup-loss is a retired verb: a plan naming it fails loudly.
        for kind in ("meteor", "wakeup-loss"):
            with pytest.raises(ConfigError, match="unknown fault kind"):
                FaultPlan.from_dict(
                    {"faults": [{"kind": kind, "point": "buildafi"}]}
                )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault spec keys"):
            FaultPlan.from_dict({"faults": [
                {"kind": "agfi-build", "point": "buildafi", "severty": 9},
            ]})

    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigError, match="unknown injection point"):
            FaultSpec(FaultKind.AGFI_BUILD, "teatime")

    def test_mid_run_kinds_need_at_cycle(self):
        with pytest.raises(ConfigError, match="need at_cycle"):
            FaultSpec(FaultKind.CONTROLLER_CRASH, "runworkload")

    def test_mid_run_kinds_fire_at_runworkload_only(self):
        with pytest.raises(ConfigError, match="fire at runworkload"):
            FaultSpec(FaultKind.CONTROLLER_CRASH, "infrasetup",
                      at_cycle=100)

    def test_token_stall_needs_target(self):
        with pytest.raises(ConfigError, match="target link"):
            FaultSpec(FaultKind.TOKEN_STALL, "runworkload", at_cycle=10)

    def test_probability_bounds(self):
        with pytest.raises(ConfigError, match="probability"):
            FaultSpec(FaultKind.AGFI_BUILD, "buildafi", probability=0.0)
        with pytest.raises(ConfigError, match="probability"):
            FaultSpec(FaultKind.AGFI_BUILD, "buildafi", probability=1.5)


# -- retry policy & circuit breaker -------------------------------------


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        policy = RetryPolicy(max_retries=5)
        first = policy.schedule(random.Random(9))
        second = policy.schedule(random.Random(9))
        assert first == second
        assert first != policy.schedule(random.Random(10))

    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(
            max_retries=8, base_delay_s=1.0, multiplier=2.0,
            max_delay_s=5.0, jitter=0.0,
        )
        rng = random.Random(0)
        delays = [policy.delay_for(n, rng) for n in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_adds_at_most_the_jitter_fraction(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.25)
        delay = policy.delay_for(1, random.Random(1))
        assert 1.0 <= delay <= 1.25

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=2.0)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert not breaker.record_failure("f1:0")
        assert not breaker.record_failure("f1:0")
        assert breaker.record_failure("f1:0")  # just tripped
        assert breaker.is_quarantined("f1:0")
        assert not breaker.record_failure("f1:0")  # already open

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure("f1:1")
        breaker.record_success("f1:1")
        assert not breaker.record_failure("f1:1")
        assert not breaker.is_quarantined("f1:1")


# -- the injector --------------------------------------------------------


class TestFaultInjector:
    def test_fire_raises_the_mapped_exception(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.AGFI_BUILD, "buildafi", target="QuadCore"),
        ))
        injector = FaultInjector(plan)
        with pytest.raises(AgfiBuildFault):
            injector.fire("buildafi", "QuadCore")
        assert injector.exhausted
        injector.fire("buildafi", "QuadCore")  # exhausted: no raise

    def test_target_filtering(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.INSTANCE_LAUNCH, "launchrunfarm",
                      target="f1:1"),
        ))
        injector = FaultInjector(plan)
        injector.fire("launchrunfarm", "f1:0")  # wrong target: no raise
        with pytest.raises(InstanceLaunchFault):
            injector.fire("launchrunfarm", "f1:1")

    def test_times_counts_down(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.INSTANCE_LAUNCH, "launchrunfarm", times=2),
        ))
        injector = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(InstanceLaunchFault):
                injector.fire("launchrunfarm", "f1:0")
        injector.fire("launchrunfarm", "f1:0")
        assert injector.stats.faults_injected == 2

    def test_log_is_byte_identical_across_runs(self):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(FaultKind.INSTANCE_LAUNCH, "launchrunfarm",
                      times=3, probability=0.8),
        ))
        logs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            for _ in range(10):
                try:
                    injector.fire("launchrunfarm", "f1:0")
                except InstanceLaunchFault:
                    pass
            logs.append(injector.log_text())
        assert logs[0] == logs[1]
        assert logs[0].encode() == logs[1].encode()


# -- checkpoints ---------------------------------------------------------


class TestSimulationSnapshot:
    def test_restore_is_cycle_identical(self):
        sim, _, receiver = switched_pair()
        sim.run_cycles(100)
        snapshot = SimulationSnapshot.capture(sim)
        sim.run_cycles(500)
        uninterrupted = list(receiver.last_flit_cycles)
        assert uninterrupted, "sanity: the frame must have arrived"

        snapshot.restore(sim)
        # Receivers are part of the restored state: find the new one.
        restored_receiver = next(
            m for m in sim.models if m.name == "B"
        )
        assert restored_receiver.last_flit_cycles == []
        sim.run_cycles(500)
        assert restored_receiver.last_flit_cycles == uninterrupted

    def test_snapshot_survives_multiple_restores(self):
        sim, _, _ = switched_pair()
        sim.run_cycles(100)
        snapshot = SimulationSnapshot.capture(sim)
        arrivals = []
        for _ in range(2):
            snapshot.restore(sim)
            sim.run_cycles(500)
            receiver = next(m for m in sim.models if m.name == "B")
            arrivals.append(list(receiver.last_flit_cycles))
        assert arrivals[0] == arrivals[1]

    def test_generator_blades_are_named_in_the_diagnostic(self):
        manager, _ = None, None
        mgr = FireSimManager(single_rack(2))
        mgr.buildafi()
        mgr.launchrunfarm()
        running = mgr.infrasetup()
        workload = ping_workload(running, count=2)
        for job in workload.jobs:
            job.setup(running.blade(job.node_index))
        running.simulation.run_cycles(6400)
        with pytest.raises(CheckpointUnsupported, match="node0"):
            SimulationSnapshot.capture(running.simulation)


class TestReplayCheckpoint:
    def _rebuilder(self):
        """A rebuild closure over ONE topology, as the manager does it.

        Switch names embed globally allocated switch ids, so replay must
        re-elaborate the *same* topology object — a fresh topology would
        be a different target.
        """
        from repro.manager.runfarm import elaborate

        root = single_rack(2)

        def rebuild():
            running = elaborate(root)
            for job in ping_workload(running, count=3).jobs:
                job.setup(running.blade(job.node_index))
            return running

        return rebuild

    def test_restore_replays_to_an_identical_state(self):
        rebuild = self._rebuilder()
        running = rebuild()
        running.simulation.run_cycles(500_000)
        checkpoint = ReplayCheckpoint.capture(running, rebuild)
        restored = checkpoint.restore()
        assert restored is not running
        assert restored.simulation.current_cycle == checkpoint.cycle
        assert state_digest(restored) == state_digest(running)

    def test_digest_mismatch_raises(self):
        rebuild = self._rebuilder()
        running = rebuild()
        running.simulation.run_cycles(100_000)
        checkpoint = ReplayCheckpoint.capture(running, rebuild)
        checkpoint.digest = "0" * 64
        with pytest.raises(CheckpointError, match="diverged"):
            checkpoint.restore()

    def test_digest_tracks_state(self):
        running = self._rebuilder()()
        before = state_digest(running)
        running.simulation.run_cycles(100_000)
        assert state_digest(running) != before


# -- the watchdog & starvation diagnostics ------------------------------


class TestTokenWatchdog:
    def test_healthy_simulation_passes_every_scan(self):
        sim, _, _ = switched_pair()
        watchdog = TokenWatchdog()
        for _ in range(5):
            sim.run_cycles(100)
            watchdog.scan(sim)
        assert watchdog.scans == 5
        assert watchdog.stalls_detected == 0

    def test_lost_batch_is_named_at_the_boundary(self):
        sim, _, _ = switched_pair()
        sim.run_cycles(300)
        lost = sim.links[0].lose_in_flight("a_to_b")
        assert lost > 0
        watchdog = TokenWatchdog()
        with pytest.raises(TokenStarvationError) as excinfo:
            watchdog.scan(sim)
        assert excinfo.value.link_name == "A-up"
        assert "tor.port0" in str(excinfo.value)
        assert watchdog.stalls_detected == 1

    def test_starving_round_names_the_endpoint(self):
        sim, _, _ = switched_pair()
        sim.run_cycles(300)
        sim.links[1].lose_in_flight("a_to_b")  # switch -> receiver
        with pytest.raises(TokenStarvationError) as excinfo:
            sim.run_cycles(200)
        err = excinfo.value
        assert err.model_name == "B"
        assert err.port == "net"
        assert err.link_name == "B-down"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_worker_diagnostic_only_adds_its_prefix(self, engine):
        """Serial and shard runs starve through the same loop and the
        same diagnostic: identical endpoint, link and cycle."""

        def starve(as_worker):
            sim, _, _ = switched_pair()
            sim.engine = engine
            sim.run_cycles(300)
            sim.links[1].lose_in_flight("a_to_b")
            with pytest.raises(TokenStarvationError) as excinfo:
                if as_worker:
                    plan = plan_from_assignment(
                        {model.name: 0 for model in sim.models}
                    )
                    run_shard(
                        ShardContext(
                            simulation=sim, plan=plan, target_cycle=500,
                            quantum=sim.quantum, measure=False, channels={},
                            result_queue=None, round_quantum=sim.quantum,
                        ),
                        0,
                    )
                else:
                    sim.run_until(500)
            return excinfo.value

        serial, worker = starve(False), starve(True)
        assert str(worker) == f"worker 0: {serial}"
        for field in ("model_name", "port", "link_name", "cycle"):
            assert getattr(worker, field) == getattr(serial, field)
        assert (serial.model_name, serial.port, serial.cycle) == (
            "B", "net", 300
        )


# -- heartbeats ----------------------------------------------------------


class TestHeartbeatMonitor:
    def test_dead_after_consecutive_misses(self):
        monitor = HeartbeatMonitor(misses_to_dead=3)
        assert not monitor.miss("f1:0")
        assert not monitor.miss("f1:0")
        assert monitor.miss("f1:0")
        assert monitor.is_dead("f1:0")

    def test_beat_resets_the_count(self):
        monitor = HeartbeatMonitor(misses_to_dead=2)
        monitor.miss("f1:0")
        monitor.beat("f1:0")
        assert not monitor.miss("f1:0")

    def test_detection_latency_scales_with_interval(self):
        fast = HeartbeatMonitor(interval_s=0.5, misses_to_dead=2)
        slow = HeartbeatMonitor(interval_s=2.0, misses_to_dead=2)
        assert fast.detection_latency_s < slow.detection_latency_s

    def test_validation(self):
        with pytest.raises(ConfigError):
            HeartbeatMonitor(interval_s=0.0)
        with pytest.raises(ConfigError):
            HeartbeatMonitor(misses_to_dead=0)


# -- mapper quarantine ---------------------------------------------------


class TestMapperExclusions:
    def test_excluded_instances_are_skipped(self):
        # 16 blades at 8 per f1.16xlarge (standard FPGA) -> 2 instances.
        root = single_rack(16)
        deployment = map_topology(root, excluded_instances={0})
        assert deployment.f1_instance_ids == [1, 2]
        assert deployment.num_f1_instances == 2
        assert all(
            p.instance_index in (1, 2)
            for p in deployment.server_placements
        )
        assert deployment.f1_hosts() == ["f1:1", "f1:2"]

    def test_default_ids_are_dense(self):
        deployment = map_topology(single_rack(4))
        assert deployment.f1_instance_ids == [0]

    def test_negative_exclusions_rejected(self):
        with pytest.raises(ConfigError):
            map_topology(single_rack(2), excluded_instances={-1})


# -- manager-level resilience -------------------------------------------


class TestManagerRetries:
    def test_transient_faults_are_retried_to_success(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(FaultKind.AGFI_BUILD, "buildafi"),
            FaultSpec(FaultKind.INSTANCE_LAUNCH, "launchrunfarm"),
        ))
        manager, result = run_session(plan)
        clean_manager, clean = run_session()
        assert result.merged(PING_KEY) == clean.merged(PING_KEY)
        assert manager.fault_stats.retries == 2
        assert manager.fault_stats.recoveries == 2
        assert manager.fault_stats.backoff_seconds > 0
        assert clean_manager.fault_stats.faults_injected == 0

    def test_exhausted_budget_raises_manager_error(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.AGFI_BUILD, "buildafi", times=10),
        ))
        manager = FireSimManager(
            single_rack(2), fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2),
        )
        with pytest.raises(ManagerError, match="failed after 2 retries"):
            manager.buildafi()
        assert manager.fault_stats.giveups == 1

    def test_repeat_offender_is_quarantined_and_remapped(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.INSTANCE_LAUNCH, "launchrunfarm",
                      target="f1:0", times=3),
        ))
        manager = FireSimManager(
            single_rack(2), fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=5),
        )
        deployment = manager.launchrunfarm()
        assert manager.breaker.is_quarantined("f1:0")
        assert deployment.f1_instance_ids == [1]
        assert manager.fault_stats.hosts_quarantined == 1


class TestCrashRecovery:
    CRASH_PLAN = FaultPlan(seed=2, specs=(
        FaultSpec(FaultKind.CONTROLLER_CRASH, "runworkload",
                  at_cycle=1_200_000),
    ))

    def test_resumed_run_is_cycle_identical_to_fault_free(self):
        _, clean = run_session()
        manager, crashed = run_session(self.CRASH_PLAN, interval=400_000)
        assert crashed.merged(PING_KEY) == clean.merged(PING_KEY)
        assert crashed.target_seconds == clean.target_seconds
        assert manager.fault_stats.restores == 1
        assert manager.fault_stats.checkpoints_taken >= 2
        assert manager.fault_stats.replay_cycles > 0

    def test_chaos_runs_are_deterministic(self):
        managers = [
            run_session(self.CRASH_PLAN, interval=400_000)[0]
            for _ in range(2)
        ]
        first, second = (m.injector.log_text() for m in managers)
        assert first.encode() == second.encode()
        assert (managers[0].fault_stats.restores
                == managers[1].fault_stats.restores)

    def test_mid_round_crash_after_named_model_recovers(self):
        root = single_rack(2)
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.CONTROLLER_CRASH, "runworkload",
                      at_cycle=800_000,
                      after_model=f"switch{root.switch_id}"),
        ))
        manager = FireSimManager(
            root, fault_plan=plan, checkpoint_interval_cycles=500_000
        )
        manager.buildafi()
        manager.launchrunfarm()
        running = manager.infrasetup()
        result = manager.runworkload(ping_workload(running))
        _, clean = run_session(nodes=2)
        assert result.merged(PING_KEY) == clean.merged(PING_KEY)
        assert manager.fault_stats.restores == 1

    def test_unrecoverable_crash_exhausts_restores(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.CONTROLLER_CRASH, "runworkload",
                      at_cycle=500_000, times=10),
        ))
        manager = FireSimManager(
            single_rack(2), fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2),
            checkpoint_interval_cycles=400_000,
        )
        manager.buildafi()
        manager.launchrunfarm()
        running = manager.infrasetup()
        with pytest.raises(ManagerError, match="after 2 recoveries"):
            manager.runworkload(ping_workload(running))
        assert manager.fault_stats.giveups == 1


class TestTokenStallRecovery:
    def test_stalled_channel_is_diagnosed_and_recovered(self):
        root = single_rack(2)
        link = f"node0.net<->switch{root.switch_id}.port0"
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.TOKEN_STALL, "runworkload",
                      target=link, at_cycle=900_000),
        ))
        manager = FireSimManager(
            root, fault_plan=plan, checkpoint_interval_cycles=500_000
        )
        manager.buildafi()
        manager.launchrunfarm()
        running = manager.infrasetup()
        result = manager.runworkload(ping_workload(running))
        _, clean = run_session(nodes=2)
        assert result.merged(PING_KEY) == clean.merged(PING_KEY)
        assert manager.fault_stats.stalls_detected == 1
        assert manager.fault_stats.restores == 1
        log = manager.injector.log_text()
        assert "token-stall" in log and "lost" in log

    def test_unknown_stall_target_is_a_config_error(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.TOKEN_STALL, "runworkload",
                      target="no-such-link", at_cycle=100_000),
        ))
        manager = FireSimManager(single_rack(2), fault_plan=plan)
        manager.buildafi()
        manager.launchrunfarm()
        running = manager.infrasetup()
        with pytest.raises(ConfigError, match="no-such-link"):
            manager.runworkload(ping_workload(running))


# -- switch byte conservation under faults ------------------------------


class TestSwitchByteConservation:
    def assert_conserved(self, switch):
        stats = switch.stats
        assert stats.bytes_in == (
            stats.bytes_out + stats.bytes_dropped + switch.queued_bytes()
        )

    def test_unroutable_unicast_counts_as_dropped(self):
        # No MAC entry and no default port: the frame has nowhere to go.
        sim, switch, receiver = switched_pair(
            mac_table={}, default_port=None
        )
        sim.run_cycles(600)
        assert receiver.last_flit_cycles == []
        assert switch.stats.packets_in == 1
        assert switch.stats.packets_dropped == 1
        assert switch.stats.bytes_dropped == switch.stats.bytes_in
        self.assert_conserved(switch)

    def test_conservation_holds_through_injected_crash(self):
        root = single_rack(2)
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.CONTROLLER_CRASH, "runworkload",
                      at_cycle=1_000_000),
        ))
        manager = FireSimManager(
            root, fault_plan=plan, checkpoint_interval_cycles=500_000
        )
        manager.buildafi()
        manager.launchrunfarm()
        running = manager.infrasetup()
        manager.runworkload(ping_workload(running))
        for switch in manager.running.switches.values():
            self.assert_conserved(switch)

    def test_routable_traffic_still_flows(self):
        sim, switch, receiver = switched_pair()
        sim.run_cycles(600)
        assert receiver.last_flit_cycles
        assert switch.stats.packets_dropped == 0
        self.assert_conserved(switch)
