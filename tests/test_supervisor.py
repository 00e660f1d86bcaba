"""Distributed supervision (repro.dist.supervisor) and shm integrity.

Covers the self-healing taxonomy end to end: heartbeat publication and
wraparound, adaptive hang detection, SIGTERM->SIGKILL escalation, shm
frame CRC/sequence integrity, wakeup-loss self-healing, the manager's
recovery ladder (restore onto fresh rings -> serial fallback),
and the engine's dead-worker bookkeeping fixes (clean-exit-no-result
detection, join-timeout reaping).  Every recovery path must end
bit-identical to the serial oracle.
"""

import io
import json
import multiprocessing
import os
import signal
import struct
import threading
import time
from multiprocessing import shared_memory

import pytest

from repro import ConfigError
from repro.core.simulation import ENGINES
from repro.dist import plan_partitions, run_distributed
from repro.dist import shm
from repro.dist.shm import HEARTBEAT_PREFIX, ShmRing, leaked_segments
from repro.dist.supervisor import (
    HB_COMPUTE,
    SLOT_DEPTH,
    HeartbeatBlock,
    Supervisor,
    SupervisorConfig,
)
from repro.dist.worker import shard_entry
from repro.faults.plan import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceStats,
    RingCorruption,
    WorkerCrash,
    WorkerHang,
)
from repro.faults.retry import RetryPolicy
from repro.manager.cli import main as cli_main
from repro.manager.manager import FireSimManager, ManagerError
from repro.manager.mapper import map_topology
from repro.manager.runfarm import RunFarmConfig
from repro.manager.topology import two_tier
from repro.manager.workload import WorkloadSpec
from repro.swmodel.apps.ping import RESULT_KEY, make_ping_client

from tests.test_dist import (
    ONE_FPGA,
    TARGET_CYCLES,
    build,
    fingerprint,
    serial_fingerprint,
)

#: Fires well inside the 640k-cycle managed runs and the 700k-cycle
#: engine-level runs, after the round loop has warmed up.
FAULT_CYCLE = 100_000
#: Hang-deadline floor for tests: long enough that fork/startup never
#: false-positives on a loaded CI host, short enough to keep tests fast.
HANG_FLOOR_S = 2.0


def _spec(kind, **kwargs):
    return FaultSpec(kind=kind, point="runworkload",
                     at_cycle=FAULT_CYCLE, **kwargs)


# -- heartbeat block ------------------------------------------------------


class TestHeartbeatBlock:
    def test_no_beat_reads_none(self):
        block = HeartbeatBlock.create(2)
        try:
            assert block.read(0) is None
            assert block.history(1) == []
        finally:
            block.destroy()
        assert leaked_segments() == []

    def test_beat_roundtrip(self):
        block = HeartbeatBlock.create(1)
        try:
            block.writer(0).beat(7, HB_COMPUTE)
            beat = block.read(0)
            assert beat is not None
            assert (beat.worker_id, beat.seq, beat.round) == (0, 1, 7)
            assert beat.phase_name == "compute"
            assert beat.stamp_s > 0.0
        finally:
            block.destroy()

    def test_slot_wraparound_keeps_newest_beats(self):
        """More beats than SLOT_DEPTH: read() stays current and
        history() returns the newest window, oldest first."""
        block = HeartbeatBlock.create(1)
        try:
            writer = block.writer(0)
            total = SLOT_DEPTH * 2 + 4
            for round_index in range(total):
                writer.beat(round_index, HB_COMPUTE)
            newest = block.read(0)
            assert newest.seq == total
            assert newest.round == total - 1
            history = block.history(0)
            assert len(history) == SLOT_DEPTH
            assert [beat.round for beat in history] == list(
                range(total - SLOT_DEPTH, total)
            )
            assert [beat.seq for beat in history] == list(
                range(total - SLOT_DEPTH + 1, total + 1)
            )
        finally:
            block.destroy()

    def test_destroy_is_idempotent(self):
        block = HeartbeatBlock.create(1)
        block.destroy()
        block.destroy()
        assert leaked_segments() == []


# -- supervisor unit ------------------------------------------------------


def _ignore_term_and_sleep(ready):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()
    while True:
        time.sleep(60.0)


class TestSupervisor:
    def test_config_validation(self):
        with pytest.raises(ConfigError, match="hang_timeout_s"):
            SupervisorConfig(hang_timeout_s=0.0)
        with pytest.raises(ConfigError, match="round_grace"):
            SupervisorConfig(round_grace=0.5)
        with pytest.raises(ConfigError, match="kill_grace_s"):
            SupervisorConfig(kill_grace_s=-1.0)

    def test_disabled_without_block(self):
        supervisor = Supervisor(None, 2, SupervisorConfig())
        assert supervisor.enabled is False
        assert supervisor.poll(set()) is None
        report = supervisor.report()
        assert report["enabled"] is False
        assert report["deadline_s"] == 0.0

    def test_silent_worker_gets_startup_verdict(self):
        """A worker that never beats is declared hung 'before its first
        heartbeat' while its beating peer stays in good standing."""
        block = HeartbeatBlock.create(2)
        try:
            supervisor = Supervisor(
                block, 2, SupervisorConfig(hang_timeout_s=0.05)
            )
            writer = block.writer(0)
            deadline = time.monotonic() + 10.0
            verdict = None
            rounds = 0
            while verdict is None and time.monotonic() < deadline:
                rounds += 1
                writer.beat(rounds, HB_COMPUTE)
                time.sleep(0.02)
                verdict = supervisor.poll(set())
            assert verdict is not None, "no hang verdict within 10s"
            assert verdict.worker_id == 1
            assert verdict.seq == 0
            assert "before its first heartbeat" in verdict.describe()
            report = supervisor.report()
            assert report["hangs"] == 1
            assert report["beats"] >= rounds
            assert report["verdicts"] == [verdict.describe()]
        finally:
            block.destroy()

    def test_done_workers_are_not_polled(self):
        block = HeartbeatBlock.create(2)
        try:
            supervisor = Supervisor(
                block, 2, SupervisorConfig(hang_timeout_s=0.01)
            )
            block.writer(0).beat(0, HB_COMPUTE)
            supervisor.poll({1})
            time.sleep(0.05)
            # Both workers are idle past the floor, but both are
            # excluded: 1 is done, 0 is done too.
            assert supervisor.poll({0, 1}) is None
        finally:
            block.destroy()

    def test_adaptive_deadline_tracks_round_time(self):
        """Observed slow rounds stretch the deadline above the floor."""
        block = HeartbeatBlock.create(1)
        try:
            config = SupervisorConfig(hang_timeout_s=0.01, round_grace=16.0)
            supervisor = Supervisor(block, 1, config)
            writer = block.writer(0)
            writer.beat(0, HB_COMPUTE)
            supervisor.poll(set())
            assert supervisor.deadline_s() == config.hang_timeout_s
            time.sleep(0.05)
            writer.beat(1, HB_COMPUTE)
            supervisor.poll(set())
            assert supervisor.deadline_s() > config.hang_timeout_s
            assert supervisor.deadline_s() >= 16.0 * 0.04
        finally:
            block.destroy()

    def test_kill_escalates_past_sigterm(self):
        """A SIGTERM-immune process still dies (SIGKILL) and is reaped."""
        context = multiprocessing.get_context("fork")
        ready = context.Event()
        process = context.Process(
            target=_ignore_term_and_sleep, args=(ready,)
        )
        process.start()
        assert ready.wait(timeout=10.0)
        stats = ResilienceStats()
        supervisor = Supervisor(
            None, 1, SupervisorConfig(kill_grace_s=0.2), stats=stats
        )
        supervisor.kill(process)
        assert not process.is_alive()
        assert process.exitcode is not None
        assert supervisor.workers_killed == 1
        assert stats.workers_killed == 1


# -- shm frame integrity --------------------------------------------------


class TestRingIntegrity:
    @pytest.fixture
    def ring(self):
        ring = ShmRing.create(0, 1, capacity=4096)
        try:
            yield ring
        finally:
            ring.destroy()
        assert leaked_segments() == []

    def test_header_bit_flip_raises_ring_corruption(self, ring):
        """An empty frame is header-only, so the injected flip lands in
        the header and the header CRC must catch it."""
        ring.corrupt_next_send = True
        ring.send(0, [])
        with pytest.raises(RingCorruption, match="header failed its CRC32"):
            ring.recv(0)

    def test_payload_bit_flip_raises_ring_corruption(self, ring):
        from repro.core.token import TokenBatch

        ring.corrupt_next_send = True
        ring.send(0, [(0, TokenBatch(0, 640))])
        # try/except rather than pytest.raises-as: a bound ExceptionInfo
        # would pin recv's shm views via the traceback cycle and break
        # the fixture's destroy() with a BufferError.
        try:
            ring.recv(0)
        except RingCorruption as corruption:
            assert "payload failed its CRC32" in str(corruption)
            assert corruption.ring == "ring:0->1"
            assert corruption.kind is FaultKind.RING_CORRUPT
        else:
            pytest.fail("corrupted payload was decoded")

    def test_sequence_skew_raises_ring_corruption(self, ring):
        ring.send(0, [])
        ring._send_seq += 1  # a frame the reader never sees
        ring.send(1, [])
        assert ring.recv(0) == []
        with pytest.raises(RingCorruption, match="sequence skew"):
            ring.recv(1)

    def test_wake_rides_the_header(self, ring):
        ring.send(0, [], 7_000)
        assert ring.recv(0, True, 6_400) == []
        assert ring.peer_wake == 7_000

    def test_wake_before_the_exchange_raises_ring_corruption(self, ring):
        """A header with a valid CRC whose wake lies before the
        exchange's own cycle cannot come from a correct peer."""
        ring.send(0, [], 100)
        try:
            ring.recv(0, True, 640)
        except RingCorruption as corruption:
            assert "wake cycle 100" in str(corruption)
            assert ring.name in str(corruption)
            assert corruption.ring == "ring:0->1"
        else:
            pytest.fail("a wake before its exchange was accepted")

    def test_flipped_wake_bit_fails_the_header_crc(self, ring):
        """The header CRC covers the wake: a flip that still leaves a
        plausible wake is caught."""
        ring.send(0, [], 6_400)
        wake_offset = struct.calcsize("<qiqq")
        ring._data[wake_offset] ^= 0x01
        with pytest.raises(RingCorruption, match="header failed its CRC32"):
            ring.recv(0, True, 6_400)

    def test_clean_frames_count_no_corruption(self, ring):
        for round_tag in range(3):
            ring.send(round_tag, [])
            assert ring.recv(round_tag) == []
        assert ring.counters()["wakeup_recoveries"] == 0

    def test_lost_wakeup_self_heals(self, ring):
        """Data published without a semaphore permit: the reader's
        cursor check recovers instead of starving."""
        ring.drop_next_wakeup = True
        ring.send(0, [])
        assert ring.recv(0) == []
        assert ring.wakeup_recoveries == 1
        # Subsequent traffic is back to the permit fast path.
        ring.send(1, [])
        assert ring.recv(1) == []
        assert ring.wakeup_recoveries == 1

    def test_late_permit_is_consumed_by_its_message(self, ring, monkeypatch):
        """A permit posted after its bytes were read (the writer was
        descheduled between publish and post) belongs to that message:
        the next receive must sleep on the semaphore for its own, not
        take the stale permit and spin in ``_read``."""
        # Generous, so a loaded host cannot turn the late post into a
        # lost one; the post itself comes after 20 ms.
        monkeypatch.setattr(shm, "_LATE_PERMIT_S", 5.0, raising=False)
        header_waits = []
        backoff = shm._Backoff

        def spy(ring_, what):
            header_waits.append(what)
            return backoff(ring_, what)

        monkeypatch.setattr(shm, "_Backoff", spy)
        ring.drop_next_wakeup = True
        ring.send(0, [])
        late = threading.Timer(0.02, ring._wakeup.release)
        late.start()
        assert ring.recv(0) == []
        late.join()
        assert ring.wakeup_recoveries == 0

        blocked = ring.blocked_wakeups

        def send_once_blocked():
            deadline = time.monotonic() + 2.0
            while (ring.blocked_wakeups == blocked
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            ring.send(1, [])

        sender = threading.Thread(target=send_once_blocked)
        sender.start()
        assert ring.recv(1) == []
        sender.join()
        assert ring.blocked_wakeups == blocked + 1
        assert header_waits == []
        assert ring.wakeup_recoveries == 0


# -- engine-level faults --------------------------------------------------


def _silent_exit_entry(context, worker_id):
    if worker_id == 1:
        os._exit(0)  # dies cleanly before reporting anything
    shard_entry(context, worker_id)


def _lingering_entry(context, worker_id):
    shard_entry(context, worker_id)
    if worker_id == 1:
        time.sleep(60.0)  # result shipped, process refuses to exit


class TestEngineFaults:
    def _plan(self, topo_key="two_tier_2x2", workers=2, engine="scalar"):
        running, root = build(topo_key)
        running.simulation.engine = engine
        deployment = map_topology(root, ONE_FPGA)
        return running, plan_partitions(running, deployment, workers)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_hung_worker_is_killed_and_raised(self, engine):
        """An injected livelock stops heartbeat progress; the supervisor
        kills the worker and the run surfaces it as WorkerHang."""
        running, plan = self._plan(engine=engine)
        stats = ResilienceStats()
        injector = FaultInjector(
            FaultPlan(
                seed=2,
                specs=(_spec(FaultKind.WORKER_HANG, target="worker:1"),),
            ),
            stats,
        )
        injector.arm(running.simulation)
        with pytest.raises(WorkerHang, match="hung"):
            run_distributed(
                running.simulation, plan, TARGET_CYCLES,
                supervision=SupervisorConfig(
                    hang_timeout_s=HANG_FLOOR_S, kill_grace_s=1.0
                ),
                stats=stats,
            )
        assert stats.hangs_detected == 1
        assert stats.workers_killed >= 1
        assert leaked_segments() == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_clean_exit_without_result_is_a_crash_not_a_spin(
        self, monkeypatch, engine
    ):
        """A worker that exits 0 before reporting used to stall the
        collection loop forever (the liveness sweep excluded exit code
        0); it must surface as WorkerCrash after the result grace."""
        monkeypatch.setattr(
            "repro.dist.engine.shard_entry", _silent_exit_entry
        )
        monkeypatch.setattr("repro.dist.engine._RESULT_GRACE_S", 0.3)
        running, plan = self._plan(engine=engine)
        with pytest.raises(
            WorkerCrash, match="exited cleanly without reporting"
        ):
            run_distributed(running.simulation, plan, TARGET_CYCLES)
        assert leaked_segments() == []

    def test_lingering_worker_is_reaped_after_join_timeout(
        self, monkeypatch
    ):
        """A worker that reports its result but never exits is SIGKILLed
        after the join grace instead of leaking a process."""
        monkeypatch.setattr(
            "repro.dist.engine.shard_entry", _lingering_entry
        )
        monkeypatch.setattr("repro.dist.engine._JOIN_TIMEOUT_S", 0.5)
        running, plan = self._plan()
        stats = ResilienceStats()
        run_distributed(
            running.simulation, plan, TARGET_CYCLES, stats=stats
        )
        assert stats.join_timeouts == 1
        assert stats.workers_killed == 1
        assert fingerprint(running) == serial_fingerprint(
            "two_tier_2x2", None
        )
        assert leaked_segments() == []

    def test_supervision_report_rides_the_result(self):
        running, plan = self._plan("two_tier_4x2", workers=4)
        result = run_distributed(running.simulation, plan, TARGET_CYCLES)
        supervision = result.supervision
        assert supervision is not None
        assert supervision["enabled"] is True
        assert supervision["hangs"] == 0
        assert supervision["verdicts"] == []
        assert supervision["polls"] > 0
        assert supervision["beats"] > 0
        assert supervision["deadline_s"] >= 0.0
        assert result.to_dict()["supervision"] == supervision
        assert fingerprint(running) == serial_fingerprint(
            "two_tier_4x2", None
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_short_run_reports_every_beat(self, engine):
        """A run over before the parent's first poll still reports the
        beats its workers published: three per exchange per worker
        (the start-up, first-compute and done beats make up the
        first)."""
        running, plan = self._plan("two_tier_2x2", engine=engine)
        result = run_distributed(running.simulation, plan, 64_000)
        assert result.rounds % result.rounds_per_exchange == 0
        assert result.supervision["beats"] == (
            3 * result.exchange_rounds * plan.num_workers
        )

    def test_denied_heartbeat_shm_degrades_to_crash_only(
        self, monkeypatch
    ):
        """No POSIX shared memory for the control block (the rings still
        get theirs): the run completes bit-identically, with supervision
        reported disabled."""
        segment = shared_memory.SharedMemory

        def deny(*args, name=None, **kwargs):
            if name is not None and name.startswith(HEARTBEAT_PREFIX):
                raise PermissionError("/dev/shm denied (test)")
            return segment(*args, name=name, **kwargs)

        monkeypatch.setattr(
            "repro.dist.supervisor.shared_memory.SharedMemory", deny
        )
        running, plan = self._plan("single_rack_4")
        result = run_distributed(running.simulation, plan, TARGET_CYCLES)
        assert result.supervision["enabled"] is False
        assert result.supervision["beats"] == 0
        assert fingerprint(running) == serial_fingerprint(
            "single_rack_4", None
        )

    def test_transport_timeout_must_be_positive(self):
        running, plan = self._plan("single_rack_4")
        with pytest.raises(ConfigError, match="transport_timeout_s"):
            run_distributed(
                running.simulation, plan, TARGET_CYCLES,
                transport_timeout_s=0.0,
            )


class TestTransportTimeout:
    def test_manager_rejects_nonpositive_timeout(self):
        with pytest.raises(ManagerError, match="transport timeout"):
            FireSimManager(
                two_tier(num_racks=2, servers_per_rack=2),
                transport_timeout_s=0.0,
            )


# -- manager recovery ladder ----------------------------------------------


def _managed(fault_plan=None, workers=2, telemetry=False, engine="scalar",
             **kwargs):
    manager = FireSimManager(
        two_tier(num_racks=2, servers_per_rack=2),
        run_config=RunFarmConfig(link_latency_cycles=640, engine=engine),
        host_config=ONE_FPGA,
        fault_plan=fault_plan,
        workers=workers,
        **kwargs,
    )
    if telemetry:
        manager.enable_telemetry()
    manager.buildafi()
    manager.launchrunfarm()
    manager.infrasetup()
    workload = WorkloadSpec("ping", duration_seconds=0.0002)
    target = manager.running.blade(3)
    workload.add_job(
        0,
        "ping",
        lambda blade: blade.spawn(
            "ping",
            make_ping_client(target.mac, count=3, interval_cycles=50_000),
        ),
    )
    result = manager.runworkload(workload)
    return manager, result


_clean_cache = {}


def _clean_node_results():
    """A fault-free distributed run's results (serial-equal oracle)."""
    if "clean" not in _clean_cache:
        _, result = _managed()
        _clean_cache["clean"] = result.node_results
    return _clean_cache["clean"]


class TestManagerRecovery:
    def test_worker_hang_recovers_bit_identically(self):
        plan = FaultPlan(
            seed=11,
            specs=(_spec(FaultKind.WORKER_HANG, target="worker:1"),),
        )
        manager, result = _managed(
            fault_plan=plan, hang_timeout_s=HANG_FLOOR_S
        )
        assert manager.fault_stats.hangs_detected == 1
        assert manager.fault_stats.workers_killed >= 1
        assert manager.fault_stats.restores == 1
        assert manager.last_distributed.num_workers == 1
        assert result.node_results == _clean_node_results()
        assert result.node_results[0][RESULT_KEY]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ring_corruption_recovers_and_keeps_workers(self, engine):
        plan = FaultPlan(
            seed=12,
            specs=(_spec(FaultKind.RING_CORRUPT, target="ring:0->1"),),
        )
        manager, result = _managed(fault_plan=plan, engine=engine)
        stats = manager.fault_stats
        assert stats.ring_corruptions == 1
        assert stats.restores == 1
        # A transport fault is not a worker fault: the rerun keeps both
        # workers, on fresh rings.
        assert manager.last_distributed.num_workers == 2
        assert result.node_results == _clean_node_results()
        assert leaked_segments() == []

    def test_repeated_corruption_reruns_on_fresh_rings(self):
        plan = FaultPlan(
            seed=13,
            specs=(
                _spec(FaultKind.RING_CORRUPT, target="ring:0->1", times=2),
            ),
        )
        manager, result = _managed(fault_plan=plan)
        stats = manager.fault_stats
        assert stats.ring_corruptions == 2
        assert stats.restores == 2
        assert stats.serial_fallbacks == 0
        assert manager.last_distributed.num_workers == 2
        assert result.node_results == _clean_node_results()
        assert leaked_segments() == []

    def test_exhausted_budget_falls_back_to_serial(self):
        """Faults past the restart budget finish the workload on the
        serial engine instead of failing it — degraded, still exact."""
        plan = FaultPlan(
            seed=14,
            specs=(
                _spec(FaultKind.RING_CORRUPT, target="ring:0->1", times=3),
            ),
        )
        manager, result = _managed(
            fault_plan=plan, retry_policy=RetryPolicy(max_retries=1)
        )
        stats = manager.fault_stats
        assert stats.serial_fallbacks == 1
        assert stats.restores == 2
        assert stats.giveups == 0
        assert manager.last_distributed is None  # no distributed success
        assert result.node_results == _clean_node_results()
        assert result.node_results[0][RESULT_KEY]
        assert leaked_segments() == []

    def test_wakeup_loss_heals_without_a_restore(self):
        plan = FaultPlan(
            seed=15, specs=(_spec(FaultKind.WAKEUP_LOSS),)
        )
        manager, result = _managed(fault_plan=plan)
        assert manager.fault_stats.restores == 0
        assert manager.fault_stats.ring_corruptions == 0
        assert result.node_results == _clean_node_results()
        assert leaked_segments() == []

    def test_supervisor_gauges_land_in_telemetry(self):
        manager, _ = _managed(telemetry=True)
        try:
            registry = manager.telemetry.registry
            assert registry.gauge("dist.supervisor.enabled").value == 1.0
            assert registry.gauge("dist.supervisor.hangs").value == 0.0
            assert registry.gauge("dist.supervisor.polls").value >= 0.0
            assert registry.gauge("dist.supervisor.deadline_s").value >= 0.0
        finally:
            manager.terminaterunfarm()


# -- CLI surface ----------------------------------------------------------


class TestCLI:
    ARGS = [
        "--topology", "two_tier", "--racks", "2", "--servers-per-rack", "2",
        "--duration-ms", "0.2",
    ]
    SESSION = [
        "buildafi", "launchrunfarm", "infrasetup", "runworkload", "status",
    ]

    def _plan_file(self, tmp_path, name, faults):
        path = tmp_path / name
        path.write_text(json.dumps({"seed": 1, "faults": faults}))
        return str(path)

    def test_status_json_surfaces_hang_counters(self, tmp_path):
        plan = self._plan_file(tmp_path, "hang.json", [
            {"kind": "worker-hang", "point": "runworkload",
             "at_cycle": FAULT_CYCLE, "target": "worker:1"},
        ])
        out = io.StringIO()
        code = cli_main(
            self.ARGS + [
                "--workers", "2", "--hang-timeout", str(HANG_FLOOR_S),
                "--fault-plan", plan, "--json",
            ] + self.SESSION,
            out=out,
        )
        assert code == 0
        document = json.loads(out.getvalue())
        resilience = document["verbs"]["status"]["resilience"]
        assert resilience["hangs_detected"] == 1
        assert resilience["workers_killed"] >= 1
        assert resilience["restores"] == 1
        assert resilience["serial_fallbacks"] == 0
        supervision = (
            document["verbs"]["runworkload"]["distributed"]["supervision"]
        )
        assert supervision["enabled"] is True

    def test_status_text_names_supervisor_events(self, tmp_path):
        plan = self._plan_file(tmp_path, "corrupt.json", [
            {"kind": "ring-corrupt", "point": "runworkload",
             "at_cycle": FAULT_CYCLE, "target": "ring:0->1"},
        ])
        out = io.StringIO()
        code = cli_main(
            self.ARGS + [
                "--workers", "2", "--fault-plan", plan,
            ] + self.SESSION,
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "supervisor:" in text
        assert "1 ring corruptions" in text
        assert leaked_segments() == []

    def test_clean_status_has_no_supervisor_line(self):
        out = io.StringIO()
        code = cli_main(
            self.ARGS + ["--workers", "2"] + self.SESSION, out=out
        )
        assert code == 0
        assert "supervisor:" not in out.getvalue()

    def test_invalid_transport_timeout_is_one_line_error(self):
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(
            self.ARGS + ["--transport-timeout", "0", "buildafi"],
            out=out, err=err,
        )
        assert code == 1
        text = err.getvalue()
        assert len(text.strip().splitlines()) == 1
        assert text.startswith("firesim: error:")
        assert "transport timeout" in text
