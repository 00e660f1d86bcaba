"""Shared-memory transport (repro.dist.shm): equivalence, gaps, leaks.

The shm ring is an optimisation, so everything observable must be
bit-identical to both the serial engine and the pipe transport; on top
of that it owns ``/dev/shm`` segments, so every exit path — normal
completion, worker crash, checkpoint-restore, fallback — must leave the
host clean (:func:`repro.dist.shm.leaked_segments` is the witness).
"""

import io
import json
import threading

import pytest

from repro.core.channel import Link
from repro.core.token import TokenBatch
from repro.dist import plan_partitions, run_distributed
from repro.dist.remote_link import LostWindow, deliver
from repro.dist.shm import ShmRing, leaked_segments
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.manager.cli import main as cli_main
from repro.manager.manager import FireSimManager
from repro.manager.mapper import map_topology
from repro.manager.runfarm import RunFarmConfig
from repro.manager.topology import two_tier
from repro.manager.workload import WorkloadSpec
from repro.perf.stream import TokenStream
from repro.swmodel.apps.ping import RESULT_KEY, make_ping_client

from tests.test_dist import (
    ONE_FPGA,
    TARGET_CYCLES,
    build,
    fingerprint,
    serial_fingerprint,
)


def run_transport(topo_key, workers, transport, **kwargs):
    running, root = build(topo_key)
    deployment = map_topology(root, ONE_FPGA)
    plan = plan_partitions(running, deployment, workers)
    result = run_distributed(
        running.simulation, plan, TARGET_CYCLES,
        transport=transport, **kwargs,
    )
    return result, fingerprint(running)


class TestShmEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("topo_key", ["single_rack_4", "two_tier_2x2"])
    def test_bit_identical_to_serial_and_pipe(self, topo_key, workers):
        expected = serial_fingerprint(topo_key, None)
        shm_result, shm_fp = run_transport(topo_key, workers, "shm")
        _, pipe_fp = run_transport(topo_key, workers, "pipe")
        assert shm_result.transport == "shm"
        assert shm_result.channel_count > 0
        assert shm_fp == expected
        assert pipe_fp == expected  # and hence shm == pipe, bit for bit
        # The workload crossed worker boundaries, so the equality above
        # exercised the ring, and the run left /dev/shm clean.
        assert expected["blades"][0][RESULT_KEY]
        assert leaked_segments() == []

    def test_channels_skip_linkless_worker_pairs(self):
        """Directed channels exist only where boundary links do."""
        running, root = build("two_tier_2x2")
        deployment = map_topology(root, ONE_FPGA)
        plan = plan_partitions(running, deployment, 4)
        linked = set()
        for boundary in plan.boundaries(running.simulation):
            linked.add((boundary.worker_a, boundary.worker_b))
            linked.add((boundary.worker_b, boundary.worker_a))
        result = run_distributed(
            running.simulation, plan, TARGET_CYCLES, transport="shm"
        )
        assert result.channel_count == len(linked)
        assert result.channel_count < 4 * 3  # some pairs share no links
        assert leaked_segments() == []


class TestRingWire:
    """Direct ShmRing codec tests (single process, no semaphore peer)."""

    @pytest.fixture
    def ring(self):
        ring = ShmRing.create(0, 1, capacity=4096)
        try:
            yield ring
        finally:
            ring.destroy()
        assert leaked_segments() == []

    def test_lost_window_round_trips_through_header(self, ring):
        ring.send(7, [(5, LostWindow(1000, 640))])
        entries = ring.recv(7)
        assert len(entries) == 1
        link_index, window = entries[0]
        assert link_index == 5
        assert type(window) is LostWindow
        assert window.start_cycle == 1000
        assert window.length == 640
        assert window.end_cycle == 1640

    def test_received_lost_window_starves_the_consumer(self, ring):
        """The decoded LostWindow produces the same queue gap a local
        ``discard_tail`` would: later windows stay contiguous, but the
        consumer cannot advance past the hole."""
        ring.send(0, [(0, LostWindow(640, 640))])
        (_, lost), = ring.recv(0)
        endpoint = Link(latency_cycles=640).to_a
        endpoint.push(TokenBatch(0, 640))
        deliver(endpoint, lost)
        endpoint.push(TokenBatch(1280, 640))  # contiguous past the gap
        assert endpoint.available_tokens == 640  # stops at the hole
        endpoint.pop(640)
        assert endpoint.available_tokens == 0  # starving at cycle 640

    def test_idle_and_data_windows_round_trip(self, ring):
        busy = TokenBatch(640, 640)
        busy.add(650, "frame-a")
        busy.add(700, "frame-b")
        stream = TokenStream.from_flits(1280, 640, {1300: "frame-c"})
        ring.send(3, [(0, TokenBatch(0, 640)), (1, busy), (2, stream)])
        entries = ring.recv(3)
        assert [index for index, _ in entries] == [0, 1, 2]
        idle = entries[0][1]
        assert type(idle) is TokenBatch
        assert (idle.start_cycle, idle.length, idle.flits) == (0, 640, {})
        decoded = entries[1][1]
        assert isinstance(decoded, TokenStream)
        assert decoded.tokens["cycle"].tolist() == [650, 700]
        assert decoded.tokens["flit"].tolist() == ["frame-a", "frame-b"]
        restream = entries[2][1]
        assert restream.tokens["cycle"].tolist() == [1300]
        assert restream.tokens["flit"].tolist() == ["frame-c"]

    def test_out_of_order_round_tag_is_loud(self, ring):
        ring.send(3, [])
        with pytest.raises(Exception, match="out-of-order"):
            ring.recv(4)

    def test_ring_full_is_backpressure_not_an_error(self):
        """A message larger than the whole ring streams through in
        chunks while a reader drains — the writer never errors and the
        bytes survive intact."""
        ring = ShmRing.create(0, 1, capacity=128)
        try:
            batch = TokenBatch(0, 6400)
            for cycle in range(0, 6400, 64):
                batch.add(cycle, "payload-" + "x" * 40)
            received = []
            reader = threading.Thread(
                target=lambda: received.append(ring.recv(0))
            )
            reader.start()
            ring.send(0, [(9, batch)])  # >> 128 bytes: must stream
            reader.join(timeout=30)
            assert not reader.is_alive()
            (link_index, window), = received[0]
            assert link_index == 9
            assert window.tokens["cycle"].tolist() == sorted(batch.flits)
            assert window.tokens["flit"].tolist() == [
                batch.flits[c] for c in sorted(batch.flits)
            ]
        finally:
            ring.destroy()
        assert leaked_segments() == []

    def test_undersized_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity too small"):
            ShmRing.create(0, 1, capacity=4)


class TestFallback:
    def _deny_shm(self, monkeypatch):
        def deny(*args, **kwargs):
            raise PermissionError("/dev/shm: permission denied (test)")

        monkeypatch.setattr(
            "repro.dist.shm.shared_memory.SharedMemory", deny
        )

    def test_falls_back_to_pipe_when_shm_denied(self, monkeypatch):
        self._deny_shm(monkeypatch)
        result, fp = run_transport("single_rack_4", 2, "shm")
        assert result.transport == "pipe"  # degraded, not dead
        assert fp == serial_fingerprint("single_rack_4", None)
        assert leaked_segments() == []

    def test_manager_counts_fallbacks(self, monkeypatch):
        self._deny_shm(monkeypatch)
        manager, _ = _run_managed(transport="shm")
        assert manager.last_distributed.transport == "pipe"
        assert manager.fault_stats.shm_fallbacks == 1
        assert manager.resilience_summary()["shm_fallbacks"] == 1

    def test_unknown_transport_rejected(self):
        with pytest.raises(Exception, match="unknown transport"):
            run_transport("single_rack_4", 2, "carrier-pigeon")


def _run_managed(fault_plan=None, workers=2, transport="pipe"):
    manager = FireSimManager(
        two_tier(num_racks=2, servers_per_rack=2),
        run_config=RunFarmConfig(link_latency_cycles=640),
        host_config=ONE_FPGA,
        fault_plan=fault_plan,
        workers=workers,
        transport=transport,
    )
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


class TestCrashLeavesNoSegments:
    def test_worker_crash_recovery_leaves_shm_clean(self):
        """A mid-run crash tears down through run_distributed's finally,
        so the restore + rerun sequence leaks no segments and still
        produces bit-identical results."""
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
        crashed_manager, crashed = _run_managed(
            fault_plan=crash, transport="shm"
        )
        clean_manager, clean = _run_managed(transport="shm")
        assert crashed_manager.fault_stats.restores == 1
        assert crashed_manager.fault_stats.shm_fallbacks == 0
        assert crashed.node_results == clean.node_results
        assert crashed.node_results[0][RESULT_KEY]
        assert leaked_segments() == []


class TestCLI:
    ARGS = [
        "--topology", "two_tier", "--racks", "2", "--servers-per-rack", "2",
        "--duration-ms", "0.2",
    ]

    def test_transport_flag_surfaces_ring_counts(self):
        out = io.StringIO()
        code = cli_main(
            self.ARGS + [
                "--workers", "2", "--transport", "shm", "--json",
                "buildafi", "launchrunfarm", "infrasetup",
                "runworkload", "status",
            ],
            out=out,
        )
        assert code == 0
        document = json.loads(out.getvalue())
        distributed = document["verbs"]["runworkload"]["distributed"]
        assert distributed["transport"] == "shm"
        assert distributed["channels"] > 0
        status = document["verbs"]["status"]["distributed"]
        assert status["transport"] == "shm"
        assert status["channels"] == distributed["channels"]
        assert leaked_segments() == []

    def test_status_text_names_the_transport(self):
        out = io.StringIO()
        code = cli_main(
            self.ARGS + [
                "--workers", "2", "--transport", "shm",
                "buildafi", "launchrunfarm", "infrasetup",
                "runworkload", "status",
            ],
            out=out,
        )
        assert code == 0
        assert "shm channels" in out.getvalue()
