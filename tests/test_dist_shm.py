"""Shared-memory rings (repro.dist.shm): equivalence, gaps, leaks.

The ring is the only channel between workers, so everything observable
must be bit-identical to the serial engine; on top of that it owns
``/dev/shm`` segments, so every exit path — normal completion, worker
crash, checkpoint-restore, a failed allocation — must leave the host
clean (:func:`repro.dist.shm.leaked_segments` is the witness).
"""

import io
import json
import multiprocessing
import threading
import time
from types import SimpleNamespace

import pytest

from repro import ConfigError
from repro.core.channel import TokenStarvationError
from repro.core.token import TokenBatch
from repro.dist import plan_partitions, run_distributed
from repro.dist import worker as worker_module
from repro.dist.shm import ShmRing, leaked_segments
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.manager.cli import main as cli_main
from repro.manager.cli import make_parser
from repro.manager.manager import FireSimManager
from repro.manager.mapper import map_topology
from repro.manager.runfarm import RunFarmConfig
from repro.manager.topology import two_tier
from repro.manager.workload import WorkloadSpec
from repro.obs.trace import get_trace_sink, set_trace_sink
from repro.perf.stream import TokenStream
from repro.swmodel.apps.ping import RESULT_KEY, make_ping_client

from tests.test_dist import (
    ONE_FPGA,
    TARGET_CYCLES,
    build,
    fingerprint,
    serial_fingerprint,
)


def run_rings(topo_key, workers, **kwargs):
    running, root = build(topo_key)
    deployment = map_topology(root, ONE_FPGA)
    plan = plan_partitions(running, deployment, workers)
    result = run_distributed(
        running.simulation, plan, TARGET_CYCLES, **kwargs
    )
    return result, fingerprint(running)


class TestShmEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("topo_key", ["single_rack_4", "two_tier_2x2"])
    def test_bit_identical_to_serial_and_pipe(self, topo_key, workers):
        """The serial engine is the oracle (the pipe it was once also
        compared against is gone)."""
        expected = serial_fingerprint(topo_key, None)
        result, fp = run_rings(topo_key, workers)
        assert result.channel_count > 0
        assert fp == expected
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
        result = run_distributed(running.simulation, plan, TARGET_CYCLES)
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

    def test_idle_and_data_windows_round_trip(self, ring):
        busy = TokenBatch(640, 640)
        busy.add(650, "frame-a")
        busy.add(700, "frame-b")
        stream = TokenStream.from_flits(1280, 640, {1300: "frame-c"})
        ring.send(3, [(0, TokenBatch(0, 640)), (1, busy), (2, stream)])
        entries = ring.recv(3)
        assert [index for index, _ in entries] == [0, 1, 2]
        idle = entries[0][1]
        assert (idle.start_cycle, idle.length, idle.flits) == (0, 640, {})
        decoded = entries[1][1]
        assert isinstance(decoded, TokenStream)
        assert decoded.cycles == [650, 700]
        assert decoded.flit_list == ["frame-a", "frame-b"]
        restream = entries[2][1]
        assert restream.cycles == [1300]
        assert restream.flit_list == ["frame-c"]

    def test_failed_shard_releases_its_rings(self, ring, monkeypatch):
        """A worker whose shard raised off a ring still unmaps that
        ring: the exception's frames hold views of the segment, so the
        mapping must close after the handler, not inside it."""

        def corrupt_shard(context, worker_id):
            ring.corrupt_next_send = True
            ring.send(0, [(0, TokenBatch(0, 64, {3: "x"}))])
            ring.recv(0)

        monkeypatch.setattr(worker_module, "run_shard", corrupt_shard)
        monkeypatch.setattr(worker_module, "_WORKER_ID", None)
        reports = []
        context = SimpleNamespace(
            simulation=SimpleNamespace(current_cycle=0),
            channels={(0, 1): ring},
            heartbeats=None,
            result_queue=SimpleNamespace(put=reports.append),
        )
        sink = get_trace_sink()
        segment = ring._segment
        try:
            with pytest.raises(SystemExit):
                worker_module.shard_entry(context, 0)
        finally:
            set_trace_sink(sink)
            segment.unlink()  # a worker only closes; the parent unlinks
        assert reports[0][4] == "RingCorruption"
        assert ring._segment is None  # closed, and no BufferError

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
            assert window.cycles == sorted(batch.flits)
            assert window.flit_list == [
                batch.flits[c] for c in sorted(batch.flits)
            ]
        finally:
            ring.destroy()
        assert leaked_segments() == []

    def test_recv_surfaces_starvation(self):
        """A peer that publishes nothing for ``timeout_s`` is token
        starvation, not a hang."""
        ring = ShmRing.create(0, 1, capacity=4096, timeout_s=0.2)
        start = time.monotonic()
        try:
            ring.recv(0)
        except TokenStarvationError as starvation:
            assert "stalled" in str(starvation)
        else:
            pytest.fail("recv returned with nothing published")
        finally:
            ring.destroy()
        assert time.monotonic() - start < 5.0
        assert leaked_segments() == []

    def test_undersized_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity too small"):
            ShmRing.create(0, 1, capacity=4)


class TestAllocationFailure:
    """A failed pre-fork allocation raises ``OSError`` and leaks nothing."""

    def test_semaphore_failure_unlinks_the_new_segment(self, monkeypatch):
        class NoSemaphores:
            def Semaphore(self, value):
                raise OSError("no POSIX semaphores (test)")

        monkeypatch.setattr(
            "repro.dist.shm.multiprocessing.get_context",
            lambda method=None: NoSemaphores(),
        )
        with pytest.raises(OSError, match="no POSIX semaphores"):
            ShmRing.create(0, 1)
        assert leaked_segments() == []

    def test_result_queue_failure_destroys_rings_and_heartbeats(
        self, monkeypatch
    ):
        fork = multiprocessing.get_context("fork")

        class NoQueues:
            def __getattr__(self, name):
                return getattr(fork, name)

            def Queue(self):
                raise OSError("no result queue (test)")

        monkeypatch.setattr(
            "repro.dist.engine.multiprocessing.get_context",
            lambda method=None: NoQueues(),
        )
        with pytest.raises(OSError, match="no result queue"):
            run_rings("single_rack_4", 2, transport="shm")
        assert leaked_segments() == []


class TestFallback:
    def _deny_shm(self, monkeypatch):
        def deny(*args, **kwargs):
            raise PermissionError("/dev/shm: permission denied (test)")

        monkeypatch.setattr(
            "repro.dist.shm.shared_memory.SharedMemory", deny
        )

    def test_denied_shm_raises_and_leaks_nothing(self, monkeypatch):
        self._deny_shm(monkeypatch)
        with pytest.raises(PermissionError):
            run_rings("single_rack_4", 2)
        assert leaked_segments() == []

    def test_manager_counts_fallbacks(self, monkeypatch):
        """No rings: the manager finishes in its serial last resort."""
        self._deny_shm(monkeypatch)
        manager, result = _run_managed()
        _, oracle = _run_managed(workers=1)
        assert manager.fault_stats.serial_fallbacks == 1
        assert manager.resilience_summary()["serial_fallbacks"] == 1
        assert manager.last_distributed is None
        assert result.node_results == oracle.node_results
        assert result.node_results[0][RESULT_KEY]
        assert leaked_segments() == []

    def test_unknown_transport_rejected(self):
        for transport in ("pipe", "carrier-pigeon"):
            with pytest.raises(ConfigError, match="unknown transport"):
                run_rings("single_rack_4", 2, transport=transport)
            with pytest.raises(SystemExit):  # argparse choices=("shm",)
                make_parser().parse_args(
                    ["buildafi", "--transport", transport]
                )


def _run_managed(fault_plan=None, workers=2):
    manager = FireSimManager(
        two_tier(num_racks=2, servers_per_rack=2),
        run_config=RunFarmConfig(link_latency_cycles=640),
        host_config=ONE_FPGA,
        fault_plan=fault_plan,
        workers=workers,
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
        crashed_manager, crashed = _run_managed(fault_plan=crash)
        clean_manager, clean = _run_managed()
        assert crashed_manager.fault_stats.restores == 1
        assert crashed_manager.fault_stats.serial_fallbacks == 0
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
        assert distributed["channels"] > 0
        status = document["verbs"]["status"]["distributed"]
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
