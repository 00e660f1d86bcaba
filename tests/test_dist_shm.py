"""Pipe channels (repro.dist.shm): equivalence, backpressure, leaks.

The channel is the only path between workers, so everything observable
must be bit-identical to the serial engine; on top of that a run owns
pipe ends, worker sentinels and a ``/dev/shm`` heartbeat block, so every
exit path — normal completion, worker crash, checkpoint-restore, a
caller's abort, a failed allocation — must leave the process's
descriptor count and ``/dev/shm`` as it found them
(:func:`repro.dist.shm.leaked_segments` is the ``/dev/shm`` witness).
"""

import fcntl
import gc
import io
import json
import multiprocessing
import os
import time
from types import SimpleNamespace

import pytest

from repro import ConfigError
from repro.core.channel import TokenStarvationError
from repro.core.token import TokenBatch
from repro.dist import RunAborted, plan_partitions, run_distributed
from repro.dist import worker as worker_module
from repro.dist.shm import PipeChannel, finish_exchange, leaked_segments
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


def open_fds():
    """This process's open descriptor count, after collecting garbage."""
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


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


def big_window(seed, bytes_at_least):
    """A scalar window whose frame runs to at least ``bytes_at_least``."""
    batch = TokenBatch(0, 1 << 20)
    cycle = 0
    while len(batch.flits) * 200 < bytes_at_least:
        batch.add(cycle, f"{seed}-{cycle}-" + "x" * 200)
        cycle += 64
    return batch


def exchange_peer(channels, me, bytes_at_least):
    """One forked peer: send an oversized frame, then read the other's.

    Exits 0 only when the decoded entries equal what the peer sent.
    """
    for channel in channels.values():
        channel.own(me)
    peer = 1 - me
    send = channels[(me, peer)]
    send.send(0, [(me, big_window(me, bytes_at_least))])
    received = list(finish_exchange([channels[(peer, me)]], [send], 0, 0))
    [(_, [(link_index, window)])] = received
    sent = big_window(peer, bytes_at_least)
    cycles = sorted(sent.flits)
    ok = (
        link_index == peer
        and window.cycles == cycles
        and window.flit_list == [sent.flits[c] for c in cycles]
    )
    os._exit(0 if ok else 1)


class TestRingWire:
    """Direct PipeChannel codec tests."""

    @pytest.fixture
    def ring(self):
        ring = PipeChannel(0, 1)
        try:
            yield ring
        finally:
            ring.close()

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
        """A worker whose shard raised off a channel reports the typed
        fault, and its report is flushed before its pipe ends close, so
        a peer's end-of-file can never reach the parent first."""
        ring.corrupt_next_send = True
        ring.send(0, [(0, TokenBatch(0, 64, {3: "x"}))])
        events = []

        def close_ring():
            events.append("closed")
            PipeChannel.close(ring)

        monkeypatch.setattr(ring, "close", close_ring)
        monkeypatch.setattr(
            worker_module, "run_shard",
            lambda context, worker_id: ring.recv(0),
        )
        monkeypatch.setattr(worker_module, "_WORKER_ID", None)
        context = SimpleNamespace(
            simulation=SimpleNamespace(current_cycle=0),
            channels={(0, 1): ring},
            heartbeats=None,
            result_queue=SimpleNamespace(
                put=events.append,
                close=lambda: None,
                join_thread=lambda: events.append("flushed"),
            ),
        )
        sink = get_trace_sink()
        try:
            with pytest.raises(SystemExit):
                worker_module.shard_entry(context, 1)
        finally:
            set_trace_sink(sink)
        report, *rest = events
        assert report[4] == "RingCorruption"
        assert report[5] == "ring:0->1"
        assert rest == ["flushed", "closed"]
        assert ring.read_fd == ring.write_fd == -1

    def test_out_of_order_round_tag_is_loud(self, ring):
        ring.send(3, [])
        with pytest.raises(Exception, match="out-of-order"):
            ring.recv(4)

    def test_ring_full_is_backpressure_not_an_error(self):
        """Two forked peers each send a frame at least four pipe
        buffers long before reading: the unsent tails drain while each
        waits for the other's frame, so neither deadlocks and both
        decode exactly what the other sent."""
        channels = {(0, 1): PipeChannel(0, 1), (1, 0): PipeChannel(1, 0)}
        buffer = fcntl.fcntl(channels[(0, 1)].write_fd, fcntl.F_GETPIPE_SZ)
        fork = multiprocessing.get_context("fork")
        peers = [
            fork.Process(
                target=exchange_peer, args=(channels, me, 4 * buffer)
            )
            for me in (0, 1)
        ]
        try:
            for peer in peers:
                peer.start()
            for channel in channels.values():
                channel.close()
            for peer in peers:
                peer.join(timeout=60)
            assert [peer.exitcode for peer in peers] == [0, 0]
        finally:
            for peer in peers:
                if peer.is_alive():
                    peer.kill()
                    peer.join()
            for channel in channels.values():
                channel.close()

    def test_recv_surfaces_starvation(self):
        """A peer that exits without sending is token starvation naming
        the channel, seen as end-of-file long before ``timeout_s``."""
        ring = PipeChannel(0, 1, timeout_s=60.0)
        peer = multiprocessing.get_context("fork").Process(
            target=os._exit, args=(0,)
        )
        start = time.monotonic()
        try:
            peer.start()
            ring.own(1)  # the consumer keeps only its read end
            with pytest.raises(TokenStarvationError, match="ring:0->1"):
                ring.recv(0)
        finally:
            peer.join(timeout=30)
            ring.close()
        assert not peer.is_alive()
        assert time.monotonic() - start < 5.0


def deny_pipes_after(monkeypatch, allowed):
    """Make ``os.pipe`` fail once ``allowed`` calls have succeeded."""
    real_pipe = os.pipe
    calls = []

    def pipe():
        calls.append(None)
        if len(calls) > allowed:
            raise OSError(24, "Too many open files (test)")
        return real_pipe()

    monkeypatch.setattr("repro.dist.shm.os.pipe", pipe)


class TestAllocationFailure:
    """A failed pre-fork allocation raises ``OSError`` and leaks nothing."""

    def test_pipe_failure_partway_closes_every_end(self, monkeypatch):
        run_rings("two_tier_2x2", 4)  # warm up process-wide descriptors
        before = open_fds()
        deny_pipes_after(monkeypatch, 2)
        with pytest.raises(OSError, match="Too many open files"):
            run_rings("two_tier_2x2", 4)
        assert open_fds() == before
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
    def test_denied_pipe_raises_and_leaks_nothing(self, monkeypatch):
        deny_pipes_after(monkeypatch, 0)
        with pytest.raises(OSError):
            run_rings("single_rack_4", 2)
        assert leaked_segments() == []

    def test_manager_counts_fallbacks(self, monkeypatch):
        """No pipes: the manager finishes in its serial last resort."""
        deny_pipes_after(monkeypatch, 0)
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
        so the restore + rerun sequence leaks no segments or descriptors
        and still produces bit-identical results."""
        run_rings("single_rack_4", 2)  # warm up process-wide descriptors
        before = open_fds()
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
        assert open_fds() == before
        clean_manager, clean = _run_managed()
        assert crashed_manager.fault_stats.restores == 1
        assert crashed_manager.fault_stats.serial_fallbacks == 0
        assert crashed.node_results == clean.node_results
        assert crashed.node_results[0][RESULT_KEY]
        assert leaked_segments() == []


class TestDescriptorAudit:
    """Runs leave the parent's descriptor count where they found it."""

    @pytest.fixture(autouse=True)
    def warm_up(self):
        run_rings("single_rack_4", 2)  # process-wide descriptors open once

    def test_normal_run_closes_every_descriptor(self):
        before = open_fds()
        result, _ = run_rings("two_tier_2x2", 4)
        assert result.channel_count > 0
        assert open_fds() == before

    def test_aborted_run_closes_every_descriptor(self, monkeypatch):
        monkeypatch.setattr("repro.dist.engine._POLL_INTERVAL_S", 1e-4)
        before = open_fds()
        with pytest.raises(RunAborted):
            run_rings("two_tier_2x2", 4, should_abort=lambda: True)
        assert open_fds() == before
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
        assert "pipe channels" in out.getvalue()
