"""The six benchmark workloads.

Every workload is a closed loop driven from this one process: the next
repeat (or the next job of a serve client) starts only when the
previous one has returned, and never more than two workers or two
clients run at once (the host has two cores).  ``inputs(seed, quick)``
turns the seed into plain data — stagger offsets, ping intervals,
sender entry order, job order — and the program under test only ever
sees those generated inputs.

One *repeat* goes from nothing to results in hand: a fresh
``elaborate()`` (or a fresh CLI process, or a fresh ``JobServer``),
the run, and result collection.  It returns a :class:`Sample`; the
harness in :mod:`bench.measure` repeats, takes medians and verifies
each sample's fingerprint against ``golden.json`` or the scalar-engine
oracle.  Timed runs always use ``engine="batched"`` — the engine users
and ``--workers`` get; the scalar engine is only the untimed oracle.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from bench import SRC
from bench.trace import Tracer

FREQ_HZ = 3.2e9
CYCLES_PER_US = 3200


@dataclass
class Sample:
    """What one repeat measured and observed."""

    wall_s: float          # nothing -> results in hand
    setup_s: float         # elaborate + attach (+ plan / server start)
    run_s: float           # host seconds of the run call only
    cpu_s: float           # CPU seconds of the busiest simulating process
    cycles: int            # target cycles advanced
    ops_failed: int        # operations that visibly failed in this repeat
    #: Simulated output, compared field by field with the reference;
    #: ``fingerprint["ops"]`` is the number of operations it completed.
    fingerprint: Dict[str, Any]
    #: Workload-specific measurements for the per-layer metrics.
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Set by the harness when the repeat left a process behind.
    leaked: bool = False


class Workload:
    """One named workload; its ``why`` is listed in ``BENCHMARK.json``."""

    name = ""
    #: False when the simulation runs in processes whose spans cannot
    #: be brought back (serve job children): tracing then relies on
    #: client stamps and the server's event log alone.
    in_process_spans = True

    def inputs(self, seed: int, quick: bool) -> Dict[str, Any]:
        raise NotImplementedError

    def repeat(self, inputs: Dict[str, Any],
               tracer: Optional[Tracer] = None) -> Sample:
        raise NotImplementedError

    def oracle(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """The reference fingerprint, from the scalar engine, untimed."""
        raise NotImplementedError

    def paper_error_pct(self, fingerprint: Dict[str, Any]) -> Optional[float]:
        """Simulated result vs the paper's, or None when unvalidated."""
        return None


# -- in-process simulations ----------------------------------------------


def digest(value: Any) -> str:
    """SHA-256 of a value's ``repr`` (inputs, result stores, logs)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def sim_fingerprint(running: Any) -> Dict[str, Any]:
    """Final cycle, counters, blade results and ``state_digest``."""
    from repro.faults.checkpoint import state_digest

    sim = running.simulation
    switches = []
    for position, switch_id in enumerate(sorted(running.switches)):
        stats = running.switches[switch_id].stats
        switches.append([
            position, stats.packets_in, stats.packets_out,
            stats.packets_dropped, stats.bytes_in, stats.bytes_out,
        ])
    blades = [
        (index, sorted((key, tuple(values)) for key, values in
                       running.blades[index].results.items()))
        for index in sorted(running.blades)
    ]
    return {
        "final_cycle": sim.current_cycle,
        "rounds": sim.stats.rounds,
        "tokens_moved": sim.stats.tokens_moved,
        "valid_tokens_moved": sim.stats.valid_tokens_moved,
        "switch_counters": switches,
        "switch_packets": sum(row[1] for row in switches),
        "nic_flits": nic_flits(running),
        "blade_results_sha256": digest(blades),
        "state_digest": state_digest(running),
    }


def nic_flits(running: Any) -> int:
    """Valid tokens that crossed a blade's link, both directions."""
    sim = running.simulation
    total = 0
    for blade in running.blades.values():
        link = sim.link_between(blade, "net")
        if link is not None:
            total += link.flits_a_to_b + link.flits_b_to_a
    return total


class SimWorkload(Workload):
    """A topology elaborated and advanced inside this process."""

    def build(self, inputs: Dict[str, Any], engine: str) -> Any:
        """``elaborate()`` plus workload attach; returns the handle."""
        raise NotImplementedError

    def serial_advance(self, running: Any,
                       inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Advance to the target on the calling process; returns the
        simulated statistics only the run itself can observe."""
        running.simulation.run_until(inputs["target_cycle"])
        return {}

    def advance(self, running: Any, inputs: Dict[str, Any], prepared: Any,
                tracer: Optional[Tracer]) -> Tuple[Dict[str, Any],
                                                   Dict[str, Any]]:
        """The timed run: ``(simulated stats, extra)``."""
        return self.serial_advance(running, inputs), {}

    def prepare(self, running: Any, inputs: Dict[str, Any]) -> Any:
        """Set-up beyond elaboration (a partition plan); timed as set-up."""
        return None

    def observe(self, running: Any) -> Tuple[int, int, Dict[str, Any]]:
        """``(operations completed, visibly failed, simulated stats)``."""
        raise NotImplementedError

    def _fingerprint(self, running: Any,
                     run_stats: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
        ops, failed, stats = self.observe(running)
        fingerprint = sim_fingerprint(running)
        fingerprint.update(run_stats)
        fingerprint.update(stats)
        fingerprint["ops"] = ops
        return fingerprint, failed

    def repeat(self, inputs: Dict[str, Any],
               tracer: Optional[Tracer] = None) -> Sample:
        start = perf_counter()
        running = self.build(inputs, "batched")
        prepared = self.prepare(running, inputs)
        ready = perf_counter()
        cpu_start = process_time()
        run_stats, extra = self.advance(running, inputs, prepared, tracer)
        ran = perf_counter()
        cpu_s = extra.pop("cpu_s", None) or process_time() - cpu_start
        running.collect_results()
        done = perf_counter()
        fingerprint, failed = self._fingerprint(running, run_stats)
        return Sample(
            wall_s=done - start,
            setup_s=ready - start,
            run_s=ran - ready,
            cpu_s=cpu_s,
            cycles=running.simulation.current_cycle,
            ops_failed=failed,
            fingerprint=fingerprint,
            extra=extra,
        )

    def oracle(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        running = self.build(inputs, "scalar")
        run_stats = self.serial_advance(running, inputs)
        return self._fingerprint(running, run_stats)[0]


RACKS = 8
SERVERS_PER_RACK = 4
TRUNK_LATENCY = 6400
SERVER_LINK_LATENCY = 1600
SWITCH_LATENCY = 10
#: Enough pings to outlast the run: the farm stays loaded throughout.
PING_COUNT = 400


class PingFarm(SimWorkload):
    """Sparse pings on a loaded 8x4 two-tier farm: engine bookkeeping,
    switch and link relabel dominate, NIC is small.
    """

    name = "ping_farm"

    def inputs(self, seed: int, quick: bool) -> Dict[str, Any]:
        rng = random.Random(seed)
        flows = []
        for index in range(RACKS * SERVERS_PER_RACK):
            rack, slot = divmod(index, SERVERS_PER_RACK)
            neighbor = rack * SERVERS_PER_RACK + (slot + 1) % SERVERS_PER_RACK
            flows.append({
                "src": index, "dst": neighbor, "ident": 8,
                "interval": 20_000 + 160 * index + rng.randrange(160),
                "start": 617 * index + rng.randrange(600),
            })
            if slot == 0:
                peer = ((rack + 1) % RACKS) * SERVERS_PER_RACK
                flows.append({
                    "src": index, "dst": peer, "ident": 9,
                    "interval": 23_000 + 160 * index + rng.randrange(160),
                    "start": 313 * index + 101 + rng.randrange(300),
                })
        return {
            "flows": flows,
            "target_cycle": 1_000_000 if quick else 8_000_000,
        }

    def build(self, inputs: Dict[str, Any], engine: str) -> Any:
        from repro.manager.runfarm import RunFarmConfig, elaborate
        from repro.manager.topology import two_tier
        from repro.swmodel.apps.ping import make_ping_client

        running = elaborate(
            two_tier(num_racks=RACKS, servers_per_rack=SERVERS_PER_RACK),
            RunFarmConfig(
                link_latency_cycles=TRUNK_LATENCY,
                server_link_latency_cycles=SERVER_LINK_LATENCY,
                switch_latency_cycles=SWITCH_LATENCY,
                engine=engine,
            ),
        )
        blades = running.blades
        for flow in inputs["flows"]:
            blades[flow["src"]].spawn(
                f"ping{flow['ident']}",
                make_ping_client(
                    blades[flow["dst"]].mac, count=PING_COUNT,
                    interval_cycles=flow["interval"], ident=flow["ident"],
                ),
                start_cycle=flow["start"],
            )
        return running

    def observe(self, running: Any) -> Tuple[int, int, Dict[str, Any]]:
        from repro.swmodel.apps.ping import RESULT_KEY

        answered = 0
        silent = 0
        local_rtts: List[int] = []
        for index, blade in running.blades.items():
            rtts = blade.results.get(RESULT_KEY, [])
            answered += len(rtts)
            silent += not rtts
            # Slot-0 blades also run the cross-rack flow into the same
            # result key; the rest hold rack-local RTTs only.
            if index % SERVERS_PER_RACK:
                local_rtts.extend(rtts)
        median = statistics.median(local_rtts) if local_rtts else 0
        return answered, silent, {"local_rtt_median_cycles": median}

    def paper_error_pct(self, fingerprint: Dict[str, Any]) -> Optional[float]:
        """Stack overhead (RTT - ideal 4*l + 2*n) vs the paper's 34 us
        (EXPERIMENTS.md, Figure 5)."""
        ideal = 4 * SERVER_LINK_LATENCY + 2 * SWITCH_LATENCY
        overhead_us = (
            fingerprint["local_rtt_median_cycles"] - ideal
        ) / CYCLES_PER_US
        return abs(overhead_us - 34.0) / 34.0 * 100.0


class DistFarm(PingFarm):
    """``ping_farm`` through run_distributed(workers=2, shm): the only workload
    where exchange encode/transport/decode, fork and join run.
    """

    name = "dist_farm"

    def prepare(self, running: Any, inputs: Dict[str, Any]) -> Any:
        from repro.dist.partition import plan_from_assignment

        root = running.root
        assignment = {f"switch{root.switch_id}": 0}
        for index, rack in enumerate(root.downlinks):
            worker = index % 2
            assignment[f"switch{rack.switch_id}"] = worker
            for server in rack.iter_servers():
                assignment[f"node{server.node_index}"] = worker
        return plan_from_assignment(assignment, 2)

    def advance(self, running: Any, inputs: Dict[str, Any], prepared: Any,
                tracer: Optional[Tracer]) -> Tuple[Dict[str, Any],
                                                   Dict[str, Any]]:
        from repro.dist import run_distributed
        from repro.obs.prof import PhaseReport, ProfileConfig

        # The parent only forks, polls and merges; one explicit span
        # keeps that wait out of ``trace.unattributed_s``.
        with tracer.span("dist.run") if tracer else nullcontext():
            result = run_distributed(
                running.simulation, prepared, inputs["target_cycle"],
                transport="shm",
                profile=ProfileConfig() if tracer else None,
            )
        extra: Dict[str, Any] = {
            "cpu_s": max(w.cpu_seconds for w in result.workers),
        }
        if tracer:
            extra["dist"] = {
                "report": PhaseReport.from_result(result).to_dict(),
                "summary": result.to_dict(),
            }
        return {"exchange_rounds": result.exchange_rounds}, extra

    def oracle(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        fingerprint = super().oracle(inputs)
        # Four 1600-cycle rounds per 6400-cycle trunk exchange.
        fingerprint["exchange_rounds"] = fingerprint["rounds"] // (
            TRUNK_LATENCY // SERVER_LINK_LATENCY
        )
        return fingerprint


STREAM_SENDERS = 8
STREAM_RATE_BPS = 40e9
LINK_RATE_BPS = 204.8e9


class StreamSaturate(SimWorkload):
    """Fig 6 shape, 8 senders at 40 Gbit/s through the root: dense flits,
    so NIC, rate limiter and tile memory dominate and engine bookkeeping
    is small.
    """

    name = "stream_saturate"

    def inputs(self, seed: int, quick: bool) -> Dict[str, Any]:
        order = list(range(STREAM_SENDERS))
        random.Random(seed).shuffle(order)
        target_us = 60.0 if quick else 120.0
        return {
            "entry_order": order,
            "stagger_us": 5.0,
            "steady_from_cycle": int(target_us / 2 * CYCLES_PER_US),
            "target_cycle": int(target_us * CYCLES_PER_US),
        }

    def build(self, inputs: Dict[str, Any], engine: str) -> Any:
        from repro.manager.runfarm import RunFarmConfig, elaborate
        from repro.manager.topology import two_tier
        from repro.nic.ratelimit import rate_settings_for_bandwidth
        from repro.swmodel.apps.streamer import (
            STREAM_FRAME_BYTES,
            attach_baremetal_receiver,
            make_baremetal_sender,
        )

        running = elaborate(
            two_tier(num_racks=2, servers_per_rack=STREAM_SENDERS),
            RunFarmConfig(engine=engine),
        )
        k, p = rate_settings_for_bandwidth(STREAM_RATE_BPS, LINK_RATE_BPS)
        target_s = inputs["target_cycle"] / FREQ_HZ
        # More frames than the window can carry, so every sender stays
        # active to the end (the paper's senders never finish either).
        frames = int(STREAM_RATE_BPS * target_s / (STREAM_FRAME_BYTES * 8))
        frames += 64
        for slot, index in enumerate(inputs["entry_order"]):
            sender = running.blade(index)
            receiver = running.blade(STREAM_SENDERS + index)
            attach_baremetal_receiver(receiver)
            sender.nic.set_bandwidth(k, p)
            sender.spawn(
                f"stream{index}",
                make_baremetal_sender(
                    receiver.mac, num_frames=frames,
                    start_delay_cycles=int(
                        inputs["stagger_us"] * slot * CYCLES_PER_US
                    ),
                ),
            )
        return running

    def serial_advance(self, running: Any,
                       inputs: Dict[str, Any]) -> Dict[str, Any]:
        # Two segments so the root's byte counter can be read once every
        # sender is active: steady goodput = bytes in the second half.
        sim = running.simulation
        root = running.switches[running.root.switch_id]
        sim.run_until(inputs["steady_from_cycle"])
        bytes_before, cycle_before = root.stats.bytes_out, sim.current_cycle
        sim.run_until(inputs["target_cycle"])
        bits = (root.stats.bytes_out - bytes_before) * 8
        seconds = (sim.current_cycle - cycle_before) / FREQ_HZ
        return {"steady_root_gbps": bits / seconds / 1e9}

    def observe(self, running: Any) -> Tuple[int, int, Dict[str, Any]]:
        from repro.swmodel.apps.streamer import (
            RESULT_BYTES,
            STREAM_FRAME_BYTES,
        )

        delivered = 0
        failed = 0
        for index in range(STREAM_SENDERS, 2 * STREAM_SENDERS):
            received = running.blade(index).results.get(RESULT_BYTES, [0])[0]
            delivered += received // STREAM_FRAME_BYTES
            # A silent receiver or a partial frame seen by software
            # would both break the NIC's whole-packet contract.
            failed += received == 0 or received % STREAM_FRAME_BYTES != 0
        return delivered, failed, {}

    def paper_error_pct(self, fingerprint: Dict[str, Any]) -> Optional[float]:
        """Steady root goodput vs the paper's 200 Gbit/s (EXPERIMENTS.md,
        Figure 6)."""
        return abs(fingerprint["steady_root_gbps"] - 200.0) / 200.0 * 100.0


class BootRack(SimWorkload):
    """Paper Fig 8 workload, two blades booting Linux with idle links:
    blade event queues dominate, switch and NIC are ~0.
    """

    name = "boot_rack"

    def inputs(self, seed: int, quick: bool) -> Dict[str, Any]:
        rng = random.Random(seed)
        return {
            "start_cycles": [rng.randrange(4000) for _ in range(2)],
            "target_cycle": int((0.5 if quick else 1.3) * 1e-3 * FREQ_HZ),
        }

    def build(self, inputs: Dict[str, Any], engine: str) -> Any:
        from repro.manager.runfarm import RunFarmConfig, elaborate
        from repro.manager.topology import single_rack
        from repro.swmodel.apps.boot import make_linux_boot

        running = elaborate(single_rack(2), RunFarmConfig(engine=engine))
        for index, start in enumerate(inputs["start_cycles"]):
            running.blade(index).spawn(
                "init", make_linux_boot(), start_cycle=start
            )
        return running

    def observe(self, running: Any) -> Tuple[int, int, Dict[str, Any]]:
        logs = [
            tuple(running.blade(index).uart.log)
            for index in sorted(running.blades)
        ]
        milestones = sum(len(log) for log in logs)
        silent = sum(not log for log in logs)
        return milestones, silent, {"uart_sha256": digest(logs)}


# -- the manager CLI as a subprocess --------------------------------------


CLI_VERBS = ["buildafi", "launchrunfarm", "infrasetup", "runworkload",
             "terminaterunfarm"]
CLI_DIST_OPTIONS = ["--workers", "2", "--transport", "shm"]
CLI_TIMEOUT_S = 60.0


def _python(*args: str) -> Tuple[float, str]:
    """Wall seconds and stdout of a fresh interpreter with ``src/`` on
    its path; a non-zero exit or a timeout raises."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S, check=True,
    )
    return perf_counter() - start, proc.stdout


class CliRunWorkload(Workload):
    """What a user waits on: interpreter start, import, parse, map,
    elaborate, fork, run, teardown, JSON emit; a mostly idle farm under
    --workers 2, where exchange cost shows.
    """

    name = "cli_runworkload"

    def inputs(self, seed: int, quick: bool) -> Dict[str, Any]:
        return {
            "options": [
                "--topology", "two_tier", "--racks", "8",
                "--servers-per-rack", "4", "--workload", "ping",
                # The only seedable input of a fixed command line.  All
                # counts in range finish inside the 10 ms run, so the
                # output differs by seed while the work barely does.
                "--ping-count", str(85 + random.Random(seed).randrange(10)),
                "--duration-ms", "2" if quick else "10", "--json",
            ],
        }

    @staticmethod
    def _fingerprint(document: Dict[str, Any]) -> Dict[str, Any]:
        run = document["verbs"]["runworkload"]
        ping = run.get("ping", {})
        return {
            "target_ms": run["target_ms"],
            "ping_samples": ping.get("samples", 0),
            "ping_mean_rtt_us": ping.get("mean_rtt_us", 0.0),
            "nodes": document["verbs"]["infrasetup"]["nodes"],
            "ops": ping.get("samples", 0),
        }

    @staticmethod
    def _session(verbs: List[str], options: List[str]) -> Tuple[float, str]:
        """One ``firesim`` command in a fresh interpreter."""
        return _python("-m", "repro.manager.cli", *verbs, *options)

    @staticmethod
    def _session_in_process(argv: List[str]) -> Dict[str, Any]:
        """``cli.main(argv)`` here; returns its ``--json`` document."""
        from repro.manager import cli

        out = io.StringIO()
        code = cli.main(argv, out=out)
        if code != 0:
            raise RuntimeError(f"cli.main exited {code}")
        return json.loads(out.getvalue())

    def repeat(self, inputs: Dict[str, Any],
               tracer: Optional[Tracer] = None) -> Sample:
        options = inputs["options"] + CLI_DIST_OPTIONS
        if tracer is not None:
            return self._traced_repeat(options, tracer)
        setup_s, _ = self._session(
            [verb for verb in CLI_VERBS if verb != "runworkload"], options
        )
        wall_s, stdout = self._session(CLI_VERBS, options)
        document = json.loads(stdout)
        distributed = document["verbs"]["runworkload"]["distributed"]
        fingerprint = self._fingerprint(document)
        return Sample(
            wall_s=wall_s,
            setup_s=setup_s,
            run_s=max(wall_s - setup_s, 1e-9),
            cpu_s=distributed["worker_cpu_seconds_max"],
            cycles=distributed["cycles"],
            ops_failed=0 if fingerprint["ops"] else 1,
            fingerprint=fingerprint,
            extra={"exchange_rounds": distributed["exchange_rounds"]},
        )

    def _traced_repeat(self, options: List[str], tracer: Tracer) -> Sample:
        """The same session in-process, with the verbs wrapped.

        ``manager.import_s`` needs a fresh interpreter, so it is timed
        as two subprocesses (``import repro.manager.cli`` minus a bare
        interpreter start) and reported beside the spans.
        """
        import argparse

        from repro.manager import cli
        from repro.manager.manager import FireSimManager

        bare, _ = _python("-c", "pass")
        imported, _ = _python("-c", "import repro.manager.cli")
        tracer.wrap(cli, "make_parser", "manager.parse")
        tracer.wrap(argparse.ArgumentParser, "parse_args", "manager.parse")
        for verb in CLI_VERBS:
            tracer.wrap(FireSimManager, verb, f"manager.{verb}")
        # The ``profile`` verb turns on the program's own round-phase
        # profiler; its report is where ``dist.*`` comes from.
        verbs = CLI_VERBS[:4] + ["profile"] + CLI_VERBS[4:]
        start = perf_counter()
        with tracer.span("manager.emit"):
            # Self time of this span is everything main() does outside
            # parsing and the verbs: topology build, manager
            # construction and the JSON emit.
            document = self._session_in_process(verbs + options)
        wall_s = perf_counter() - start
        distributed = document["verbs"]["runworkload"]["distributed"]
        setup_s = sum(
            tracer.agg[f"manager.{verb}"][1]
            for verb in ("buildafi", "launchrunfarm", "infrasetup")
        )
        return Sample(
            wall_s=wall_s,
            setup_s=setup_s,
            run_s=tracer.agg["manager.runworkload"][1],
            cpu_s=distributed["worker_cpu_seconds_max"],
            cycles=distributed["cycles"],
            ops_failed=0,
            fingerprint=self._fingerprint(document),
            extra={
                "rounds": distributed["rounds"],
                "exchange_rounds": distributed["exchange_rounds"],
                "import_s": max(imported - bare, 0.0),
                # Interpreter start + import, which the in-process
                # session skips but the timed subprocess pays.
                "startup_s": imported,
                "dist": {
                    "report": document["verbs"]["profile"],
                    "summary": distributed,
                },
            },
        )

    def oracle(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        return self._fingerprint(self._session_in_process(
            CLI_VERBS + inputs["options"] + ["--engine", "scalar"]
        ))


# -- the job server --------------------------------------------------------


SERVE_CLIENTS = 2
SERVE_PING_COUNTS = (8, 10, 12)


class _Job(NamedTuple):
    """One served job as its client saw it."""

    ping_count: int
    submit_s: float       # submit() call
    latency_s: float      # submit -> wait() returns
    returned: float       # perf_counter() stamp when wait() returned
    record: Dict[str, Any]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class ServeJobs(Workload):
    """Serve submit->result: scheduler, per-job fork, 20 ms poll loop and
    reap on a 2-slot farm shared by two closed-loop clients, so one job
    runs while the other queues.
    """

    name = "serve_jobs"
    in_process_spans = False

    def inputs(self, seed: int, quick: bool) -> Dict[str, Any]:
        per_client = 3 if quick else 20
        rng = random.Random(seed)
        lanes = []
        for _ in range(SERVE_CLIENTS):
            # The same multiset of jobs for every seed, in seeded order.
            counts = [
                SERVE_PING_COUNTS[i % len(SERVE_PING_COUNTS)]
                for i in range(per_client)
            ]
            rng.shuffle(counts)
            lanes.append(counts)
        return {"lanes": lanes, "duration_ms": 4.0}

    @staticmethod
    def _spec(ping_count: int, duration_ms: float, engine: str
              ) -> Dict[str, Any]:
        return {
            "name": f"ping{ping_count}", "topology": "single_rack",
            "servers_per_rack": 2, "workload": "ping",
            "duration_ms": duration_ms, "ping_count": ping_count,
            "engine": engine,
        }

    @staticmethod
    def _comparable(result: Dict[str, Any]) -> Dict[str, Any]:
        return {key: result[key]
                for key in ("target_ms", "node_results", "final_digest")}

    def repeat(self, inputs: Dict[str, Any],
               tracer: Optional[Tracer] = None) -> Sample:
        from repro.serve.client import InProcessClient
        from repro.serve.farm import ServeFarm
        from repro.serve.server import JobServer

        duration_ms = inputs["duration_ms"]
        cpu_before = _children_cpu_s()
        start = perf_counter()
        server = JobServer(ServeFarm({"f1.2xlarge": 2})).start()
        ready = perf_counter()
        done: List[List[_Job]] = [[] for _ in inputs["lanes"]]
        errors: List[BaseException] = []

        def client(lane: int) -> None:
            try:
                api = InProcessClient(server)
                for ping_count in inputs["lanes"][lane]:
                    submitted = perf_counter()
                    job_id = api.submit(
                        self._spec(ping_count, duration_ms, "batched")
                    )
                    accepted = perf_counter()
                    record = api.wait(job_id)
                    returned = perf_counter()
                    done[lane].append(_Job(
                        ping_count, accepted - submitted,
                        returned - submitted, returned, record,
                    ))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(lane,), name=f"client{lane}")
            for lane in range(len(inputs["lanes"]))
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            finished = perf_counter()
            # Joined here so no job child or loop thread outlives the
            # repeat, whatever a client raised.
            server.stop()
        if errors:
            raise errors[0]
        # After stop(): every job process has been reaped into rusage.
        children_cpu = _children_cpu_s() - cpu_before
        jobs = [job for lane in done for job in lane]
        results = sorted(
            (job.ping_count, digest(self._comparable(job.record["result"])))
            for job in jobs if job.record["state"] == "done"
        )
        cycles_per_job = round(duration_ms * 1e-3 * FREQ_HZ)
        return Sample(
            wall_s=finished - start,
            setup_s=ready - start,
            run_s=finished - ready,
            # Every job is its own process, one running at a time: all
            # jobs' cycles over all job processes' CPU seconds.
            cpu_s=children_cpu,
            cycles=cycles_per_job * len(jobs),
            ops_failed=sum(job.record["state"] != "done" for job in jobs),
            fingerprint={"job_results": results, "ops": len(results)},
            extra={
                "latency_s": [job.latency_s for job in jobs],
                "submit_s": [job.submit_s for job in jobs],
                "stages": _serve_stages(server.events, jobs),
            },
        )

    def oracle(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        from repro.serve.job import JobSpec, run_job_inline

        expected = {
            count: digest(self._comparable(run_job_inline(JobSpec.from_dict(
                self._spec(count, inputs["duration_ms"], "scalar")
            ))))
            for count in SERVE_PING_COUNTS
        }
        results = sorted(
            (count, expected[count])
            for lane in inputs["lanes"] for count in lane
        )
        return {"job_results": results, "ops": len(results)}


def _serve_stages(events: List[Dict[str, Any]], jobs: List[_Job]
                  ) -> Dict[str, List[float]]:
    """Per-job queue / run / settle seconds from the server's event log."""
    # Event ``ts`` is wall-clock ``time.time()``; client stamps are
    # ``perf_counter()``.  One offset maps the latter onto the former.
    epoch_offset = time.time() - perf_counter()
    stamps: Dict[int, Dict[str, float]] = {}
    for event in events:
        if "job_id" in event:
            stamps.setdefault(event["job_id"], {})[event["event"]] = event["ts"]
    stages: Dict[str, List[float]] = {"queue": [], "run": [], "settle": []}
    for job in jobs:
        stamp = stamps.get(job.record["job_id"], {})
        if not {"submitted", "started", "completed"} <= set(stamp):
            continue
        stages["queue"].append(stamp["started"] - stamp["submitted"])
        stages["run"].append(stamp["completed"] - stamp["started"])
        stages["settle"].append(
            job.returned + epoch_offset - stamp["completed"]
        )
    return stages


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        PingFarm(), StreamSaturate(), BootRack(), DistFarm(),
        CliRunWorkload(), ServeJobs(),
    )
}
