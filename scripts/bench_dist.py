#!/usr/bin/env python
"""Benchmark serial vs distributed achieved simulation rate.

Usage: python scripts/bench_dist.py [--cycles N] [--workers 2,4,8]
                                    [--trials N] [--out BENCH_dist.json]
                                    [--phase-report PATH] [--quick]

Runs the paper's scale-out configuration — a two-tier cluster with
2 us / 6400-cycle rack-to-root trunk links and 0.5 us / 1600-cycle
server links, sized to what one container can elaborate — through the
serial engines and through ``repro.dist`` (workers joined by one
pipe per directed pair) at each requested worker count, and emits
``BENCH_dist.json`` (schema ``repro.bench.dist/v5``).

Every blade runs continuous, phase-staggered ping traffic (rack-local
neighbor pings plus a cross-rack trunk flow per rack) for the whole
measured window.  This is not decoration: the serial batched engine
jumps over provably idle rounds without running them, so an idle
farm — what earlier versions of this bench simulated — now costs the
serial engine almost nothing and measures nothing about scaling.  A
loaded farm is also what the paper's Figure 9 reports: simulation
rate under a running workload.  The staggering (per-blade start
offsets and slightly different intervals) keeps the blades' event
queues out of phase, as real traffic would be.

The latency-heterogeneous links exercise the distributed engine's
adaptive exchange quantum (paper Fig 9: simulation rate grows with
token batch size).  Partitions are rack-aligned — each worker owns
whole racks (ToR switch + its blades), exactly how FireSim places a
rack's blades and ToR on one instance — so every cross-worker link is
a 6400-cycle trunk.  The simulation quantum is the 1600-cycle server
link, but the exchange quantum derived from the partition's boundary
latency floor is 6400 cycles: workers exchange one coalesced message
per peer every *four* rounds, which is where distributed execution
earns its win over the serial engines (the serial round loop pays its
per-round cost at every 1600-cycle quantum; a worker pays transport
only at exchange boundaries).

Two serial baselines anchor the document, measured **once** up front
and reused across every worker count:

* ``serial.scalar`` — the scalar oracle with a
  :class:`~repro.obs.rate.RateMonitor` attached: the instrumented
  reference run that supplies the end cycle every distributed run must
  reproduce.
* ``serial.batched`` — the batched engine, **uninstrumented**
  (plain ``run_until`` under ``perf_counter``), best of ``--trials``
  runs.  This is the parity baseline: the distributed engine defaults
  to the batched loop, so "dist beats serial" means beating the
  fastest serial configuration with no monitor attached.

Distributed runs use the batched engine too (the ``--workers > 1``
default).  Rate families reported per worker count:

* ``measured_mhz`` — wall-clock achieved MHz on THIS host, best of
  ``--trials`` uninstrumented runs.  Only meaningful as a parity
  number when the host has at least one core per worker
  (``host_cpu_count`` is recorded so the gate can tell).
* ``measured_critical_path_mhz`` — cycles over the *maximum worker CPU
  seconds* (``time.process_time`` per worker: blocking waits burn no
  CPU).  On a core-starved container the workers time-slice one core
  and wall clock measures the slicing, not the simulator; the critical
  path is what wall clock would approach with a core per worker.  The
  parity gate (``check_bench_regression.py --parity``) uses it
  whenever ``host_cpu_count < workers``.
* ``transport_overhead_per_round_s`` — measured seconds per lockstep
  round the distributed run pays beyond the batched serial round (the
  engine the workers actually run, so the delta is transport plus
  lockstep, not engine choice).

``speedup.parity`` carries the gate's inputs: wall-clock and
critical-path ratios of every distributed run over the batched serial
baseline.  v5 keeps v4's per-transport nesting with its one remaining
key, ``"shm"``, so a v4 document re-stamps as v5 by deletion alone.
The adaptive exchange fields (``round_quantum``,
``rounds_per_exchange``, ``exchange_rounds``) flow through from
:meth:`~repro.dist.engine.DistributedRunResult.to_dict`.

The profiler numbers: ``phase_breakdown`` per worker count and
``profiler.overhead_ratio`` from the alternate-round probe (recorded
and minimally-timed rounds interleave within one run so host drift
cancels).  ``--phase-report PATH`` additionally dumps the full
per-worker :class:`~repro.obs.prof.PhaseReport` of each profiled run —
the artifact CI uploads when the parity gate fails, so a regression
arrives with its own phase attribution.

Exits non-zero if the distributed runs diverge from serial cycle
counts — the benchmark doubles as an equivalence check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.dist import run_distributed  # noqa: E402
from repro.dist.partition import plan_from_assignment  # noqa: E402
from repro.manager.runfarm import RunFarmConfig, elaborate  # noqa: E402
from repro.manager.topology import two_tier  # noqa: E402
from repro.obs.prof import PhaseReport, ProfileConfig  # noqa: E402
from repro.obs.rate import RateMonitor  # noqa: E402
from repro.swmodel.apps.ping import make_ping_client  # noqa: E402

RACKS = 8
SERVERS_PER_RACK = 4
LINK_LATENCY_CYCLES = 6400  # 2 us rack-to-root trunks (the paper's links)
SERVER_LINK_LATENCY_CYCLES = 1600  # 0.5 us blade <-> ToR links

#: Enough pings to outlast any plausible ``--cycles`` (200 pings at a
#: ~20k-cycle interval spans ~4M cycles; the default run is 2M).
PING_COUNT = 200
PING_INTERVAL_CYCLES = 20_000


def attach_workload(running):
    """Continuous staggered ping traffic across the whole farm.

    Each blade pings its rack neighbor (interior server links) and the
    first blade of every rack additionally pings the next rack's first
    blade (trunk traffic that crosses workers in every partitioning).
    Start offsets and per-blade interval skews keep the farm's event
    queues out of phase so no provably-idle global round exists during
    the measured window — the serial engine must simulate every round,
    as it would under real traffic, instead of fast-forwarding an idle
    farm for free.
    """
    blades = running.blades
    for index in sorted(blades):
        rack, slot = divmod(index, SERVERS_PER_RACK)
        neighbor = rack * SERVERS_PER_RACK + (slot + 1) % SERVERS_PER_RACK
        blades[index].spawn(
            f"ping{index}",
            make_ping_client(
                blades[neighbor].mac,
                count=PING_COUNT,
                interval_cycles=PING_INTERVAL_CYCLES + 160 * index,
            ),
            start_cycle=617 * index,
        )
        if slot == 0:
            trunk_peer = ((rack + 1) % RACKS) * SERVERS_PER_RACK
            blades[index].spawn(
                f"xping{index}",
                make_ping_client(
                    blades[trunk_peer].mac,
                    count=PING_COUNT,
                    interval_cycles=23_000 + 160 * index,
                    ident=9,  # the rack-local client owns icmp/8
                ),
                start_cycle=313 * index + 101,
            )


def build(engine="scalar"):
    root = two_tier(num_racks=RACKS, servers_per_rack=SERVERS_PER_RACK)
    running = elaborate(
        root,
        RunFarmConfig(
            link_latency_cycles=LINK_LATENCY_CYCLES,
            server_link_latency_cycles=SERVER_LINK_LATENCY_CYCLES,
            engine=engine,
        ),
    )
    attach_workload(running)
    return running, root


def rack_assignment(root, workers):
    """Rack-aligned partitioning: worker ``i`` owns racks ``i mod W``.

    FireSim's deployment shape: a ToR switch and its blades share a
    host, so only the long rack-to-root trunks cross workers — which
    keeps the boundary-latency floor at the trunk latency and lets the
    adaptive quantum batch four rounds per exchange.
    """
    assignment = {f"switch{root.switch_id}": 0}
    for index, rack in enumerate(root.downlinks):
        worker = index % workers
        assignment[f"switch{rack.switch_id}"] = worker
        for server in rack.iter_servers():
            assignment[f"node{server.node_index}"] = worker
    return assignment


def serial_oracle(cycles):
    """The instrumented scalar reference run: (report, end_cycle)."""
    running, _ = build(engine="scalar")
    monitor = RateMonitor().attach(running.simulation)
    running.simulation.run_until(cycles)
    return monitor.report(), running.simulation.current_cycle


def serial_batched_trial(cycles):
    """One uninstrumented batched serial run.

    Returns ``(rate_mhz, wall_s, cpu_s, end_cycle)``.  No monitor, no
    profiler: this is the number the distributed engine has to beat,
    so nothing rides along on the run being timed.
    """
    running, _ = build(engine="batched")
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    running.simulation.run_until(cycles)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    rate_mhz = cycles / wall_s / 1e6 if wall_s > 0 else 0.0
    return rate_mhz, wall_s, cpu_s, running.simulation.current_cycle


def run_one(cycles, workers, measure, profile=False):
    running, root = build(engine="batched")
    plan = plan_from_assignment(rack_assignment(root, workers), workers)
    result = run_distributed(
        running.simulation, plan, cycles,
        measure=measure, profile=profile or None,
    )
    return result, running.simulation.current_cycle


def instrumented_summary(cycles, workers):
    """One measure=True profiled run's profile (its wall clock pays for
    the instrumentation, so rates come from the uninstrumented trials
    instead).  Returns ``(summary, phase_report)``."""
    result, _ = run_one(cycles, workers, measure=True, profile=True)
    summary = result.to_dict()
    summary.pop("measured_rate_mhz", None)
    summary.pop("measured_critical_path_mhz", None)
    report = PhaseReport.from_result(result)
    reconciliation = report.reconciliation()
    summary["phase_breakdown"] = {
        key: reconciliation[key]
        for key in ("compute_share", "transport_share", "wait_share")
    }
    summary["profiler_self_overhead_ratio"] = (
        report.profiling_overhead_ratio()
    )
    return summary, report


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=2_000_000)
    parser.add_argument("--workers", default="2,4,8",
                        help="comma-separated worker counts")
    parser.add_argument("--trials", type=int, default=7,
                        help="trials per worker count (median overhead, "
                             "best-of rates)")
    parser.add_argument("--out", default="BENCH_dist.json")
    parser.add_argument("--phase-report", default=None,
                        help="also dump every profiled run's full "
                             "PhaseReport to this JSON path (the CI "
                             "failure artifact)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink the run for CI smoke")
    args = parser.parse_args(argv)
    cycles = 400_000 if args.quick else args.cycles
    trials = min(args.trials, 5) if args.quick else args.trials
    worker_counts = [int(part) for part in args.workers.split(",")]
    # The simulation quantum is the smallest link latency (the server
    # links); the distributed engine's exchange quantum is the trunk
    # latency, derived per partition and recorded in each summary.
    quantum = SERVER_LINK_LATENCY_CYCLES

    # Serial baselines: measured once per (topology, quantum) and
    # reused for every worker count below.
    oracle_report, serial_end = serial_oracle(cycles)
    batched_rates, batched_walls, batched_cpus = [], [], []
    for _ in range(trials):
        rate, wall_s, cpu_s, end = serial_batched_trial(cycles)
        if end != serial_end:
            print(
                f"bench_dist: FAIL: batched serial ended at cycle {end}, "
                f"scalar oracle at {serial_end}",
                file=sys.stderr,
            )
            return 1
        batched_rates.append(rate)
        batched_walls.append(wall_s)
        batched_cpus.append(cpu_s)
    parity_mhz = max(batched_rates)
    # The per-round overhead subtrahend: the median batched serial
    # round, the same engine the workers tick.
    serial_round_s = quantum / (median(batched_rates) * 1e6)
    serial = {
        "scalar": {
            "engine": "scalar",
            "instrumented": True,
            "measured_mhz": oracle_report.rate_mhz,
            "wall_seconds": oracle_report.wall_seconds,
            "rounds": oracle_report.rounds,
            "cycles": oracle_report.cycles,
        },
        "batched": {
            "engine": "batched",
            "instrumented": False,
            "measured_mhz": parity_mhz,
            "median_mhz": median(batched_rates),
            "trials": trials,
            "wall_seconds": min(batched_walls),
            "cpu_seconds": median(batched_cpus),
        },
    }
    print(
        f"serial: {oracle_report.rate_mhz:.3f} MHz scalar (instrumented "
        f"oracle), {parity_mhz:.3f} MHz batched uninstrumented "
        f"(parity baseline, best of {trials})"
    )

    distributed = {}
    speedup_measured = {}
    parity_wall = {}
    parity_critical = {}
    overhead = {}
    phase_reports = {}
    #: Per-trial alternate-round probe ratios at the smallest worker
    #: count; the gate value is the median across trials.
    probe_ratios = []
    profile_workers = min(worker_counts)
    for workers in worker_counts:
        rates, critical_rates, trial_overheads = [], [], []
        for _ in range(trials):
            result, dist_end = run_one(cycles, workers, measure=False)
            if dist_end != serial_end:
                print(
                    f"bench_dist: FAIL: {workers}-worker run ended at "
                    f"cycle {dist_end}, serial at {serial_end}",
                    file=sys.stderr,
                )
                return 1
            rate = result.measured_rate_mhz()
            rates.append(rate)
            critical_rates.append(result.measured_critical_path_mhz())
            trial_overheads.append(quantum / (rate * 1e6) - serial_round_s)
            if workers == profile_workers:
                # One alternate-round probe run per trial: recorded and
                # minimally-timed rounds interleave inside the run, so
                # their duration ratio measures the profiler's
                # round-time cost with host drift cancelled (see the
                # module docstring).
                probe_result, _ = run_one(
                    cycles, workers, measure=False,
                    profile=ProfileConfig(overhead_probe=True),
                )
                ratio = PhaseReport.from_result(
                    probe_result
                ).probe_overhead_ratio()
                if ratio is not None:
                    probe_ratios.append(ratio)
        key = str(workers)
        summary, report = instrumented_summary(cycles, workers)
        phase_reports[key] = report.to_dict()
        best = max(rates)
        best_critical = max(critical_rates)
        summary["measured_mhz"] = best
        summary["measured_critical_path_mhz"] = best_critical
        per_round = median(trial_overheads)
        summary["transport_overhead_per_round_s"] = per_round
        overhead[key] = per_round
        distributed[key] = summary
        speedup_measured[key] = best / serial["scalar"]["measured_mhz"]
        parity_wall[key] = best / parity_mhz
        parity_critical[key] = best_critical / parity_mhz
        print(
            f"workers={workers}: {best:.3f} MHz measured (best of "
            f"{trials}), {best_critical:.3f} MHz critical-path "
            f"({parity_critical[key]:.2f}x batched serial), "
            f"{per_round * 1e6:.1f} us/round transport overhead (median)"
        )
    profiler_overhead = {"shm": median(probe_ratios)} if probe_ratios else {}
    for ratio in profiler_overhead.values():
        print(
            f"profiler overhead ({profile_workers} workers): {ratio:.3f}x "
            f"round time (alternate-round probe, median of "
            f"{len(probe_ratios)} runs)"
        )

    document = {
        "schema": "repro.bench.dist/v5",
        "topology": {
            "kind": "two_tier",
            "racks": RACKS,
            "servers_per_rack": SERVERS_PER_RACK,
            "nodes": RACKS * SERVERS_PER_RACK,
            "partitioning": "rack-aligned",
        },
        "link_latency_cycles": LINK_LATENCY_CYCLES,
        "server_link_latency_cycles": SERVER_LINK_LATENCY_CYCLES,
        "cycles": cycles,
        "trials": trials,
        "quick": bool(args.quick),
        "host_cpu_count": os.cpu_count(),
        "serial": serial,
        "distributed": {"shm": distributed},
        "transport_overhead_per_round_s": {"shm": overhead},
        "speedup": {
            "measured": {"shm": speedup_measured},
            "parity": {
                "baseline": "serial batched, uninstrumented, best of "
                            f"{trials}",
                "serial_measured_mhz": parity_mhz,
                "wall": {"shm": parity_wall},
                "critical_path": {"shm": parity_critical},
            },
        },
        "profiler": {
            "overhead_ratio": profiler_overhead,
            "ratio_runs": {"shm": probe_ratios},
            "method": "alternate-round probe",
            "workers": profile_workers,
        },
        "note": (
            "measured rates share this host's cores; "
            "measured_critical_path_mhz divides cycles by the maximum "
            "worker CPU seconds (process_time: blocking waits burn no "
            "CPU), so it is the measured one-core-per-worker rate a "
            "core-starved container cannot show on the wall clock. "
            "speedup.parity compares both against the uninstrumented "
            "batched serial engine — the bar the distributed engine "
            "must clear."
        ),
    }
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.phase_report:
        with open(args.phase_report, "w") as fh:
            json.dump(
                {
                    "schema": "repro.bench.dist.phases/v1",
                    "cycles": cycles,
                    "quick": bool(args.quick),
                    "reports": {"shm": phase_reports},
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        print(f"phase reports -> {args.phase_report}")
    best = max(parity_critical.values(), default=0.0)
    print(f"best critical-path parity: {best:.2f}x -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
