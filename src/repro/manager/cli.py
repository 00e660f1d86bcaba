"""Command-line interface mirroring the FireSim manager's verbs.

The real FireSim ships a ``firesim`` command whose lifecycle verbs
(``buildafi``, ``launchrunfarm``, ``infrasetup``, ``runworkload``,
``terminaterunfarm``) drive everything from FPGA builds to result
collection (Section III-B3).  This module provides the same UX over the
reproduction::

    python -m repro.manager.cli --topology two_tier --racks 8 \
        --servers-per-rack 8 buildafi launchrunfarm infrasetup \
        runworkload --workload ping --duration-ms 4

Verbs run left to right against one manager instance, so a full
build-deploy-run-collect session is a single invocation.

Observability:

* ``status`` (a verb, usually placed after ``runworkload``) prints the
  *measured* simulation rate and per-model host-time profile from the
  live :class:`~repro.obs.rate.RateMonitor`, next to the perf model's
  prediction;
* ``--telemetry-out DIR`` dumps ``metrics.json``/``metrics.csv`` and a
  Chrome ``trace.json`` (open in ``chrome://tracing`` or Perfetto)
  after the verbs complete;
* ``profile`` (a verb after a ``--workers N`` ``runworkload``) turns on
  the distributed round-phase profiler and prints per-worker phase
  attribution plus critical-path analysis; ``--profile-out DIR`` dumps
  the telemetry artifacts *plus* ``phase_report.json`` and the merged
  multi-process trace;
* ``--json`` replaces the free-form text with one machine-parseable
  JSON object on stdout — ``{"verbs": {<verb>: <summary>, ...}}`` —
  for scripting runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import ConfigError, ReproError
from repro.experiments.common import cycles_to_us
from repro.manager.manager import FireSimManager
from repro.manager.runspec import RunSpec
from repro.swmodel.apps.ping import RESULT_KEY as PING_KEY

VERBS = (
    "buildafi",
    "launchrunfarm",
    "infrasetup",
    "runworkload",
    "status",
    "profile",
    "terminaterunfarm",
)

#: Service verbs (:mod:`repro.serve`): ``serve`` runs the job server in
#: the foreground; the rest talk to it over ``--serve-socket``.  They
#: cannot be mixed with the lifecycle verbs above — a service session
#: and a batch session are different things.
SERVE_VERBS = ("serve", "submit", "jobs", "cancel")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firesim",
        description="FireSim reproduction manager",
    )
    parser.add_argument("verbs", nargs="+", choices=VERBS + SERVE_VERBS,
                        metavar="verb",
                        help=f"lifecycle verbs, in order: {', '.join(VERBS)}; "
                             f"or service verbs: {', '.join(SERVE_VERBS)}")
    parser.add_argument("--topology", default="single_rack",
                        choices=("single_rack", "two_tier", "datacenter"))
    parser.add_argument("--racks", type=int, default=2)
    parser.add_argument("--servers-per-rack", type=int, default=4)
    parser.add_argument("--server-type", default="QuadCore")
    parser.add_argument("--link-latency-us", type=float, default=2.0)
    parser.add_argument("--supernode", action="store_true",
                        help="pack four simulated nodes per FPGA")
    parser.add_argument("--fpgas-per-instance", type=int, default=None,
                        metavar="N",
                        help="FPGAs per F1 instance (default 8, the "
                             "f1.16xlarge); fewer instances spread blades "
                             "over more hosts, and hosts are what "
                             "--workers partitions over")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="partition runworkload across N worker "
                             "processes (1 = serial engine); partitions "
                             "follow the deployment's instance mapping")
    parser.add_argument("--transport", default="pipe",
                        choices=("pipe", "shm"),
                        help="worker-to-worker token hop for --workers > 1: "
                             "mp.Queue pipes (the oracle default) or "
                             "zero-copy shared-memory rings (falls back "
                             "to pipes when /dev/shm is unavailable)")
    parser.add_argument("--transport-timeout", type=float, default=120.0,
                        metavar="SECONDS",
                        help="per-hop progress deadline for worker "
                             "channels (both transports); a peer that "
                             "publishes nothing for this long raises "
                             "TokenStarvationError (default 120)")
    parser.add_argument("--hang-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="floor for the supervisor's adaptive "
                             "hung-worker deadline; lower it for fast "
                             "detection in CI (default 30)")
    parser.add_argument("--engine", default=None,
                        choices=("scalar", "batched"),
                        help="round-loop implementation: the scalar "
                             "reference engine or the vectorized batched "
                             "engine (bit-identical results, faster); "
                             "default: batched when --workers > 1, "
                             "scalar otherwise")
    parser.add_argument("--workload", default="ping", choices=("ping", "boot"))
    parser.add_argument("--duration-ms", type=float, default=4.0)
    parser.add_argument("--ping-count", type=int, default=10)
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of text")
    parser.add_argument("--telemetry-out", metavar="DIR", default=None,
                        help="dump metrics.json/metrics.csv/trace.json here")
    parser.add_argument("--profile-out", metavar="DIR", default=None,
                        help="profile distributed rounds and dump the "
                             "telemetry artifacts plus phase_report.json "
                             "and the merged cross-process trace here")
    parser.add_argument("--fault-plan", metavar="PLAN.json", default=None,
                        help="inject the faults described in this seeded "
                             "JSON plan (chaos testing)")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="retry budget per lifecycle step and per "
                             "mid-run recovery (default 3)")
    parser.add_argument("--checkpoint-interval", type=float, default=None,
                        metavar="MS",
                        help="take a recovery checkpoint every MS "
                             "milliseconds of target time")
    serve = parser.add_argument_group("service verbs (serve/submit/jobs/cancel)")
    serve.add_argument("--serve-socket", metavar="PATH",
                       default="/tmp/firesim-serve.sock",
                       help="unix socket the job server listens on and "
                            "client verbs connect to")
    serve.add_argument("--farm", metavar="TYPE=N[,TYPE=N]",
                       default="f1.16xlarge=2",
                       help="the shared run farm's instances (serve); "
                            "capacity is its total FPGA slots")
    serve.add_argument("--event-log", metavar="FILE.jsonl", default=None,
                       help="append one JSON line per job event (serve)")
    serve.add_argument("--drain", action="store_true",
                       help="on SIGINT/SIGTERM let running and queued "
                            "jobs finish instead of checkpointing them "
                            "(serve)")
    serve.add_argument("--job-name", default=None,
                       help="name for a submitted job (default: the "
                            "workload name)")
    serve.add_argument("--priority", type=int, default=0,
                       help="submitted job's priority; higher runs first "
                            "and may preempt lower (default 0)")
    serve.add_argument("--no-preempt", action="store_true",
                       help="submitted job may not be checkpoint-evicted "
                            "(and is priced on-demand, not spot)")
    serve.add_argument("--wait", action="store_true",
                       help="after submit, block until the job finishes "
                            "and print its outcome")
    serve.add_argument("--job-id", type=int, default=None,
                       help="target job for cancel")
    return parser


def _partition_lines(distributed: Dict[str, Any]) -> List[str]:
    """Round quantum, per-partition rates and their imbalance."""
    lines = [
        f"  round quantum: {distributed['round_quantum']} cycles "
        f"({distributed['rounds_per_exchange']} rounds per "
        f"exchange, {distributed['exchange_rounds']} exchanges)"
    ]
    per_worker = sorted(
        distributed["per_worker_rate_mhz"].items(),
        key=lambda item: int(item[0]),
    )
    lines += [f"  partition {w}: {rate:.3f} MHz" for w, rate in per_worker]
    rates = [rate for _, rate in per_worker if rate > 0.0]
    if len(rates) >= 2:
        lines.append(f"  load imbalance: {max(rates) / min(rates):.2f}x")
    return lines


def _run_verb(verb: str, spec: RunSpec, manager: FireSimManager) -> tuple:
    """Execute one verb; returns (human lines, JSON summary)."""
    if verb == "buildafi":
        results = manager.buildafi()
        lines = [
            f"built {r.config_name}: {r.agfi}"
            + (" (cached)" if r.from_cache else "")
            for r in results
        ]
        lines.append(
            f"build farm makespan: {manager.build_makespan_hours:.1f} h"
        )
        return lines, {
            "builds": [
                {"config": r.config_name, "agfi": r.agfi,
                 "cached": r.from_cache}
                for r in results
            ],
            "makespan_hours": manager.build_makespan_hours,
        }

    if verb == "launchrunfarm":
        deployment = manager.launchrunfarm()
        cost = manager.cost_report()
        rate = manager.rate_estimate()
        lines = [
            f"launched: {deployment.instance_counts}",
            str(cost),
            f"predicted rate: {rate.rate_mhz:.2f} MHz",
        ]
        return lines, {
            "instances": dict(deployment.instance_counts),
            "spot_per_hour": cost.spot_per_hour,
            "predicted_rate_mhz": rate.rate_mhz,
        }

    if verb == "infrasetup":
        sim = manager.infrasetup()
        lines = [
            f"simulation elaborated: {sim.num_nodes} nodes, "
            f"{len(sim.switches)} switches "
            f"({sim.simulation.engine} engine)"
        ]
        return lines, {
            "nodes": sim.num_nodes,
            "switches": len(sim.switches),
            "engine": sim.simulation.engine,
        }

    if verb == "runworkload":
        result = manager.runworkload(spec.build_workload(manager))
        lines = [
            f"workload {result.workload_name!r} ran to "
            f"{result.target_seconds * 1e3:.2f} ms of target time"
        ]
        summary: Dict[str, Any] = {
            "workload": result.workload_name,
            "target_ms": result.target_seconds * 1e3,
        }
        rtts = result.merged(PING_KEY)
        if rtts:
            mean = sum(rtts) / len(rtts)
            lines.append(
                f"ping: {len(rtts)} samples, mean RTT "
                f"{cycles_to_us(mean):.2f} us"
            )
            summary["ping"] = {
                "samples": len(rtts),
                "mean_rtt_us": cycles_to_us(mean),
            }
        distributed = manager.distributed_summary()
        if distributed is not None:
            lines.append(
                f"distributed: {distributed['num_workers']} workers, "
                f"{distributed['boundary_links']} boundary links, "
                f"{distributed['measured_rate_mhz']:.3f} MHz achieved "
                f"({distributed['channels']} {distributed['transport']} "
                "channels)"
            )
            lines += _partition_lines(distributed)
            summary["distributed"] = distributed
        return lines, summary

    if verb == "status":
        report = manager.rate_report()
        lines = [
            f"measured rate: {report.rate_mhz:.3f} MHz "
            f"({report.rounds} rounds, {report.cycles} cycles, "
            f"{report.wall_seconds:.3f} s host)",
        ]
        summary = {"rate": report.to_dict()}
        for name, share in list(report.host_time_shares.items())[:5]:
            lines.append(f"  {name}: {share * 100.0:.1f}% of host time")
        if manager.deployment is not None:
            predicted = manager.rate_estimate()
            lines.append(f"predicted rate: {predicted.rate_mhz:.2f} MHz")
            summary["predicted_rate_mhz"] = predicted.rate_mhz
            if report.rate_hz > 0.0:
                error = predicted.prediction_error(report.rate_hz)
                lines.append(f"prediction error: {error * 100.0:+.0f}%")
                summary["prediction_error"] = error
        distributed = manager.distributed_summary()
        if distributed is not None:
            lines.append(
                f"distributed: {distributed['num_workers']} workers over "
                f"{distributed['boundary_links']} boundary links "
                f"({distributed['rounds']} lockstep rounds, "
                f"{distributed['channels']} {distributed['transport']} "
                "channels)"
            )
            lines += _partition_lines(distributed)
            summary["distributed"] = distributed
        resilience = manager.resilience_summary()
        lines.append(
            f"resilience: {resilience['faults_injected']} faults injected, "
            f"{resilience['retries']} retries, "
            f"{resilience['recoveries']} recoveries, "
            f"{resilience['restores']} checkpoint restores"
        )
        if resilience["quarantined_hosts"]:
            lines.append(
                "  quarantined: "
                + ", ".join(resilience["quarantined_hosts"])
            )
        supervisor = {
            key: resilience[key]
            for key in ("hangs_detected", "workers_killed", "join_timeouts",
                        "ring_corruptions", "transport_degradations",
                        "serial_fallbacks")
        }
        if any(supervisor.values()):
            lines.append("supervisor: " + ", ".join(
                f"{count} {key.replace('_', ' ')}"
                for key, count in supervisor.items()
            ))
        if resilience.get("quarantined_rings"):
            lines.append(
                "  quarantined rings: "
                + ", ".join(resilience["quarantined_rings"])
            )
        for entry in resilience.get("fault_log", []):
            lines.append(f"  {entry}")
        summary["resilience"] = resilience
        return lines, summary

    if verb == "profile":
        report = manager.phase_report()
        return report.summary_lines(), report.to_dict()

    if verb == "terminaterunfarm":
        manager.terminaterunfarm()
        return ["run farm terminated"], {"terminated": True}

    raise ValueError(f"unknown verb {verb!r}")


def main(
    argv: Optional[Sequence[str]] = None, out=sys.stdout, err=sys.stderr
) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _main(args, out)
    except ReproError as exc:
        # User-facing failures (bad configs, exhausted retries) print one
        # actionable line and exit nonzero — no traceback.
        print(f"firesim: error: {exc}", file=err)
        return 1


def _emit(document: Dict[str, Any], out) -> None:
    print(json.dumps(document, indent=2, sort_keys=True), file=out)


def _parse_farm(spec: str) -> Dict[str, int]:
    """Parse ``TYPE=N[,TYPE=N]`` into instance counts."""
    counts: Dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition("=")
        try:
            counts[name.strip()] = int(count)
        except ValueError:
            raise ConfigError(
                f"bad --farm entry {part!r}; expected TYPE=N"
            ) from None
    if not counts:
        raise ConfigError(f"--farm {spec!r} names no instances")
    return counts


def _job_from_args(args: argparse.Namespace) -> Dict[str, Any]:
    """A submitted job's spec: the recipe runworkload would run, named."""
    from repro.serve.job import JobSpec

    defaults = make_parser()
    for flag in ("transport_timeout", "hang_timeout"):
        if getattr(args, flag) != defaults.get_default(flag):
            raise ConfigError(
                f"--{flag.replace('_', '-')} is a setting of the process "
                "that runs a simulation; a served job cannot carry it"
            )
    return JobSpec(
        **RunSpec.from_args(args).to_dict(),
        name=args.job_name or args.workload,
        priority=args.priority,
        preemptible=not args.no_preempt,
    ).to_dict()


def _serve_forever(args: argparse.Namespace, out) -> Dict[str, Any]:
    """The ``serve`` verb: run the job server until signalled."""
    import time

    from repro.obs.session import TelemetrySession
    from repro.serve.api import SocketEndpoint
    from repro.serve.farm import ServeFarm
    from repro.serve.server import JobServer

    farm = ServeFarm(_parse_farm(args.farm))
    server = JobServer(farm=farm, event_log=args.event_log).start()
    session = None
    if args.telemetry_out:
        session = TelemetrySession(trace=False)
        session.attach_server(server)
    endpoint = SocketEndpoint(server, args.serve_socket).start()
    server.install_signal_handlers()
    print(
        f"serving {farm.capacity} FPGA slots "
        f"({args.farm}) on {args.serve_socket}",
        file=out, flush=True,
    )
    try:
        while not server._shut_down:
            time.sleep(0.1)
    except KeyboardInterrupt:
        print("shutting down"
              + (" (draining)" if args.drain else " (checkpointing)"),
              file=out, flush=True)
        endpoint.close()  # refuse new tenants before winding down
        server.stop(drain=args.drain)
    finally:
        endpoint.close()
        if not server._shut_down:
            server.stop(drain=args.drain)
    if session is not None and args.telemetry_out:
        session.dump(args.telemetry_out)
    summary = {
        "leaked_segments": list(server.leaked),
        "events": len(server.events),
        "stats": dict(vars(server.stats)),
    }
    if server.leaked:
        print(f"leaked /dev/shm segments: {server.leaked}", file=out)
    return summary


def _serve_main(args: argparse.Namespace, out) -> int:
    """Dispatch service verbs (one invocation may chain client verbs)."""
    from repro.serve.client import UnixSocketClient

    if "serve" in args.verbs:
        if args.verbs != ["serve"]:
            raise ConfigError(
                "'serve' runs the server in the foreground and must be "
                "the only verb"
            )
        summary = _serve_forever(args, out)
        if args.json:
            _emit({"verbs": {"serve": summary}}, out)
        return 0

    client = UnixSocketClient(args.serve_socket)
    summaries: Dict[str, Any] = {}
    code = 0
    for verb in args.verbs:
        if verb == "submit":
            job_id = client.submit(_job_from_args(args))
            summary: Dict[str, Any] = {"job_id": job_id}
            if not args.json:
                print(f"submitted job {job_id}", file=out)
            if args.wait:
                record = client.wait(job_id)
                summary["job"] = record
                if not args.json:
                    print(f"job {job_id} {record['state']}", file=out)
                if record["state"] != "done":
                    summaries[verb] = summary
                    code = 1
                    break
        elif verb == "jobs":
            description = client.describe()
            summary = description
            if not args.json:
                farm = description["farm"]
                print(
                    f"farm: {farm['used_slots']}/{farm['capacity_slots']} "
                    "slots in use",
                    file=out,
                )
                for job in description["jobs"]:
                    line = (
                        f"  #{job['job_id']} {job['name']!r} "
                        f"{job['state']} prio={job['priority']} "
                        f"slots={job['slots']} "
                        f"pricing={job['cost'].get('pricing', '?')}"
                    )
                    if job["preemptions"]:
                        line += f" preemptions={job['preemptions']}"
                    if job["error"]:
                        line += f" error={job['error']}"
                    print(line, file=out)
        elif verb == "cancel":
            if args.job_id is None:
                raise ConfigError("cancel requires --job-id")
            outcome = client.cancel(args.job_id)
            summary = outcome
            if not args.json:
                print(
                    f"job {args.job_id} -> {outcome['state']}", file=out
                )
        else:
            raise ConfigError(f"unknown service verb {verb!r}")
        summaries[verb] = summary
    if args.json:
        _emit({"verbs": summaries}, out)
    return code


def _main(args: argparse.Namespace, out) -> int:
    serve_verbs = [verb for verb in args.verbs if verb in SERVE_VERBS]
    if serve_verbs:
        if len(serve_verbs) != len(args.verbs):
            raise ConfigError(
                "service verbs (serve/submit/jobs/cancel) cannot be mixed "
                "with lifecycle verbs in one invocation"
            )
        return _serve_main(args, out)
    # The whole recipe is checked here, before the first verb does work.
    spec = RunSpec.from_args(args)
    manager = spec.build_manager(
        transport_timeout_s=args.transport_timeout,
        hang_timeout_s=args.hang_timeout,
    )
    if args.telemetry_out or "status" in args.verbs:
        manager.enable_telemetry()
    if args.profile_out or "profile" in args.verbs:
        manager.enable_profiling()

    summaries: Dict[str, Any] = {}
    for verb in args.verbs:
        lines, summary = _run_verb(verb, spec, manager)
        summaries[verb] = summary
        if not args.json:
            for line in lines:
                print(line, file=out)

    document: Dict[str, Any] = {"verbs": summaries}
    for flag, out_dir in (
        ("telemetry", args.telemetry_out), ("profile", args.profile_out),
    ):
        if not out_dir:
            continue
        written = manager.dump_telemetry(out_dir)
        document[flag] = written
        if not args.json:
            for artifact, path in sorted(written.items()):
                print(f"{flag}: {artifact} -> {path}", file=out)
    if args.json:
        _emit(document, out)
    return 0


if __name__ == "__main__":  # pragma: no cover - direct invocation
    raise SystemExit(main())
