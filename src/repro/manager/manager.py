"""The FireSim manager facade (Section III-B3).

Mirrors the real manager's lifecycle verbs:

* :meth:`FireSimManager.buildafi` — run the (modeled) FPGA build flow
  for every distinct blade configuration in the topology;
* :meth:`FireSimManager.launchrunfarm` — map the topology onto EC2
  instances and "launch" them (producing the deployment + cost report);
* :meth:`FireSimManager.infrasetup` — flash FPGAs / start switch models:
  here, elaborate the cycle-exact functional simulation;
* :meth:`FireSimManager.runworkload` — deploy a workload's jobs, advance
  target time, and collect results;
* :meth:`FireSimManager.terminaterunfarm` — release everything.

Example (the Figure 4 configuration)::

    root = two_tier(num_racks=8, servers_per_rack=8)
    manager = FireSimManager(root)
    manager.buildafi()
    manager.launchrunfarm()
    sim = manager.infrasetup()
    result = manager.runworkload(my_workload)
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable, ContextManager, Dict, List, Optional, Set, Tuple

from repro import ReproError
from repro.core.channel import TokenStarvationError
from repro.dist.engine import DistributedRunResult, RunAborted, run_distributed
from repro.dist.partition import plan_partitions
from repro.dist.shm import DEFAULT_TRANSPORT_TIMEOUT_S
from repro.dist.supervisor import SupervisorConfig
from repro.faults.checkpoint import ReplayCheckpoint, state_digest
from repro.faults.plan import (
    FaultError,
    FaultInjector,
    FaultPlan,
    HeartbeatLost,
    ResilienceStats,
    RingCorruption,
    TransientFault,
    WorkerCrash,
    WorkerHang,
)
from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.faults.watchdog import TokenWatchdog
from repro.host.costs import CostReport
from repro.host.perfmodel import RateEstimate, SimulationRateModel
from repro.manager.buildfarm import BuildFarm, BuildResult
from repro.manager.mapper import Deployment, HostConfig, map_topology
from repro.manager.runfarm import RunFarmConfig, RunningSimulation, elaborate
from repro.manager.topology import SwitchNode
from repro.manager.workload import WorkloadResult, WorkloadSpec, run_workload
from repro.net.transport import HeartbeatMonitor
from repro.obs.prof import PhaseReport, ProfileConfig
from repro.obs.rate import RateReport
from repro.obs.session import TelemetrySession
from repro.obs.trace import get_trace_sink


class ManagerError(ReproError, RuntimeError):
    """Lifecycle verbs ran out of order, or a step exhausted its retries."""


#: Verdicts a segmented run's control hook may return at a boundary.
CONTROL_CONTINUE = "continue"
CONTROL_PREEMPT = "preempt"
CONTROL_CANCEL = "cancel"


@dataclass
class SegmentedOutcome:
    """How a segmented workload run ended.

    ``status`` is ``"done"`` (ran to the workload's full duration),
    ``"preempted"`` (stopped at a segment boundary on the control
    hook's orders, checkpoint recorded), or ``"cancelled"`` (stopped
    and discarded).  ``cycle``/``digest`` name the exact stopping point
    — for a preempted run they are the portable checkpoint a later
    ``resume_cycle``/``resume_digest`` call resumes from,
    cycle-identically (the digest proves it).  ``result`` is only set
    when ``status == "done"``.
    """

    status: str
    cycle: int
    digest: str
    result: Optional[WorkloadResult] = None


class FireSimManager:
    """Builds, deploys, runs, and tears down one target design."""

    def __init__(
        self,
        topology: SwitchNode,
        run_config: Optional[RunFarmConfig] = None,
        host_config: Optional[HostConfig] = None,
        build_farm: Optional[BuildFarm] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint_interval_cycles: Optional[int] = None,
        workers: int = 1,
        transport: str = "pipe",
        transport_timeout_s: float = DEFAULT_TRANSPORT_TIMEOUT_S,
        hang_timeout_s: Optional[float] = None,
        ring_failure_threshold: int = 2,
    ) -> None:
        if workers < 1:
            raise ManagerError(f"workers must be >= 1, got {workers}")
        if transport not in ("pipe", "shm"):
            raise ManagerError(
                f"transport must be 'pipe' or 'shm', got {transport!r}"
            )
        if transport_timeout_s <= 0:
            raise ManagerError(
                f"transport timeout must be positive, got {transport_timeout_s}"
            )
        #: Worker processes for ``runworkload``; 1 = the serial engine.
        self.workers = workers
        #: Worker-to-worker token hop for distributed runs ("pipe" is
        #: the oracle default; "shm" selects the zero-copy ring and
        #: falls back to pipes when /dev/shm is unavailable).
        self.transport = transport
        #: Progress deadline for both transports' ``recv`` — a peer
        #: publishing nothing for this long is token starvation.
        self.transport_timeout_s = transport_timeout_s
        #: Distributed liveness supervision: heartbeat-based hang
        #: detection with an optional floor override (``hang_timeout_s``
        #: None keeps the SupervisorConfig default).
        self.supervision = (
            SupervisorConfig()
            if hang_timeout_s is None
            else SupervisorConfig(hang_timeout_s=hang_timeout_s)
        )
        #: The last distributed run's merged result (``status`` reads it).
        self.last_distributed: Optional[DistributedRunResult] = None
        #: Cooperative-stop hook for distributed runs: polled by the
        #: engine's collection loop; a truthy return tears workers down
        #: and raises :class:`~repro.dist.engine.RunAborted`.  The job
        #: server sets this so a running distributed job can be
        #: preempted or cancelled without SIGKILLing its process group.
        self.abort_check: Optional[Callable[[], bool]] = None
        self.topology = topology
        self.run_config = run_config or RunFarmConfig()
        self.host_config = host_config or HostConfig()
        self.build_farm = build_farm or BuildFarm()
        self.build_results: Optional[List[BuildResult]] = None
        self.build_makespan_hours: float = 0.0
        self.deployment: Optional[Deployment] = None
        self.running: Optional[RunningSimulation] = None
        self.telemetry: Optional[TelemetrySession] = None
        #: When set (see :meth:`enable_profiling`), distributed runs
        #: carry per-worker phase recorders and ``runworkload`` yields a
        #: :class:`~repro.obs.prof.PhaseReport`.
        self.profile_config: Optional[ProfileConfig] = None
        # -- resilience (Section III-B3: the manager babysits an elastic
        # spot-market fleet, so host failure is the common case) --------
        self.fault_stats = ResilienceStats()
        self.fault_plan = fault_plan
        self.injector = (
            FaultInjector(fault_plan, self.fault_stats)
            if fault_plan is not None else None
        )
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = CircuitBreaker()
        #: Per-directed-ring breaker: repeated integrity faults on the
        #: same worker pair degrade that run's transport shm -> pipe.
        self.ring_breaker = CircuitBreaker(
            failure_threshold=ring_failure_threshold
        )
        self.heartbeats = HeartbeatMonitor()
        self.watchdog = TokenWatchdog()
        self.checkpoint_interval_cycles = checkpoint_interval_cycles
        if checkpoint_interval_cycles is not None \
                and checkpoint_interval_cycles < 1:
            raise ManagerError(
                "checkpoint interval must be >= 1 cycle, got "
                f"{checkpoint_interval_cycles}"
            )
        #: Physical F1 instance ids the circuit breaker has quarantined.
        self._quarantined: Set[int] = set()
        # Backoff jitter draws come from a dedicated seeded stream so the
        # retry schedule never perturbs the injector's probability draws.
        seed = fault_plan.seed if fault_plan is not None else 0
        self._retry_rng = random.Random(seed + 1)

    # -- telemetry ------------------------------------------------------

    def enable_telemetry(self, trace: bool = True) -> TelemetrySession:
        """Attach a telemetry session covering all later verbs.

        Installs the session's trace sink process-wide (switch/tracer
        instrumentation starts emitting) and, once :meth:`infrasetup`
        elaborates the simulation, hooks the rate monitor and every
        model's counters into the session registry.  Idempotent.
        """
        if self.telemetry is None:
            self.telemetry = TelemetrySession(
                trace=trace, freq_hz=self.run_config.freq_hz
            ).install()
            self.telemetry.registry.register_source(
                "faults", self.fault_stats
            )
            if self.running is not None:
                self.telemetry.attach_running(self.running)
        return self.telemetry

    def enable_profiling(
        self, config: Optional[ProfileConfig] = None
    ) -> ProfileConfig:
        """Turn on the distributed round-phase profiler.

        Profiling rides on telemetry (the phase report and merged trace
        export through the session), so this enables telemetry too.
        Serial runs ignore the config — only worker round loops carry
        recorders.  Idempotent; returns the active config.
        """
        self.enable_telemetry()
        if self.profile_config is None:
            self.profile_config = config or ProfileConfig()
        return self.profile_config

    def phase_report(self) -> PhaseReport:
        """The last profiled distributed run's phase attribution."""
        if self.telemetry is None or self.telemetry.phase_report is None:
            raise ManagerError(
                "no profiled distributed run yet: enable_profiling and run "
                "a workload with workers > 1 before reading phase_report"
            )
        return self.telemetry.phase_report

    def _span(self, verb: str) -> ContextManager[Any]:
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.span(verb)

    def rate_report(self) -> RateReport:
        """Measured simulation rate so far (requires telemetry)."""
        if self.telemetry is None:
            raise ManagerError("enable_telemetry before reading rate_report")
        return self.telemetry.rate_report()

    def dump_telemetry(self, out_dir: str) -> Dict[str, str]:
        """Write metrics.json/metrics.csv/trace.json into ``out_dir``."""
        if self.telemetry is None:
            raise ManagerError("enable_telemetry before dump_telemetry")
        if self.telemetry.rate.rounds:
            self.telemetry.registry.gauge("sim.quantum_cycles").set(
                self.telemetry.rate.cycles / self.telemetry.rate.rounds
            )
        topology_info = {
            "servers": sum(1 for _ in self.topology.iter_servers()),
            "switches": sum(1 for _ in self.topology.iter_switches()),
            "depth": self.topology.depth(),
        }
        return self.telemetry.dump(out_dir, extra={"topology": topology_info})

    # -- resilience machinery -------------------------------------------

    def _trace_instant(self, name: str, **args: Any) -> None:
        sink = get_trace_sink()
        if sink.enabled:
            sink.host_instant(
                name, "faults", perf_counter(),
                track="resilience", args=args,
            )

    def _quarantine_host(self, host: str) -> None:
        """Exclude a tripped host's physical instance from future maps."""
        self.fault_stats.hosts_quarantined += 1
        if host.startswith("f1:"):
            self._quarantined.add(int(host.split(":", 1)[1]))
        # A quarantined host's blades move: recompute the mapping if the
        # run farm was already launched.
        if self.deployment is not None:
            self.deployment = map_topology(
                self.topology, self.host_config,
                excluded_instances=self._quarantined,
            )
        self._trace_instant("quarantine", host=host)

    def _with_retries(
        self, step: str, attempt_fn: Callable[[], Any],
    ) -> Any:
        """Run one lifecycle step under the retry policy.

        Transient faults are retried with recorded exponential backoff;
        a host that keeps failing trips the circuit breaker, is
        quarantined, and its blades are remapped before the next
        attempt.  Exhausting the budget raises :class:`ManagerError`.
        """
        attempt = 0
        while True:
            try:
                result = attempt_fn()
            except TransientFault as fault:
                victim = fault.target or step
                if isinstance(fault, HeartbeatLost):
                    self.fault_stats.heartbeats_missed += 1
                    self.heartbeats.miss(victim)
                if self.breaker.record_failure(victim):
                    self._quarantine_host(victim)
                attempt += 1
                if attempt > self.retry_policy.max_retries:
                    self.fault_stats.giveups += 1
                    raise ManagerError(
                        f"{step} failed after {attempt - 1} retries: {fault}"
                    ) from fault
                delay = self.retry_policy.delay_for(attempt, self._retry_rng)
                self.fault_stats.retries += 1
                self.fault_stats.backoff_seconds += delay
                self._trace_instant(
                    "retry", step=step, attempt=attempt, victim=victim,
                    backoff_s=round(delay, 6),
                )
            else:
                if attempt > 0:
                    self.fault_stats.recoveries += 1
                return result

    # -- lifecycle ------------------------------------------------------

    def buildafi(self) -> List[BuildResult]:
        """Build FPGA images for every distinct server configuration."""
        with self._span("buildafi"):
            config_names = sorted(
                {s.server_type for s in self.topology.iter_servers()}
            )

            def attempt() -> tuple:
                if self.injector is not None:
                    for name in config_names:
                        self.injector.fire("buildafi", name)
                return self.build_farm.build_all(config_names)

            self.build_results, self.build_makespan_hours = (
                self._with_retries("buildafi", attempt)
            )
            return self.build_results

    def launchrunfarm(self) -> Deployment:
        """Map the topology onto instances (the run farm)."""
        with self._span("launchrunfarm"):

            def attempt() -> Deployment:
                deployment = map_topology(
                    self.topology, self.host_config,
                    excluded_instances=self._quarantined,
                )
                if self.injector is not None:
                    for host in deployment.f1_hosts():
                        self.injector.fire("launchrunfarm", host)
                return deployment

            self.deployment = self._with_retries("launchrunfarm", attempt)
            return self.deployment

    def infrasetup(self) -> RunningSimulation:
        """Flash FPGAs and start switch models: elaborate the simulation."""
        if self.deployment is None:
            raise ManagerError("launchrunfarm must run before infrasetup")
        if self.build_results is None:
            raise ManagerError("buildafi must run before infrasetup")
        with self._span("infrasetup"):

            def attempt() -> RunningSimulation:
                if self.injector is not None:
                    assert self.deployment is not None
                    for host in self.deployment.f1_hosts():
                        self.injector.fire("infrasetup", host)
                        self.heartbeats.beat(host)
                return elaborate(self.topology, self.run_config)

            self.running = self._with_retries("infrasetup", attempt)
            if self.telemetry is not None:
                self.telemetry.attach_running(self.running)
            return self.running

    def runworkload(self, workload: WorkloadSpec) -> WorkloadResult:
        """Deploy a workload onto the running simulation and collect.

        Without a fault plan or checkpoint interval this is exactly the
        plain single-shot path.  With either, the run is segmented at
        checkpoint intervals; an injected controller crash or detected
        token stall restores the last quantum-boundary checkpoint and
        resumes, cycle-identically to a run that never crashed.
        """
        if self.running is None:
            raise ManagerError("infrasetup must run before runworkload")
        with self._span("runworkload"):
            if self.injector is not None:
                self._with_retries(
                    "runworkload",
                    lambda: self.injector.fire("runworkload"),
                )
            if self.workers > 1:
                return self._run_workload_distributed(workload)
            resilient = self.checkpoint_interval_cycles is not None or (
                self.injector is not None
                and bool(self.injector.pending("runworkload"))
            )
            if not resilient:
                return run_workload(self.running, workload)
            outcome = self.runworkload_segmented(workload)
            assert outcome.result is not None  # no control hook => ran to done
            return outcome.result

    def _deploy(
        self, workload: WorkloadSpec
    ) -> Tuple[RunningSimulation, int, Callable[[], RunningSimulation]]:
        """Put a workload on the simulation, for a checkpointed run.

        Returns the simulation, the workload's length in cycles, and the
        ``rebuild`` closure checkpoints replay from.  A replay starts
        from an elaboration, hence the demand for cycle 0.
        """
        sim = self.running
        if sim is None:
            raise ManagerError("infrasetup must run before runworkload")
        if sim.simulation.current_cycle != 0:
            raise ManagerError(
                "a checkpointed runworkload needs a fresh simulation at "
                f"cycle 0 (at cycle {sim.simulation.current_cycle}); rerun "
                "infrasetup first"
            )
        workload.deploy(sim)

        def rebuild() -> RunningSimulation:
            # Deterministic re-execution: elaboration and job setup are
            # both seeded, so the replayed run is bit-identical.
            rebuilt = elaborate(self.topology, self.run_config)
            workload.deploy(rebuilt)
            return rebuilt

        total_cycles = sim.simulation.clock.cycles(workload.duration_seconds)
        return sim, total_cycles, rebuild

    def runworkload_segmented(
        self,
        workload: WorkloadSpec,
        segment_cycles: Optional[int] = None,
        control: Optional[Callable[[int, int], Optional[str]]] = None,
        resume_cycle: int = 0,
        resume_digest: Optional[str] = None,
    ) -> SegmentedOutcome:
        """Run a workload in checkpointable segments (the serving seam).

        The engine between segments is exactly :meth:`runworkload`'s
        resilient path — deterministic segments, a replay checkpoint at
        every boundary, fault-triggered restores — plus an external
        *control hook*: before each segment, ``control(current_cycle,
        total_cycles)`` may return ``"preempt"`` or ``"cancel"`` to
        stop the run at that boundary.  A preempted run's
        :class:`SegmentedOutcome` carries the portable checkpoint
        ``(cycle, digest)``; passing it back as
        ``resume_cycle``/``resume_digest`` on a fresh manager replays
        to that cycle, *proves* the replayed state matches via the
        digest, and continues — the whole point being that a
        preempted-and-resumed job is bit-identical to one that ran
        undisturbed.  This is what :mod:`repro.serve` preemption rides
        on.

        Serial-engine only (``workers == 1``): a distributed run's
        worker state never returns to the parent mid-run, so its only
        sound checkpoint is the pre-fork cycle — the job server
        therefore treats a distributed job as one segment and uses
        :attr:`abort_check` instead.
        """
        if self.workers > 1:
            raise ManagerError(
                "segmented runs require the serial engine (workers == 1); "
                "distributed jobs preempt via abort_check at round "
                "granularity instead"
            )
        if resume_cycle < 0:
            raise ManagerError(
                f"resume cycle must be >= 0, got {resume_cycle}"
            )
        sim, total_cycles, rebuild = self._deploy(workload)
        interval = (
            segment_cycles
            or self.checkpoint_interval_cycles
            or total_cycles
        )
        if interval < 1:
            raise ManagerError(
                f"segment length must be >= 1 cycle, got {interval}"
            )

        if resume_cycle > 0:
            # Resume from a portable checkpoint: replay to the recorded
            # cycle and let the digest check prove cycle-exactness
            # before a single new segment runs.
            if resume_digest is None:
                raise ManagerError(
                    "resume_cycle without resume_digest: an unverified "
                    "resume could silently diverge"
                )
            self._trace_instant(
                "resume", checkpoint_cycle=resume_cycle,
            )
            sim = self._restore(
                ReplayCheckpoint.from_dict(
                    rebuild, {"cycle": resume_cycle, "digest": resume_digest}
                ),
                recovery=False,
            )

        checkpoint = ReplayCheckpoint.capture(sim, rebuild)
        self.fault_stats.checkpoints_taken += 1
        if self.injector is not None:
            self.injector.arm(sim.simulation)
        restores = 0
        while sim.simulation.current_cycle < total_cycles:
            if control is not None:
                verdict = control(sim.simulation.current_cycle, total_cycles)
                if verdict in (CONTROL_PREEMPT, CONTROL_CANCEL):
                    sim.simulation.fault_hook = None
                    status = (
                        "preempted" if verdict == CONTROL_PREEMPT
                        else "cancelled"
                    )
                    return SegmentedOutcome(
                        status=status,
                        cycle=sim.simulation.current_cycle,
                        digest=state_digest(sim),
                    )
                if verdict not in (None, CONTROL_CONTINUE):
                    raise ManagerError(
                        f"unknown control verdict {verdict!r}; expected "
                        "'continue', 'preempt', or 'cancel'"
                    )
            target = min(sim.simulation.current_cycle + interval, total_cycles)
            try:
                sim.simulation.run_until(target)
                self.watchdog.scan(sim.simulation)
                self.fault_stats.watchdog_scans += 1
            except (FaultError, TokenStarvationError) as fault:
                restores += 1
                if restores > self.retry_policy.max_retries:
                    self.fault_stats.giveups += 1
                    raise ManagerError(
                        f"runworkload failed after {restores - 1} "
                        f"recoveries: {fault}"
                    ) from fault
                self._trace_instant(
                    "restore", checkpoint_cycle=checkpoint.cycle,
                    fault=str(fault),
                )
                sim = self._restore(checkpoint)
                if self.injector is not None:
                    self.injector.arm(sim.simulation)
                continue
            if sim.simulation.current_cycle < total_cycles:
                checkpoint = ReplayCheckpoint.capture(sim, rebuild)
                self.fault_stats.checkpoints_taken += 1
        sim.simulation.fault_hook = None
        return SegmentedOutcome(
            status="done",
            cycle=sim.simulation.current_cycle,
            digest=state_digest(sim),
            result=WorkloadResult.collect(workload, sim),
        )

    def _run_workload_distributed(
        self, workload: WorkloadSpec
    ) -> WorkloadResult:
        """Run a workload partitioned across ``self.workers`` processes.

        Shards mirror the deployment's instance mapping (the same
        placement ``launchrunfarm`` produced), so the process boundary
        falls exactly where the paper's host boundary would.  A worker
        that dies mid-run is a *host fault*: the manager restores the
        pre-fork checkpoint, drops to the surviving worker count, and
        reruns — deterministic elaboration makes the rerun
        cycle-identical, so the recovery is invisible in the results.

        The same restore path handles the supervisor's taxonomy: a
        hung worker (:class:`~repro.faults.plan.WorkerHang`) is treated
        like a crash; a shm integrity fault
        (:class:`~repro.faults.plan.RingCorruption`) keeps the worker
        count but counts against the per-ring circuit breaker, which on
        tripping degrades this run's transport shm -> pipe; and an
        exhausted restart budget falls back to the *serial* engine as
        the last-resort degraded mode instead of failing the workload —
        the serial result is the oracle the distributed engine is
        bit-equal to, so correctness is preserved at reduced speed.
        """
        if self.deployment is None:
            raise ManagerError(
                "launchrunfarm must run before a distributed runworkload "
                "(partitions follow the deployment's instance mapping)"
            )
        sim, total_cycles, rebuild = self._deploy(workload)

        # Distributed checkpoints are only sound at the pre-fork cycle:
        # after the run, worker-side model internals never came back to
        # the parent, so mid-run capture would snapshot stale state.
        checkpoint = ReplayCheckpoint.capture(sim, rebuild)
        self.fault_stats.checkpoints_taken += 1
        workers = self.workers
        transport = self.transport
        restores = 0
        result: Optional[DistributedRunResult] = None
        while True:
            plan = plan_partitions(sim, self.deployment, workers)
            if self.injector is not None:
                self.injector.arm(sim.simulation)
            try:
                result = run_distributed(
                    sim.simulation,
                    plan,
                    total_cycles,
                    measure=self.telemetry is not None,
                    transport=transport,
                    profile=self.profile_config,
                    supervision=self.supervision,
                    transport_timeout_s=self.transport_timeout_s,
                    stats=self.fault_stats,
                    should_abort=self.abort_check,
                )
                if (
                    transport == "shm"
                    and result.transport != "shm"
                ):
                    self.fault_stats.shm_fallbacks += 1
                break
            except RunAborted:
                # Deliberate stop (job-server preempt/cancel), not a
                # fault: workers are already torn down, no state merged.
                sim.simulation.fault_hook = None
                raise
            except (WorkerCrash, RingCorruption) as fault:
                restores += 1
                if self.injector is not None:
                    # The fault fired in a forked worker's copy of this
                    # injector; consume it here or the rerun re-injects.
                    self.injector.consume_next_mid_run()
                if restores > self.retry_policy.max_retries:
                    # Restart budget exhausted: last-resort degraded
                    # mode.  Restore the pre-fork checkpoint, disarm
                    # injection (every planned fault has had its
                    # chance), and finish on the serial engine — the
                    # oracle the distributed engine is bit-equal to.
                    self.fault_stats.serial_fallbacks += 1
                    self._trace_instant(
                        "serial_fallback", restores=restores,
                        fault=str(fault),
                    )
                    sim = self._restore(checkpoint)
                    sim.simulation.fault_hook = None
                    sim.simulation.run_until(total_cycles)
                    break
                if isinstance(fault, RingCorruption):
                    # Transport fault, not a worker fault: keep the
                    # worker count, but repeated corruption on one
                    # directed ring trips its breaker and degrades the
                    # transport to pipes for the rest of this run.
                    self.fault_stats.ring_corruptions += 1
                    self._trace_instant(
                        "ring_corruption", ring=fault.ring,
                        restores=restores,
                    )
                    if (
                        self.ring_breaker.record_failure(fault.ring)
                        and transport == "shm"
                    ):
                        transport = "pipe"
                        self.fault_stats.transport_degradations += 1
                        self._trace_instant(
                            "transport_degraded", ring=fault.ring,
                        )
                else:
                    if isinstance(fault, WorkerHang):
                        self._trace_instant(
                            "worker_hang", worker=fault.worker_index,
                        )
                    # One worker is gone; resume on the survivors.
                    workers = max(1, workers - 1)
                self._trace_instant(
                    "restore", checkpoint_cycle=checkpoint.cycle,
                    fault=str(fault),
                )
                sim = self._restore(checkpoint)
        sim.simulation.fault_hook = None
        if result is not None:
            self.last_distributed = result
            if self.telemetry is not None:
                self.telemetry.absorb_distributed(result)
        return WorkloadResult.collect(workload, sim)

    def _restore(
        self, checkpoint: ReplayCheckpoint, recovery: bool = True
    ) -> RunningSimulation:
        """Replay to a checkpoint and re-home bookkeeping on the result;
        resuming a preempted job restores without being a ``recovery``."""
        sim = checkpoint.restore()
        self.running = sim
        self.fault_stats.restores += 1
        self.fault_stats.replay_cycles += checkpoint.cycle
        if recovery:
            self.fault_stats.recoveries += 1
        if self.telemetry is not None:
            self.telemetry.attach_running(sim)
        return sim

    def terminaterunfarm(self) -> None:
        """Release the run farm (instances stop accruing cost).

        The telemetry session survives termination so results can still
        be dumped, but its process-wide trace sink is uninstalled.
        """
        with self._span("terminaterunfarm"):
            self.running = None
            self.deployment = None
        if self.telemetry is not None:
            self.telemetry.uninstall()

    # -- reporting --------------------------------------------------------

    def cost_report(self) -> CostReport:
        if self.deployment is None:
            raise ManagerError("launchrunfarm must run before cost_report")
        return self.deployment.cost()

    def rate_estimate(
        self, model: Optional[SimulationRateModel] = None
    ) -> RateEstimate:
        if self.deployment is None:
            raise ManagerError("launchrunfarm must run before rate_estimate")
        return self.deployment.rate_estimate(
            self.run_config.link_latency_cycles, model
        )

    def resilience_summary(self) -> Dict[str, Any]:
        """Fault/retry/recovery counters for the ``status`` verb."""
        summary: Dict[str, Any] = asdict(self.fault_stats)
        summary["backoff_seconds"] = round(summary["backoff_seconds"], 6)
        summary["quarantined_hosts"] = sorted(self.breaker.quarantined)
        summary["quarantined_rings"] = sorted(self.ring_breaker.quarantined)
        if self.injector is not None:
            summary["fault_log"] = list(self.injector.log)
        return summary

    def distributed_summary(self) -> Optional[Dict[str, Any]]:
        """Per-partition rates and plan shape of the last distributed
        run, for the ``status`` verb; None if no distributed run yet."""
        if self.last_distributed is None:
            return None
        summary = self.last_distributed.to_dict()
        summary["plan"] = self.last_distributed.plan.describe()
        return summary
