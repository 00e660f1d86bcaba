"""The distributed run driver: fork workers, exchange tokens, merge.

:func:`run_distributed` is the multi-process twin of
:meth:`repro.core.simulation.Simulation.run_until`.  The parent process
elaborates and primes the simulation once, forks one worker per
partition (each inherits the full memory image, so nothing is pickled
on the way in), and then only *watches*: workers synchronize purely by
token exchange over per-pair pipes, exactly as FireSim's distributed
simulation needs no global barrier (paper Section III-B2).  When every
worker reports its :class:`~repro.dist.worker.WorkerResult`, the parent
merges shard-local counters — switch statistics, blade result stores,
tracer records, link flit counts, aggregate token counts — back onto
its own model objects, so downstream consumers (workload summaries,
``status`` output, telemetry) see the same objects they would after a
serial run.

A worker that dies — injected controller crash, starvation after a
lost batch, or a genuine defect — is detected by the parent's poll
loop (an ``("error", ...)`` report or a bare dead-without-result
process), surviving workers are torn down, and the failure is raised
as a :class:`~repro.faults.plan.WorkerCrash` *host fault* so the
manager's resilience layer can checkpoint-restore onto fewer workers.
A worker that *hangs* is caught by the same loop through the
:mod:`repro.dist.supervisor` heartbeat block: zero heartbeat progress
past an adaptive deadline gets the worker killed (SIGTERM -> SIGKILL)
and surfaces as :class:`~repro.faults.plan.WorkerHang`, and a channel
frame that fails its integrity check is re-raised as the typed
:class:`~repro.faults.plan.RingCorruption` the worker reported.

Caveat, stated loudly: after a distributed run the parent's model
*internals* (switch queues, blade kernels, link queues) are stale —
only the merged counters above are authoritative.  Checkpoints of a
distributed run must therefore be taken at the pre-fork cycle, which is
what :class:`repro.manager.manager.FireSimManager` does.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from queue import Empty
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import ConfigError, ReproError
from repro.core.simulation import Simulation
from repro.dist.partition import PartitionPlan
from repro.dist.shm import DEFAULT_TRANSPORT_TIMEOUT_S, PipeChannel
from repro.dist.supervisor import (
    HeartbeatBlock,
    Supervisor,
    SupervisorConfig,
)
from repro.dist.worker import ShardContext, WorkerResult, shard_entry
from repro.faults.plan import RingCorruption, WorkerCrash, WorkerHang
from repro.host.perfmodel import exchange_quantum
from repro.obs.prof import ProfileConfig

#: How long the parent waits between liveness sweeps of the workers.
_POLL_INTERVAL_S = 0.2
#: Grace period for a finished worker's process to exit after its
#: result arrived.
_JOIN_TIMEOUT_S = 10.0
#: Grace period for a cleanly exited (code 0) worker's result to drain
#: out of the queue's feeder pipe before the parent declares it dead
#: without a result.  The put happens before the exit, so anything
#: longer than a scheduler hiccup means the result is genuinely gone.
_RESULT_GRACE_S = 2.0


class RunAborted(ReproError, RuntimeError):
    """A distributed run was stopped on purpose, not by a fault.

    Raised when the caller's ``should_abort`` hook (the job server's
    preemption/cancel seam) asks :func:`run_distributed` to stop
    mid-run.  The parent simulation is left exactly as it was before
    the call — no partial worker state is merged — so the caller can
    restore its pre-fork checkpoint and later rerun deterministically.
    Deliberately *not* a :class:`~repro.faults.plan.FaultError`: the
    manager's retry/restore machinery must not treat an intentional
    eviction as a host failure.
    """


@dataclass
class DistributedRunResult:
    """What a distributed run produced, plus its performance envelope."""

    plan: PartitionPlan
    quantum: int
    start_cycle: int
    end_cycle: int
    rounds: int
    #: Parent-observed wall time from first fork to last merge.
    wall_seconds: float
    workers: List[WorkerResult] = field(default_factory=list)
    boundary_link_count: int = 0
    #: Cycles between boundary token exchanges — equals ``quantum``
    #: unless the adaptive derivation found headroom under the
    #: partition's boundary-latency floor (paper Fig 9: rate grows with
    #: batch size, bounded by link latency).
    round_quantum: int = 0
    #: Directed channels built for the run — one per worker pair that
    #: actually shares boundary links.
    channel_count: int = 0
    #: The run's :meth:`Supervisor.report` — heartbeat/hang telemetry
    #: for ``status --json`` and the ``dist.supervisor.*`` gauges.
    supervision: Optional[Dict[str, Any]] = None

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def profiled(self) -> bool:
        """True when workers carried phase profiles back."""
        return any(w.profile is not None for w in self.workers)

    @property
    def num_workers(self) -> int:
        return self.plan.num_workers

    @property
    def rounds_per_exchange(self) -> int:
        """Local rounds between boundary exchanges (>= 1)."""
        round_quantum = self.round_quantum or self.quantum
        return max(1, round_quantum // self.quantum)

    @property
    def exchange_rounds(self) -> int:
        """Boundary exchanges actually performed (messages per channel)."""
        skipped = self.workers[0].exchanges_skipped if self.workers else 0
        return self.rounds // self.rounds_per_exchange - skipped

    def measured_rate_mhz(self) -> float:
        """Achieved simulation rate as actually observed on this host."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles / self.wall_seconds / 1e6

    def measured_critical_path_mhz(self) -> float:
        """Rate implied by the busiest worker's CPU seconds.

        On hosts with fewer cores than workers the wall clock
        serializes the workers, so ``measured_rate_mhz`` measures the
        host, not the partitioning.  Blocking recv waits burn ~no CPU,
        so the max per-worker ``process_time`` is the run's critical
        path — what the same run achieves with a core per worker, which
        is the deployment the paper's scale-out claim is about.
        """
        if not self.workers:
            return 0.0
        busiest = max(w.cpu_seconds for w in self.workers)
        if busiest <= 0.0:
            return 0.0
        return self.cycles / busiest / 1e6

    def per_worker_rate_mhz(self) -> Dict[int, float]:
        return {w.worker_id: w.rate_mhz() for w in self.workers}

    def measured_transport_seconds(self) -> Dict[str, float]:
        """Host seconds all workers spent in channel calls (measured runs).

        ``send`` covers serialize + publish, ``recv`` covers wait +
        decode; ``per_round`` is the mean of their sum over workers and
        rounds.
        """
        send = sum(w.transport_send_seconds for w in self.workers)
        recv = sum(w.transport_recv_seconds for w in self.workers)
        per_round = 0.0
        if self.rounds and self.workers:
            per_round = (send + recv) / self.rounds / len(self.workers)
        return {"send": send, "recv": recv, "per_round": per_round}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary for ``status`` output and benchmarks."""
        out: Dict[str, Any] = {
            "num_workers": self.num_workers,
            "quantum": self.quantum,
            "round_quantum": self.round_quantum or self.quantum,
            "rounds_per_exchange": self.rounds_per_exchange,
            "exchange_rounds": self.exchange_rounds,
            "cycles": self.cycles,
            "rounds": self.rounds,
            "boundary_links": self.boundary_link_count,
            "profiled": self.profiled,
            "channels": self.channel_count,
            "transport_seconds": self.measured_transport_seconds(),
            "wall_seconds": self.wall_seconds,
            "measured_rate_mhz": self.measured_rate_mhz(),
            "measured_critical_path_mhz": self.measured_critical_path_mhz(),
            "worker_cpu_seconds_max": max(
                (w.cpu_seconds for w in self.workers), default=0.0
            ),
            "per_worker_rate_mhz": {
                str(worker): rate
                for worker, rate in sorted(self.per_worker_rate_mhz().items())
            },
        }
        if self.supervision is not None:
            out["supervision"] = self.supervision
        return out


def _directed_pairs(
    plan: PartitionPlan, simulation: Simulation
) -> List[Tuple[int, int]]:
    """Directed worker pairs that share at least one boundary link.

    Channels are only built for these — a pair with zero links would
    open a pipe that no round ever touches.
    """
    pairs = set()
    for boundary in plan.boundaries(simulation):
        pairs.add((boundary.worker_a, boundary.worker_b))
        pairs.add((boundary.worker_b, boundary.worker_a))
    return sorted(pairs)


_Failure = Tuple[int, Optional[int], str, str, Optional[str]]


def _silent_death(worker_id: int, exitcode: int) -> _Failure:
    """The failure of a worker that exited before reporting anything."""
    if exitcode:
        detail = f"worker process exited with code {exitcode} before reporting"
    else:
        detail = "worker process exited cleanly without reporting a result"
    return (worker_id, None, detail, "WorkerCrash", None)


def _peer_death(
    failure: _Failure,
    channels: List[PipeChannel],
    processes: Dict[int, Any],
    results: Dict[int, WorkerResult],
) -> _Failure:
    """Blame a channel starvation report on the peer if it died.

    A failing worker's report reaches the parent before its pipes
    close, so a starvation report naming a channel whose other end has
    exited means that peer died without reporting: its death is the
    failure.  The report stands while the peer lives (a stall).
    """
    worker_id, _, _, kind_name, target = failure
    if kind_name != "TokenStarvationError":
        return failure
    for channel in channels:
        if channel.name != target:
            continue
        peer = channel.dst if channel.src == worker_id else channel.src
        if peer not in results:
            process = processes[peer]
            process.join(_RESULT_GRACE_S)
            if process.exitcode is not None:
                return _silent_death(peer, process.exitcode)
    return failure


def _merge_results(
    simulation: Simulation,
    plan: PartitionPlan,
    results: Dict[int, WorkerResult],
) -> None:
    """Fold every worker's shard-local counters back onto parent objects."""
    by_key = {
        simulation.partition_key(model): model for model in simulation.models
    }
    links = simulation.links
    for worker_id in sorted(results):
        result = results[worker_id]
        for name, stats in result.switch_stats.items():
            by_key[name].stats = stats
        for name, stores in result.blade_results.items():
            kernel_results = by_key[name].kernel.results
            kernel_results.clear()
            kernel_results.update(stores)
        for name, records in result.tracer_records.items():
            tracer = by_key[name]
            tracer.records[:] = records
        for index, (a_to_b, b_to_a) in result.link_flits.items():
            if a_to_b is not None:
                links[index].flits_a_to_b = a_to_b
            if b_to_a is not None:
                links[index].flits_b_to_a = b_to_a


def run_distributed(
    simulation: Simulation,
    plan: PartitionPlan,
    target_cycle: int,
    *,
    measure: bool = False,
    transport: str = "shm",
    round_quantum: Optional[int] = None,
    profile: Optional[Any] = None,
    supervision: Optional[SupervisorConfig] = None,
    transport_timeout_s: float = DEFAULT_TRANSPORT_TIMEOUT_S,
    stats: Optional[Any] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> DistributedRunResult:
    """Advance ``simulation`` to ``target_cycle`` across forked workers.

    Bit-identical to ``simulation.run_until(target_cycle)`` in cycle
    timestamps, switch counters, and blade results (see
    ``tests/test_dist.py`` for the enforced equivalence).  Fault hooks
    armed on the simulation before the call are inherited by every
    worker; a hook that fires in a worker kills that worker and
    surfaces here as :class:`~repro.faults.plan.WorkerCrash`.

    Boundary tokens cross process boundaries over one
    :class:`~repro.dist.shm.PipeChannel` per directed worker pair;
    ``transport`` is accepted for compatibility and must be ``"shm"``.
    Every pre-fork allocation — channels, heartbeat block, result
    queue — happens inside the ``try`` whose ``finally`` closes every
    pipe end, reaps the workers and unlinks the heartbeat block, so
    normal completion, worker crashes, checkpoint-restore reruns and a
    failed allocation all leave no descriptor or ``/dev/shm`` entry
    behind.  When ``os.pipe`` fails the ``OSError`` is raised; the
    manager then finishes on the serial engine.

    ``round_quantum`` sets how many cycles pass between boundary token
    exchanges.  ``None`` (default) derives it adaptively: the largest
    multiple of the simulation quantum that fits under the partition's
    boundary-latency floor (paper Fig 9 — simulation rate grows with
    token batch size, and link priming makes any exchange window up to
    the link latency bit-exact).  An explicit value must be a positive
    multiple of the quantum no larger than that floor.

    ``profile`` enables the distributed round-phase profiler: pass a
    :class:`~repro.obs.prof.ProfileConfig` (or ``True`` for defaults)
    and every worker records per-round phase timings into a
    preallocated ring, anchored to a parent clock epoch stamped just
    before the forks; the shipped
    :class:`~repro.obs.prof.WorkerProfile` objects land on each
    ``WorkerResult.profile`` for
    :class:`~repro.obs.prof.PhaseReport` aggregation.

    ``supervision`` configures the liveness supervisor (defaults to an
    enabled :class:`~repro.dist.supervisor.SupervisorConfig`): workers
    heartbeat into a pre-fork shared control block and a worker with
    zero progress past the adaptive deadline is killed and raised as
    :class:`~repro.faults.plan.WorkerHang`.  ``transport_timeout_s``
    bounds how long a channel waits for peer progress.  ``stats`` is an optional
    :class:`~repro.faults.plan.ResilienceStats` that collects hang /
    kill / join-timeout counters.

    ``should_abort`` is the cooperative-stop seam for long-lived
    callers (the :mod:`repro.serve` job server's preemption and cancel
    paths): it is polled once per liveness sweep (~every
    ``_POLL_INTERVAL_S``) and a truthy return tears the workers down
    through the normal cleanup path — pipes closed, processes
    reaped — and raises :class:`RunAborted` without merging any worker
    state into the parent simulation.

    Requires a platform with the ``fork`` start method (Linux): workers
    must inherit the elaborated simulation by memory image, because
    model closures (workload jobs) are not picklable.
    """
    if transport != "shm":
        raise ConfigError(
            f"unknown transport {transport!r}; 'shm' is the only one"
        )
    if transport_timeout_s <= 0:
        raise ConfigError(
            f"transport_timeout_s must be positive, got {transport_timeout_s}"
        )
    if profile is True:
        profile = ProfileConfig()
    if supervision is None:
        supervision = SupervisorConfig()
    plan.validate_against(simulation)
    simulation.start()
    quantum = simulation.quantum
    latency_floor = plan.boundary_latency_floor(simulation)
    if round_quantum is None:
        round_quantum = exchange_quantum(latency_floor, quantum)
    else:
        if round_quantum < quantum or round_quantum % quantum != 0:
            raise ConfigError(
                f"round_quantum must be a positive multiple of the "
                f"simulation quantum ({quantum}), got {round_quantum}"
            )
        if latency_floor is not None and round_quantum > latency_floor:
            raise ConfigError(
                f"round_quantum {round_quantum} exceeds the partition's "
                f"boundary link-latency floor ({latency_floor} cycles); "
                f"workers would outrun the primed token window"
            )
    start_cycle = simulation.current_cycle
    if target_cycle <= start_cycle:
        return DistributedRunResult(
            plan=plan,
            quantum=quantum,
            start_cycle=start_cycle,
            end_cycle=start_cycle,
            rounds=0,
            wall_seconds=0.0,
            boundary_link_count=len(plan.boundaries(simulation)),
            round_quantum=round_quantum,
        )

    context = multiprocessing.get_context("fork")
    channels: List[PipeChannel] = []
    heartbeats: Optional[HeartbeatBlock] = None
    processes: Dict[int, Any] = {}
    results: Dict[int, WorkerResult] = {}
    # failure = (worker_id, at_cycle, detail, exception_name, target)
    failure: Optional[_Failure] = None
    # Workers seen dead with exit code 0 but no result yet, and when:
    # the result may still be draining out of the queue's feeder pipe,
    # so they get _RESULT_GRACE_S before being declared failed.
    dead_ok_since: Dict[int, float] = {}
    aborted = False
    try:
        for src, dst in _directed_pairs(plan, simulation):
            channels.append(PipeChannel(src, dst, transport_timeout_s))
        if supervision.enabled:
            try:
                heartbeats = HeartbeatBlock.create(plan.num_workers)
            except OSError:
                # No usable POSIX shared memory: supervision degrades to
                # crash-only detection; the report records it disabled.
                heartbeats = None
        result_queue = context.Queue()
        shard_context = ShardContext(
            simulation=simulation,
            plan=plan,
            target_cycle=target_cycle,
            quantum=quantum,
            measure=measure,
            channels={
                (channel.src, channel.dst): channel for channel in channels
            },
            result_queue=result_queue,
            round_quantum=round_quantum,
            profile=profile,
            heartbeats=heartbeats,
        )
        supervisor = Supervisor(
            heartbeats, plan.num_workers, supervision, stats=stats
        )

        wall_start = perf_counter()
        # Clock-sync epoch: the parent's monotonic reading just before
        # the forks.  Every worker's ClockSync anchors to this one
        # stamp, so merged trace timestamps share a timeline.
        shard_context.epoch_s = wall_start
        for worker_id in range(plan.num_workers):
            process = context.Process(
                target=shard_entry,
                args=(shard_context, worker_id),
                name=f"repro-dist-w{worker_id}",
            )
            process.start()
            processes[worker_id] = process
        # Each worker holds the ends it uses.  Once the parent's copies
        # are gone too, a worker that dies reaches its peers as
        # end-of-file on their read ends.
        for channel in channels:
            channel.close()

        while len(results) < plan.num_workers and failure is None:
            try:
                message = result_queue.get(timeout=_POLL_INTERVAL_S)
            except Empty:
                if should_abort is not None and should_abort():
                    aborted = True
                    break
                verdict = supervisor.poll(set(results))
                if verdict is not None:
                    supervisor.kill(processes[verdict.worker_id])
                    failure = (
                        verdict.worker_id,
                        None,
                        f"worker {verdict.worker_id} {verdict.describe()}",
                        "WorkerHang",
                        None,
                    )
                    break
                now = perf_counter()
                for worker_id, process in processes.items():
                    if worker_id in results or process.is_alive():
                        continue
                    if process.exitcode not in (0, None):
                        failure = _silent_death(worker_id, process.exitcode)
                        break
                    # Exit code 0 without a result: give the queue
                    # feeder a grace window to flush, then treat it as
                    # dead — the old `exitcode not in (0, None)` test
                    # excluded 0 and spun on such a worker forever.
                    since = dead_ok_since.setdefault(worker_id, now)
                    if now - since > _RESULT_GRACE_S:
                        failure = _silent_death(worker_id, 0)
                        break
                continue
            if message[0] == "ok":
                _, worker_id, result = message
                results[worker_id] = result
            else:
                _, worker_id, at_cycle, detail, kind_name, target = message
                failure = _peer_death(
                    (worker_id, at_cycle, detail, kind_name, target),
                    channels, processes, results,
                )
        supervisor.settle()  # workers beat their last before reporting
    finally:
        if failure is not None or aborted:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()
        for process in processes.values():
            process.join(timeout=_JOIN_TIMEOUT_S)
            if process.is_alive():
                # Join-timeout escalation: a worker that survives
                # SIGTERM through the whole grace is SIGKILLed and
                # reaped — leaving it behind would leak a process per
                # restore.
                process.kill()
                process.join()
                if stats is not None:
                    stats.join_timeouts += 1
                    stats.workers_killed += 1
            process.close()  # its sentinel pipe
        # The one teardown path for pipe ends and the heartbeat block:
        # normal exit, worker crash, a failed pre-fork allocation, and
        # the manager's checkpoint-restore rerun all come through here,
        # so neither descriptors nor /dev/shm entries accumulate.
        for channel in channels:
            channel.close()
        if heartbeats is not None:
            heartbeats.destroy()

    if aborted:
        raise RunAborted(
            f"distributed run aborted by caller at cycle {start_cycle} "
            f"start (workers torn down, no state merged)"
        )

    if failure is not None:
        worker_id, at_cycle, detail, kind_name, target = failure
        if kind_name == "RingCorruption":
            raise RingCorruption(
                f"distributed worker {worker_id} hit transport "
                f"corruption: {detail}",
                ring=target if target else "ring:?",
                at_cycle=at_cycle,
            )
        if kind_name == "WorkerHang":
            raise WorkerHang(
                f"distributed worker {worker_id} hung: {detail}",
                worker_index=worker_id,
                at_cycle=at_cycle,
            )
        raise WorkerCrash(
            f"distributed worker {worker_id} died: {detail}",
            worker_index=worker_id,
            at_cycle=at_cycle,
        )

    wall_seconds = perf_counter() - wall_start
    _merge_results(simulation, plan, results)
    ordered = [results[worker_id] for worker_id in sorted(results)]
    rounds = ordered[0].rounds
    end_cycle = ordered[0].end_cycle
    simulation.current_cycle = end_cycle
    simulation.stats.rounds += rounds
    simulation.stats.cycles += end_cycle - start_cycle
    simulation.stats.tokens_moved += sum(w.tokens_moved for w in ordered)
    simulation.stats.valid_tokens_moved += sum(
        w.valid_tokens_moved for w in ordered
    )
    return DistributedRunResult(
        plan=plan,
        quantum=quantum,
        start_cycle=start_cycle,
        end_cycle=end_cycle,
        rounds=rounds,
        wall_seconds=wall_seconds,
        workers=ordered,
        boundary_link_count=len(plan.boundaries(simulation)),
        round_quantum=round_quantum,
        channel_count=len(channels),
        supervision=supervisor.report(),
    )
