"""One shard's execution loop inside a worker process.

Each worker owns a contiguous shard of the model graph and runs the
*same* round loop as the serial orchestrator — whichever body
:func:`repro.core.simulation.round_loop` selects for the simulation's
engine — over its shard: pop one quantum-sized window per input port,
tick every shard model in global registration order, push one window
per output port.  The only difference is where boundary tokens go —
interior links use the local queues, boundary links hand relabelled
batches to per-peer outboxes that drain into that peer's
:class:`~repro.dist.shm.PipeChannel` — and that difference lives entirely
in the attachments and the one exchange step :func:`run_shard` hands
the loop.

Synchronization is pure token exchange, exactly the paper's argument
(Section III-B2), batched into *exchange rounds*: the run driver
derives a ``round_quantum`` from the partition's boundary-latency
floor (paper Fig 9: rate grows with batch size), and workers exchange
one coalesced message per peer per ``round_quantum // quantum`` local
rounds.  At the start of exchange ``e > 0`` the step posts this
worker's exchange ``e - 1`` boundary output to every peer, then drains
one message per peer (the peer's exchange ``e - 1`` output).  Link
priming guarantees the whole first exchange needs nothing — the primed
window is at least ``round_quantum`` deep — and from then on each
exchange extends every boundary queue by at least one round quantum,
so no worker can ever run ahead of a peer by more than the in-flight
token window — lockstep without any clock, barrier, or coordinator.
Between exchanges the shard runs the round loop's active set, so a
worker costs what its traffic costs; only windows that carry tokens
cross the wire, and idle time is a cursor on the receiver, not a queue
of empty windows.

Idle exchanges are skipped together (conservative PDES with null
messages): each frame carries its sender's *wake*, the earliest cycle
its shard can move a token.  Exchanges up to the last one at or below
the minimum over every shard carry nothing, so all shards skip them
and move their boundary push cursors to match.  That needs every shard to
hear every wake; without a channel between every pair, none jumps.

Receives are *lazy*: a non-blocking sweep first collects every peer
message that already arrived, and only then does the worker wait on
the stragglers — flushing the tails of its own frames that did not fit
a pipe while it waits — so ``recv_wait`` measures true skew rather
than delivery order.

Workers are forked, so they inherit the fully elaborated simulation
(models, primed links, armed fault hooks) by memory image; nothing is
pickled on the way in.  Only token batches and the final
:class:`WorkerResult` cross process boundaries.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.channel import TokenStarvationError
from repro.core.simulation import (
    RoundProgress,
    Simulation,
    _Attachment,
    round_loop,
    starvation_diagnostic,
)
from repro.dist.partition import PartitionPlan
from repro.dist.remote_link import Outbox, RemoteAttachment, WireEntry, deliver
from repro.dist.shm import PipeChannel, finish_exchange
from repro.dist.supervisor import (
    HB_COMPUTE,
    HB_DONE,
    HB_RECV,
    HB_SEND,
    HB_STARTUP,
)
from repro.net.switch import SwitchModel
from repro.net.tracer import LinkTracer
from repro.obs.prof import (
    P_COMPUTE,
    P_GAP,
    P_RECV_WAIT,
    P_SEND,
    ClockSync,
    PhaseRecorder,
    ProbeRecorder,
    WorkerProfile,
)
from repro.obs.trace import set_trace_sink
from repro.swmodel.server import ServerBlade

# Worker-process identity, published for the fault injector's
# transport chaos verbs (worker-hang / ring-corrupt):
# the injector hook runs deep inside the inherited simulation and has
# no handle on the shard context, so :func:`shard_entry` and
# :func:`run_shard` park the id and the outbound channel map here.
# Both stay None/{} in the parent and in serial runs.
_WORKER_ID: Optional[int] = None
_SEND_CHANNELS: Dict[int, PipeChannel] = {}


@dataclass
class WorkerResult:
    """Everything a worker ships back after finishing its shard."""

    worker_id: int
    start_cycle: int
    end_cycle: int
    rounds: int
    tokens_moved: int
    valid_tokens_moved: int
    wall_seconds: float
    #: Exchanges skipped because every shard's wake lay past them.
    exchanges_skipped: int = 0
    model_names: List[str] = field(default_factory=list)
    #: Host seconds per model tick (populated when measuring).
    model_host_seconds: Dict[str, float] = field(default_factory=dict)
    #: Final counters per switch owned by this shard.
    switch_stats: Dict[str, Any] = field(default_factory=dict)
    switch_queued: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Final result stores per blade owned by this shard.
    blade_results: Dict[str, Dict[str, list]] = field(default_factory=dict)
    #: Packet records per tracer owned by this shard.
    tracer_records: Dict[str, list] = field(default_factory=dict)
    #: Per-direction flit counters for links whose producer side is
    #: local: ``link_index -> (flits_a_to_b | None, flits_b_to_a | None)``.
    link_flits: Dict[int, Tuple[Optional[int], Optional[int]]] = field(
        default_factory=dict
    )
    #: Host seconds this worker spent inside channel calls (populated when
    #: measuring): ``send`` covers serialize + write, ``recv`` covers
    #: wait + decode.  Together with the round count these give the
    #: per-round transport overhead the benches report.
    transport_send_seconds: float = 0.0
    transport_recv_seconds: float = 0.0
    #: CPU seconds the round loop burned (``time.process_time`` around
    #: the loop).  Blocking recv waits cost ~no CPU, so this isolates
    #: the cycles the worker actually executed from lockstep wait
    #: time; the profiler-overhead bench ships it alongside the
    #: wall-based gate ratio as a diagnostic.
    cpu_seconds: float = 0.0
    #: Per-round phase attribution (a
    #: :class:`~repro.obs.prof.WorkerProfile`), populated only when the
    #: run driver requested profiling.
    profile: Optional[Any] = None

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def rate_mhz(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles / self.wall_seconds / 1e6


@dataclass
class ShardContext:
    """Everything a forked worker needs, inherited by memory image."""

    simulation: Simulation
    plan: PartitionPlan
    target_cycle: int
    quantum: int
    measure: bool
    #: channels[(src, dst)] carries src's boundary output toward dst.
    channels: Dict[Tuple[int, int], PipeChannel]
    result_queue: Any
    #: Cycles between boundary token exchanges — a multiple of
    #: ``quantum`` no larger than the partition's boundary-latency
    #: floor, derived by the run driver.
    round_quantum: int
    #: A :class:`~repro.obs.prof.ProfileConfig` to enable the per-round
    #: phase profiler, or None (default) for the uninstrumented loop.
    profile: Optional[Any] = None
    #: Parent ``perf_counter`` stamped just before forking — the shared
    #: epoch every worker's :class:`~repro.obs.prof.ClockSync` anchors
    #: its trace timestamps to.
    epoch_s: float = 0.0
    #: A :class:`~repro.dist.supervisor.HeartbeatBlock` created by the
    #: parent pre-fork, or None when supervision is disabled (or the
    #: host has no usable POSIX shared memory).  Workers publish beats
    #: into their slot at every exchange (entering send, recv and
    #: compute).
    heartbeats: Optional[Any] = None


def _build_attachments(
    simulation: Simulation, plan: PartitionPlan, worker_id: int
) -> Tuple[Dict[Tuple[int, str], Any], Dict[int, Outbox], Dict[int, str]]:
    """Attachment table for one shard.

    Returns ``(attachments, outboxes, inbound_side)`` where
    ``attachments`` maps ``(id(model), port)`` to an attachment object,
    ``outboxes`` maps peer worker -> outgoing wire-entry holder, and
    ``inbound_side`` maps boundary link index -> the side ("a"/"b")
    whose consuming queue lives in this worker.
    """
    attachments: Dict[Tuple[int, str], Any] = {}
    outboxes: Dict[int, Outbox] = {}
    inbound_side: Dict[int, str] = {}
    for index, (link, (model_a, port_a), (model_b, port_b)) in enumerate(
        simulation.link_attachments()
    ):
        worker_of_a = plan.partition_of(simulation.partition_key(model_a))
        worker_of_b = plan.partition_of(simulation.partition_key(model_b))
        if worker_of_a == worker_of_b:
            if worker_of_a == worker_id:
                attachments[(id(model_a), port_a)] = _Attachment(link, "a")
                attachments[(id(model_b), port_b)] = _Attachment(link, "b")
            continue
        if worker_of_a == worker_id:
            outbox = outboxes.get(worker_of_b)
            if outbox is None:
                outbox = outboxes[worker_of_b] = Outbox()
            attachments[(id(model_a), port_a)] = RemoteAttachment(
                link, "a", index, outbox
            )
            inbound_side[index] = "a"
        elif worker_of_b == worker_id:
            outbox = outboxes.get(worker_of_a)
            if outbox is None:
                outbox = outboxes[worker_of_a] = Outbox()
            attachments[(id(model_b), port_b)] = RemoteAttachment(
                link, "b", index, outbox
            )
            inbound_side[index] = "b"
    return attachments, outboxes, inbound_side


def _consumer_endpoints(
    simulation: Simulation, inbound_side: Dict[int, str]
) -> Dict[int, Tuple[Any, int]]:
    """Boundary link index -> the local consuming endpoint and latency.

    Precomputed once so the drain delivers received windows with a
    dict lookup instead of re-deriving link and side every time.
    """
    links = simulation.links
    return {
        index: (
            links[index].to_a if side == "a" else links[index].to_b,
            links[index].latency,
        )
        for index, side in inbound_side.items()
    }


def _deliver_message(
    entries: List[WireEntry],
    cycle: int,
    endpoints: Dict[int, Tuple[Any, int]],
    recorder: Optional[PhaseRecorder],
) -> None:
    """Push one peer message's windows into the local consuming queues."""
    if recorder is not None:
        recorder.mark(P_RECV_WAIT)
    for link_index, window in entries:
        endpoint, latency = endpoints[link_index]
        deliver(endpoint, window, cycle + latency)
    if recorder is not None:
        recorder.mark(P_GAP)


def _collect_result(
    context: ShardContext,
    worker_id: int,
    shard: List[Any],
    progress: RoundProgress,
    start_cycle: int,
    wall_seconds: float,
    cpu_seconds: float,
    transport_seconds: List[float],
) -> WorkerResult:
    simulation = context.simulation
    plan = context.plan
    result = WorkerResult(
        worker_id=worker_id,
        start_cycle=start_cycle,
        end_cycle=progress.cycle,
        rounds=progress.rounds,
        tokens_moved=progress.tokens_moved,
        valid_tokens_moved=progress.valid_tokens_moved,
        wall_seconds=wall_seconds,
        model_names=[model.name for model in shard],
        model_host_seconds=progress.model_host_seconds,
        transport_send_seconds=transport_seconds[0],
        transport_recv_seconds=transport_seconds[1],
        cpu_seconds=cpu_seconds,
    )
    for model in shard:
        if isinstance(model, SwitchModel):
            result.switch_stats[model.name] = model.stats
            result.switch_queued[model.name] = (
                model.queued_packets(),
                model.queued_bytes(),
            )
        elif isinstance(model, LinkTracer):
            result.tracer_records[model.name] = list(model.records)
        elif isinstance(model, ServerBlade):
            result.blade_results[model.name] = {
                key: list(values) for key, values in model.results.items()
            }
    # Flit counters: a worker is authoritative for the directions it
    # produced.  Interior links: both directions.  Boundary links: only
    # the direction leaving the locally owned side.
    for index, (link, (model_a, _), (model_b, _)) in enumerate(
        simulation.link_attachments()
    ):
        worker_of_a = plan.partition_of(simulation.partition_key(model_a))
        worker_of_b = plan.partition_of(simulation.partition_key(model_b))
        if worker_of_a == worker_of_b == worker_id:
            result.link_flits[index] = (link.flits_a_to_b, link.flits_b_to_a)
        elif worker_of_a == worker_id and worker_of_b != worker_id:
            result.link_flits[index] = (link.flits_a_to_b, None)
        elif worker_of_b == worker_id and worker_of_a != worker_id:
            result.link_flits[index] = (None, link.flits_b_to_a)
    return result


def _setup_profile(
    context: ShardContext,
    entry_s: float,
    send_channels: Dict[int, PipeChannel],
) -> Tuple[Optional[PhaseRecorder], Optional[ClockSync]]:
    """Build the phase recorder + clock sync for a profiled run.

    Returns ``(None, None)`` on unprofiled runs so every instrumentation
    site below stays behind one ``is not None`` check.  Outgoing
    channels get the recorder as their ``phase_sink`` so their staging loop
    shows up as ``serialize`` instead of vanishing into ``send``.
    """
    config = context.profile
    if config is None:
        return None, None
    clock = ClockSync(epoch_s=context.epoch_s, entry_s=entry_s)
    if config.overhead_probe:
        recorder: PhaseRecorder = ProbeRecorder(
            config.ring_capacity, sleep_s=config.probe_sleep_s
        )
    else:
        recorder = PhaseRecorder(config.ring_capacity)
    for channel in send_channels.values():
        channel.phase_sink = recorder
    return recorder, clock


def _collect_profile(
    recorder: PhaseRecorder,
    clock: ClockSync,
    worker_id: int,
    peers: List[int],
    send_channels: Dict[int, PipeChannel],
    recv_channels: Dict[int, PipeChannel],
    outboxes: Dict[int, Outbox],
) -> WorkerProfile:
    """Package this worker's recorder + transport counters for shipping.

    A worker is authoritative for the directions it drove: the send
    side of its outgoing channels and the receive side of its incoming
    ones (channel counters are per-process ints, so each fork's copy
    holds exactly that half).
    """
    channel_counters: Dict[str, Dict[str, Any]] = {}
    for peer in peers:
        channel_counters[f"{worker_id}->{peer}"] = dict(
            send_channels[peer].counters(), role="send"
        )
        channel_counters[f"{peer}->{worker_id}"] = dict(
            recv_channels[peer].counters(), role="recv"
        )
    outbox_stats = {
        peer: {
            "total_entries": outbox.total_entries,
            "peak_entries": outbox.peak_entries,
        }
        for peer, outbox in outboxes.items()
    }
    return WorkerProfile.from_recorder(
        worker_id, recorder, clock, channel_counters, outbox_stats
    )


def run_shard(context: ShardContext, worker_id: int) -> WorkerResult:
    """Execute one worker's shard to the target cycle; returns its result.

    The lockstep is expressed once, as the round loop's exchange step,
    and runs under whichever loop ``simulation.engine`` names.  At the
    start of every exchange after the first the step posts each peer's
    coalesced outbox with this shard's wake, drains one message per
    peer (lazily — already-arrived messages first), moves each boundary
    endpoint's push cursor through the exchanges every shard skips
    (idle time is a cursor, not a queue of empty windows), beats the
    heartbeat and closes one profiler row and opens the next, so a row
    or a beat is an exchange performed.
    Boundary windows leave through the shard's
    :class:`~repro.dist.remote_link.RemoteAttachment` objects in the
    producing loop's own representation; the peer's delivery pushes
    them unchanged.  ``simulation.fault_hook`` is the loop's plain
    ``hook``.
    """
    global _SEND_CHANNELS
    entry_s = perf_counter()  # clock-sync stamp: first post-fork reading
    simulation = context.simulation
    plan = context.plan
    quantum = context.quantum
    measure = context.measure
    shard = plan.models_for(simulation, worker_id)
    attachments, outboxes, inbound_side = _build_attachments(
        simulation, plan, worker_id
    )
    peers = sorted(outboxes)
    recv_channels = {
        peer: context.channels[(peer, worker_id)] for peer in peers
    }
    send_channels = {
        peer: context.channels[(worker_id, peer)] for peer in peers
    }
    _SEND_CHANNELS = send_channels
    heartbeats = context.heartbeats
    beat = (
        heartbeats.writer(worker_id).beat if heartbeats is not None else None
    )
    if beat is not None:
        beat(0, HB_STARTUP)
    recorder, clock = _setup_profile(context, entry_s, send_channels)
    period = context.round_quantum // quantum
    endpoints = _consumer_endpoints(simulation, inbound_side)
    recv_list = [recv_channels[peer] for peer in peers]
    send_list = [send_channels[peer] for peer in peers]
    sends = [(send_channels[peer], outboxes[peer]) for peer in peers]
    # [send_seconds, recv_seconds], mutated by the exchange step.
    transport_seconds = [0.0, 0.0]
    start_cycle = simulation.current_cycle
    stride = context.round_quantum
    # A jump stops at the last exchange before the target, so the run
    # ends with the boundary queues a stop at every exchange leaves.
    last_exchange = start_cycle + (
        (context.target_cycle - 1 - start_cycle) // stride * stride
    )
    # Shards hear only their peers' wakes, and all must jump alike: a
    # shard without a channel to every other promises nothing.
    promise = len(peers) == plan.num_workers - 1
    skipped = [0]

    def step(cycle: int, rounds: int, wake: int) -> int:
        tag = rounds // period - 1
        if recorder is not None:
            # Everything since the last mark is the loop's ticking.
            recorder.mark(P_COMPUTE)
        if beat is not None:
            beat(rounds, HB_SEND)
        send_start = perf_counter() if measure else 0.0
        if promise:
            # A shipped window wakes its consumer where it lands.
            for _, outbox in sends:
                for _, window in outbox.entries:
                    if window.start_cycle < wake:
                        wake = window.start_cycle
        else:
            wake = cycle
        for channel, outbox in sends:
            channel.send(tag, outbox.drain(), wake)
        if measure:
            recv_start = perf_counter()
            transport_seconds[0] += recv_start - send_start
        if recorder is not None:
            recorder.mark(P_SEND)
        if beat is not None:
            beat(rounds, HB_RECV)
        # Each peer's frame as it completes, already-arrived ones
        # first; this worker's unsent tails drain meanwhile.
        for channel, entries in finish_exchange(
            recv_list, send_list, tag, cycle
        ):
            _deliver_message(entries, cycle, endpoints, recorder)
            wake = min(wake, channel.peer_wake)
        # No shard moves a token before ``wake``: every exchange up to
        # the last one at or below it would carry nothing.
        until = max(cycle, min(
            start_cycle + (wake - start_cycle) // stride * stride,
            last_exchange,
        ))
        skipped[0] += (until - cycle) // stride
        for endpoint, latency in endpoints.values():
            # The newest window the peer's rounds covered, shipped or not.
            endpoint._tail_at = until + latency - quantum
            endpoint._pushed_until = until + latency
        if recorder is not None:
            recorder.mark(P_GAP)
        if measure:
            transport_seconds[1] += perf_counter() - recv_start
        if recorder is not None:
            recorder.round_end()
            recorder.round_begin()
        if beat is not None:
            beat(rounds, HB_COMPUTE)
        return until + stride

    def diagnose(model: Any, cycle: int) -> TokenStarvationError:
        return starvation_diagnostic(
            model, attachments, quantum, cycle, f"worker {worker_id}"
        )

    progress = RoundProgress(start_cycle)
    if beat is not None:
        beat(0, HB_COMPUTE)
    if recorder is not None:
        recorder.round_begin()
    wall_start = perf_counter()
    cpu_start = process_time()
    round_loop(simulation.engine)(
        shard,
        attachments,
        quantum,
        start_cycle,
        context.target_cycle,
        progress,
        hook=simulation.fault_hook,
        measure=measure,
        exchange=(period, step),
        diagnose=diagnose,
    )
    if recorder is not None:
        recorder.mark(P_COMPUTE)
        recorder.round_end()
    if beat is not None:
        beat(progress.rounds, HB_DONE)
    cpu_seconds = process_time() - cpu_start
    wall_seconds = perf_counter() - wall_start
    result = _collect_result(
        context, worker_id, shard, progress, start_cycle, wall_seconds,
        cpu_seconds, transport_seconds,
    )
    result.exchanges_skipped = skipped[0]
    if recorder is not None and clock is not None:
        result.profile = _collect_profile(
            recorder, clock, worker_id, peers,
            send_channels, recv_channels, outboxes,
        )
    return result


def _release_channels(context: ShardContext) -> None:
    """Close this process's pipe ends and heartbeat mapping."""
    for channel in context.channels.values():
        channel.close()
    if context.heartbeats is not None:
        context.heartbeats.close()


def shard_entry(context: ShardContext, worker_id: int) -> None:
    """Process entry point: run the shard, ship the result, exit.

    Any failure — an injected :class:`~repro.faults.plan.ControllerCrash`,
    token starvation after transport loss, or a genuine bug — is reported
    on the result queue and turned into a nonzero exit code, which the
    engine surfaces as a :class:`~repro.faults.plan.WorkerCrash` host
    fault.
    """
    # Worker-local trace events cannot be aggregated into the parent's
    # session; silence the inherited sink rather than buffer them.
    set_trace_sink(None)
    global _WORKER_ID
    _WORKER_ID = worker_id
    for channel in context.channels.values():
        channel.own(worker_id)
    failed = False
    try:
        result = run_shard(context, worker_id)
    except BaseException as exc:  # noqa: BLE001 - report, then die loudly
        # Ship the exception's type and fault target (a channel error
        # names its channel) alongside the message so the parent can
        # re-raise *typed* faults (a RingCorruption must reach the
        # manager's fresh-channel rerun as itself, not flattened into a
        # generic crash) and blame a peer this worker lost.
        context.result_queue.put(
            (
                "error",
                worker_id,
                context.simulation.current_cycle,
                f"{type(exc).__name__}: {exc}",
                type(exc).__name__,
                getattr(exc, "target", None)
                or getattr(exc, "link_name", None),
            )
        )
        failed = True
    else:
        context.result_queue.put(("ok", worker_id, result))
    # The report must reach the parent before this worker's pipes
    # close: a peer then reads end-of-file and reports too, and the
    # parent acts on the first report it gets.
    context.result_queue.close()
    context.result_queue.join_thread()
    _release_channels(context)
    if failed:
        sys.exit(1)
