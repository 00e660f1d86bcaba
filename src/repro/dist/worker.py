"""One shard's execution loop inside a worker process.

Each worker owns a contiguous shard of the model graph and runs the
*same* round loop as the serial orchestrator — whichever body
:func:`repro.core.simulation.round_loop` selects for the simulation's
engine — over its shard: pop one quantum-sized window per input port,
tick every shard model in global registration order, push one window
per output port.  The only difference is where boundary tokens go —
interior links use the local queues, boundary links hand relabelled
batches to per-peer outboxes — and that difference lives entirely in
the attachments and the four hooks :func:`run_shard` hands the loop.

Synchronization is pure token exchange, exactly the paper's argument
(Section III-B2), batched into *exchange rounds*: the run driver
derives a ``round_quantum`` from the partition's boundary-latency
floor (paper Fig 9: rate grows with batch size), and workers exchange
one coalesced message per peer per ``round_quantum // quantum`` local
rounds.  A worker entering exchange ``e > 0`` first drains one message
per peer (the peer's exchange ``e - 1`` boundary output).  Link
priming guarantees the whole first exchange needs nothing — the primed
window is at least ``round_quantum`` deep — and from then on each
received message extends every boundary queue by one round quantum, so
no worker can ever run ahead of a peer by more than the in-flight
token window — lockstep without any clock, barrier, or coordinator.

Two latency hides ride on top of the lockstep (Section III-C's
compute/transport overlap): sends are *eager* — each peer's coalesced
message is posted as soon as the last local model producing toward
that peer has ticked, while the rest of the shard is still computing —
and receives are *lazy*: a non-blocking sweep first collects every
peer message that already arrived, and only then does the worker block
on the stragglers, so ``recv_wait`` measures true skew rather than
delivery order.

Workers are forked, so they inherit the fully elaborated simulation
(models, primed links, armed fault hooks) by memory image; nothing is
pickled on the way in.  Only token batches and the final
:class:`WorkerResult` cross process boundaries.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from queue import Empty
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
from repro.dist.frame import decode_entries, encode_entries
from repro.dist.partition import PartitionPlan
from repro.dist.remote_link import (
    Outbox,
    RemoteAttachment,
    WireEntry,
    deliver,
)
from repro.dist.shm import DEFAULT_TRANSPORT_TIMEOUT_S
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
    P_COALESCE,
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
# transport chaos verbs (worker-hang / ring-corrupt / wakeup-loss):
# the injector hook runs deep inside the inherited simulation and has
# no handle on the shard context, so :func:`shard_entry` and
# :func:`run_shard` park the id and the outbound channel map here.
# Both stay None/{} in the parent and in serial runs.
_WORKER_ID: Optional[int] = None
_SEND_CHANNELS: Dict[int, Any] = {}


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
    #: Workers this shard exchanged tokens with (one message per peer
    #: per round), the boundary links it transmitted on, and the valid
    #: tokens those links actually carried — the inputs to the engine's
    #: per-round transport cost model (batches ship sparse, so payload
    #: scales with valid tokens, not the quantum).
    peer_count: int = 0
    boundary_link_count: int = 0
    boundary_valid_tokens: int = 0
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
    #: Host seconds this worker spent inside transport calls (populated
    #: when measuring): ``send`` covers serialize + enqueue/publish,
    #: ``recv`` covers dequeue/spin + decode.  Together with the round
    #: count these give the per-round transport overhead the benches
    #: report per transport.
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


class PipeChannel:
    """The ``mp.Queue`` transport in the shm ring's send/recv shape.

    ``send`` coalesces the *drained* entry list into one
    :mod:`repro.dist.frame` payload before enqueueing, so the queue's
    feeder thread pickles a single flat buffer instead of walking the
    window object graph — the same wire bytes the shm ring publishes,
    minus the ring's integrity header.  ``recv`` blocks for the peer's
    message with the same progress deadline as
    :meth:`~repro.dist.shm.ShmRing.recv` — a peer that publishes
    nothing for ``timeout_s`` surfaces as token starvation, not a hang
    — and enforces round ordering the same way.  ``recv(..., block=
    False)`` polls: it returns None when no message is waiting, which
    the lazy receive sweep uses to take whichever peers already
    published before blocking on the rest.
    """

    __slots__ = (
        "_queue", "src", "dst", "timeout_s",
        "sent_messages", "recv_messages", "phase_sink",
    )

    def __init__(
        self, queue: Any, src: int, dst: int,
        timeout_s: float = DEFAULT_TRANSPORT_TIMEOUT_S,
    ) -> None:
        self._queue = queue
        self.src = src
        self.dst = dst
        self.timeout_s = timeout_s
        self.sent_messages = 0
        self.recv_messages = 0
        #: Optional phase recorder; when set, the coalescing cost of
        #: each send is accrued as the ``coalesce`` phase (the queue's
        #: pickle + kernel copy stay in ``send``, where they land on
        #: the feeder thread anyway).
        self.phase_sink: Optional[Any] = None

    def send(self, round_tag: int, entries: List[WireEntry]) -> None:
        sink = self.phase_sink
        start = perf_counter() if sink is not None else 0.0
        payload = bytearray()
        entry_count = encode_entries(entries, payload)
        if sink is not None:
            sink.accrue(P_COALESCE, perf_counter() - start)
        self.sent_messages += 1
        self._queue.put((round_tag, entry_count, payload))

    def recv(
        self, expected_round: int, block: bool = True
    ) -> Optional[List[WireEntry]]:
        if block:
            try:
                message = self._queue.get(timeout=self.timeout_s)
            except Empty:
                raise TokenStarvationError(
                    f"pipe channel (worker {self.src} -> {self.dst}) "
                    f"stalled: peer published nothing for "
                    f"{self.timeout_s:.0f}s",
                ) from None
        else:
            try:
                message = self._queue.get_nowait()
            except Empty:
                return None
        round_tag, entry_count, payload = message
        if round_tag != expected_round:
            raise TokenStarvationError(
                f"worker {self.dst}: out-of-order token message from "
                f"worker {self.src}: round {round_tag}, expected "
                f"{expected_round}"
            )
        self.recv_messages += 1
        return decode_entries(payload, entry_count)

    def counters(self) -> Dict[str, int]:
        """Message counts, shaped like :meth:`ShmRing.counters`.

        Pipes pickle on a feeder thread and copy through the kernel, so
        occupancy/backpressure numbers have no pipe equivalent — only
        the message counts are meaningful here.
        """
        return {
            "sent_messages": self.sent_messages,
            "recv_messages": self.recv_messages,
        }


@dataclass
class ShardContext:
    """Everything a forked worker needs, inherited by memory image."""

    simulation: Simulation
    plan: PartitionPlan
    target_cycle: int
    quantum: int
    measure: bool
    #: channels[(src, dst)] carries src's boundary output toward dst —
    #: a :class:`PipeChannel` or a :class:`~repro.dist.shm.ShmRing`,
    #: chosen by the run driver; the round loop is transport-agnostic.
    channels: Dict[Tuple[int, int], Any]
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
    #: into their slot several times per lockstep round.
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
) -> Dict[int, Any]:
    """Boundary link index -> the local consuming endpoint.

    Precomputed once so the drain delivers received windows with a
    dict lookup instead of re-deriving link and side every time.
    """
    links = simulation.links
    return {
        index: links[index].to_a if side == "a" else links[index].to_b
        for index, side in inbound_side.items()
    }


def _drain_exchange(
    recv_list: List[Any],
    exchange_tag: int,
    endpoints: Dict[int, Any],
    recorder: Optional[PhaseRecorder],
) -> None:
    """Collect one message per peer for ``exchange_tag``, lazily.

    First a non-blocking sweep takes every message that already
    arrived (delivery order between peers is irrelevant — each link's
    windows ride one channel), then the stragglers are awaited with
    the blocking path's starvation deadline.  Blocking first on an
    arbitrary peer would charge one peer's skew to every channel;
    this way ``recv_wait`` is the *max* peer skew, not the sum.
    """
    waiting = []
    for channel in recv_list:
        entries = channel.recv(exchange_tag, False)
        if entries is None:
            waiting.append(channel)
            continue
        _deliver_message(entries, endpoints, recorder)
    for channel in waiting:
        _deliver_message(channel.recv(exchange_tag), endpoints, recorder)


def _deliver_message(
    entries: List[WireEntry],
    endpoints: Dict[int, Any],
    recorder: Optional[PhaseRecorder],
) -> None:
    """Push one peer message's windows into the local consuming queues."""
    if recorder is not None:
        recorder.mark(P_RECV_WAIT)
    for link_index, window in entries:
        deliver(endpoints[link_index], window)
    if recorder is not None:
        recorder.mark(P_GAP)


def _flush_plan(
    shard: List[Any],
    attachments: Dict[Tuple[int, str], Any],
    outboxes: Dict[int, Outbox],
    send_channels: Dict[int, Any],
) -> Dict[int, List[Tuple[Any, Outbox]]]:
    """Eager-send schedule: ``id(model)`` -> the peers it completes.

    For each peer, find the *last* model in shard (tick) order with a
    boundary port producing toward that peer.  Once that model has
    ticked on an exchange's final round, the peer's outbox holds the
    full exchange payload, so the coalesced send can be posted while
    the remaining shard models are still computing — the paper's
    compute/transport overlap without threads.  Every peer has such a
    model by construction (its outbox exists because some local
    model's :class:`RemoteAttachment` feeds it), so the round loop
    needs no fallback flush.
    """
    peer_of_outbox = {id(outbox): peer for peer, outbox in outboxes.items()}
    last_producer: Dict[int, int] = {}
    for model in shard:
        for port in model.ports:
            attachment = attachments[(id(model), port)]
            if isinstance(attachment, RemoteAttachment):
                peer = peer_of_outbox[id(attachment._outbox)]
                last_producer[peer] = id(model)
    plan: Dict[int, List[Tuple[Any, Outbox]]] = {}
    for peer, model_id in last_producer.items():
        plan.setdefault(model_id, []).append(
            (send_channels[peer], outboxes[peer])
        )
    return plan


def _collect_result(
    context: ShardContext,
    worker_id: int,
    shard: List[Any],
    attachments: Dict[Tuple[int, str], Any],
    inbound_side: Dict[int, str],
    peer_count: int,
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
        peer_count=peer_count,
        boundary_link_count=len(inbound_side),
        boundary_valid_tokens=sum(
            attachment.sent_valid
            for attachment in attachments.values()
            if isinstance(attachment, RemoteAttachment)
        ),
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
    send_channels: Dict[int, Any],
) -> Tuple[Optional[PhaseRecorder], Optional[ClockSync]]:
    """Build the phase recorder + clock sync for a profiled run.

    Returns ``(None, None)`` on unprofiled runs so every instrumentation
    site below stays behind one ``is not None`` check.  Outgoing shm
    rings get the recorder as their ``phase_sink`` so their staging loop
    shows up as ``serialize`` instead of vanishing into ``send``.
    """
    config = context.profile
    if config is None:
        return None, None
    clock = ClockSync(epoch_s=context.epoch_s, entry_s=entry_s)
    if config.overhead_probe:
        # Alternate in blocks of one exchange period so the periodic
        # drain/flush rounds land equally in both probe populations.
        recorder: PhaseRecorder = ProbeRecorder(
            config.ring_capacity,
            sleep_s=config.probe_sleep_s,
            period=context.round_quantum // context.quantum,
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
    send_channels: Dict[int, Any],
    recv_channels: Dict[int, Any],
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

    The lockstep is expressed once, as the round loop's hooks, and runs
    under whichever loop ``simulation.engine`` names: ``pre_round``
    drains one message per peer on each exchange boundary (lazily —
    already-arrived messages first), and the eager flush rides the
    per-model fault-hook seam: the wrapped ``hook`` posts a peer's
    coalesced send the moment its last producing model has ticked on
    the exchange's final round, while the loop is still ticking the
    rest of the shard.  Boundary windows leave through the shard's
    :class:`~repro.dist.remote_link.RemoteAttachment` objects in the
    producing loop's own representation; the peer's delivery pushes
    them unchanged.

    Heartbeats and phase recording ride the same hooks: ``pre_round``
    opens the row and marks the recv/gap segments, the wrapped hook
    brackets each eager flush as compute-then-send, and ``post_round``
    marks the loop's remaining ticks as compute and closes the row.
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
    rounds_per_exchange = context.round_quantum // quantum
    endpoints = _consumer_endpoints(simulation, inbound_side)
    recv_list = [recv_channels[peer] for peer in peers]
    flush_plan = _flush_plan(shard, attachments, outboxes, send_channels)
    # [send_seconds, recv_seconds], mutated by the round hooks.
    transport_seconds = [0.0, 0.0]
    # [exchange_tag, flushing], set by pre_round for the wrapped hook.
    exchange_state = [0, False]

    def pre_round(cycle: int, rounds: int) -> None:
        if recorder is not None:
            recorder.round_begin()
        if beat is not None:
            beat(rounds, HB_RECV)
        exchange, round_phase = divmod(rounds, rounds_per_exchange)
        exchange_state[0] = exchange
        exchange_state[1] = round_phase == rounds_per_exchange - 1
        if round_phase == 0 and rounds > 0:
            recv_start = perf_counter() if measure else 0.0
            _drain_exchange(recv_list, exchange - 1, endpoints, recorder)
            if measure:
                transport_seconds[1] += perf_counter() - recv_start
        if beat is not None:
            beat(rounds, HB_COMPUTE)

    base_hook = simulation.fault_hook

    def hook(cycle: int, model: Optional[Any]) -> None:
        if base_hook is not None:
            base_hook(cycle, model)
        if model is None or not exchange_state[1]:
            return
        flushes = flush_plan.get(id(model))
        if flushes is None:
            return
        # Eager flush: this model was the last producer toward these
        # peers, so their exchange payload is complete — post it while
        # the rest of the shard computes.
        if recorder is not None:
            recorder.mark(P_COMPUTE)
        send_start = perf_counter() if measure else 0.0
        for channel, outbox in flushes:
            channel.send(exchange_state[0], outbox.drain())
        if measure:
            transport_seconds[0] += perf_counter() - send_start
        if recorder is not None:
            recorder.mark(P_SEND)

    def post_round(cycle: int, rounds: int) -> None:
        if recorder is not None:
            # Everything since the last mark is the loop's ticking.
            recorder.mark(P_COMPUTE)
            recorder.round_end()
        if beat is not None:
            beat(rounds - 1, HB_SEND)

    def diagnose(model: Any, cycle: int) -> TokenStarvationError:
        return starvation_diagnostic(
            model, attachments, quantum, cycle, f"worker {worker_id}"
        )

    start_cycle = simulation.current_cycle
    progress = RoundProgress(start_cycle)
    wall_start = perf_counter()
    cpu_start = process_time()
    round_loop(simulation.engine)(
        shard,
        attachments,
        quantum,
        start_cycle,
        context.target_cycle,
        progress,
        hook=hook if (peers or base_hook is not None) else None,
        measure=measure,
        pre_round=pre_round,
        post_round=post_round,
        diagnose=diagnose,
    )
    if beat is not None:
        beat(progress.rounds, HB_DONE)
    cpu_seconds = process_time() - cpu_start
    wall_seconds = perf_counter() - wall_start
    result = _collect_result(
        context, worker_id, shard, attachments, inbound_side, len(peers),
        progress, start_cycle, wall_seconds, cpu_seconds, transport_seconds,
    )
    if recorder is not None and clock is not None:
        result.profile = _collect_profile(
            recorder, clock, worker_id, peers,
            send_channels, recv_channels, outboxes,
        )
    return result


def _release_channels(context: ShardContext) -> None:
    """Drop this process's transport mappings on the way out.

    Shared-memory rings hold numpy views over the mapped segment;
    releasing them *before* interpreter shutdown keeps the mmap close
    orderly (a view outliving the segment raises ``BufferError`` noise
    at exit).  Pipe channels have no mapping and are left alone.  Only
    the parent unlinks segments.
    """
    for channel in context.channels.values():
        close = getattr(channel, "close", None)
        if close is not None:
            close()
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
    try:
        result = run_shard(context, worker_id)
    except BaseException as exc:  # noqa: BLE001 - report, then die loudly
        # Ship the exception's type and fault target alongside the
        # message so the parent can re-raise *typed* faults (a
        # RingCorruption must reach the manager's circuit breaker as
        # itself, not flattened into a generic crash).
        context.result_queue.put(
            (
                "error",
                worker_id,
                context.simulation.current_cycle,
                f"{type(exc).__name__}: {exc}",
                type(exc).__name__,
                getattr(exc, "target", None),
            )
        )
        _release_channels(context)
        sys.exit(1)
    context.result_queue.put(("ok", worker_id, result))
    _release_channels(context)
