"""The batched round loop behind ``Simulation(engine="batched")``.

Token movement here is observably identical to the scalar spec loop
(:func:`repro.core.simulation.run_rounds`, the bit-equality oracle whose
parameter list and hook points :func:`run_rounds` shares); only the
host cost changes.  Four overheads are eliminated:

* **Per-call queue machinery.**  The model graph is compiled once per
  run into :class:`_Slot` entries binding each port directly to its
  :class:`~repro.core.channel.LinkEndpoint`.  The aligned common case —
  queue head covers exactly one quantum, no loss gap — pops with one
  ``deque.popleft`` and pushes with one ``deque.append``; the generic
  ``pop`` (splits, gap starvation) remains the fallback so fault
  semantics and diagnostics are unchanged.
* **Per-flit relabelling.**  Busy output windows become
  :class:`~repro.perf.stream.TokenStream` objects whose ``+latency``
  relabel is one vectorized add; idle windows are shifted in place
  (idle-token elision: a quiet link costs two integer adds per round).
* **Idle model ticks.**  A model whose every input window carries zero
  valid tokens is asked for
  :meth:`~repro.core.fame.Fame1Model.idle_outputs` first; models that
  can prove an all-idle window leaves their state untouched (switches
  with empty queues, tracers, null sinks, server blades with no queued
  transmits and no event due before the window's end) skip their tick
  entirely.
* **Per-flit switch and NIC phases.**  Every stock switch ticks
  through a :class:`~repro.perf.switch.ColumnarSwitch` whose
  ingress/route/egress phases run as numpy array programs, and every
  stock server blade ticks with ``rows=True`` so its NIC emits and
  consumes packet-segment rows.  Windows between such models travel as
  :class:`~repro.perf.stream.ColumnarBatch` rows, blade to blade, and
  ``Flit`` objects are only materialized where a window crosses to a
  scalar consumer (a tracer, a custom model, a distributed boundary).
  Neither keeps columnar state of its own: the fast phases work the
  model's one set of queues in place, so hooks, checkpoints and the
  scalar engine read live state at every round boundary.

Hooks fire at the same points as the scalar loop, and the observer
either gets per-tick callbacks (when Chrome tracing needs real span
timestamps) or one vectorized fold per run through
:meth:`~repro.obs.rate.RateMonitor.absorb_tick_totals` /
:meth:`~repro.obs.rate.RateMonitor.absorb_round_times`.  Distributed
workers hand the loop boundary attachments; their streams are shipped
over the wire in the producer's representation — no convert/deconvert
hop (:meth:`repro.dist.remote_link.RemoteAttachment.ship`).
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.fame import Fame1Model
from repro.core.simulation import RoundProgress, starvation_diagnostic
from repro.core.token import TokenBatch, TokenWindow
from repro.net.switch import SwitchModel
from repro.perf.stream import ColumnarBatch, TokenStream
from repro.perf.switch import ColumnarSwitch


class _Slot:
    """One model's precompiled tick plan: ports bound to endpoints."""

    __slots__ = (
        "model", "tick", "idle", "in_ports", "out_ports", "name", "raw",
    )

    def __init__(
        self,
        model: Fame1Model,
        tick: Callable[..., Any],
        idle: Optional[Callable[[TokenWindow], Optional[Dict[str, Any]]]],
        in_ports: List[Tuple[str, Any]],
        out_ports: List[
            Tuple[str, Any, int, bool, Any, Optional[Callable], bool]
        ],
        raw: bool,
    ) -> None:
        self.model = model
        self.tick = tick
        self.idle = idle
        # A raw slot — a stock switch or a stock blade — may receive
        # inputs in any wire representation (ColumnarBatch, TokenStream
        # or TokenBatch) without conversion, and answers in rows.
        self.raw = raw
        self.in_ports = in_ports
        self.out_ports = out_ports
        self.name = model.name


#: What idle fast-forward needs besides the slots: every slot's
#: ``idle_horizon``, every endpoint in the graph, and the ports that
#: move one window each per round.
_IdlePlan = Tuple[List[Callable[[], Optional[int]]], List[Any], int]


def compile_slots(
    models: Sequence[Fame1Model],
    attachments: Dict[Tuple[int, str], Any],
) -> Tuple[List[_Slot], Optional[_IdlePlan]]:
    """Bind every model port to its endpoints for direct queue access.

    ``attachments`` maps ``(id(model), port)`` to the orchestrator's
    ``_Attachment`` or a distributed ``RemoteAttachment``; both expose
    ``link``/``side``.  Remote producers additionally expose ``ship``,
    which replaces the local enqueue with an outbox append.

    Also decides whether the graph may idle-fast-forward at all: only
    when every model can prove an idle window (``idle_outputs`` plus an
    ``idle_horizon``) and no port ships to a remote peer, whose rounds
    are observed.  The second result is None otherwise.
    """
    # Pass 1: resolve attachments, decide which models speak rows
    # (stock switches through ColumnarSwitch, stock blades through
    # their NIC), and learn which model consumes each link side so
    # producers know when a window may stay in columnar form.
    columnar: Set[int] = set()
    consumers: Dict[Tuple[int, str], int] = {}
    resolved: List[List[Tuple[str, Any]]] = []
    for model in models:
        ports: List[Tuple[str, Any]] = []
        for port in model.ports:
            attachment = attachments[(id(model), port)]
            ports.append((port, attachment))
            consumers[(id(attachment.link), attachment.side)] = id(model)
        resolved.append(ports)
        if getattr(model, "columnar_safe", False):
            columnar.add(id(model))
    slots: List[_Slot] = []
    horizons: Optional[List[Callable[[], Optional[int]]]] = []
    endpoints: Dict[int, Any] = {}
    ports_per_round = 0
    for model, ports in zip(models, resolved):
        in_ports: List[Tuple[str, Any]] = []
        out_ports: List[
            Tuple[str, Any, int, bool, Any, Optional[Callable], bool]
        ] = []
        for port, attachment in ports:
            link = attachment.link
            if attachment.side == "a":
                in_endpoint, out_endpoint, is_a = link.to_a, link.to_b, True
                consumer_side = "b"
            else:
                in_endpoint, out_endpoint, is_a = link.to_b, link.to_a, False
                consumer_side = "a"
            in_ports.append((port, in_endpoint))
            endpoints[id(in_endpoint)] = in_endpoint
            ship = getattr(attachment, "ship", None)
            if ship is not None:
                horizons = None
            else:
                endpoints[id(out_endpoint)] = out_endpoint
            # Output windows stay columnar only when the local consumer
            # speaks rows itself; scalar models and distributed boundary
            # links get a materialized TokenStream.
            columnar_ok = (
                ship is None
                and consumers.get((id(link), consumer_side)) in columnar
            )
            out_ports.append(
                (port, link, link.latency, is_a, out_endpoint, ship,
                 columnar_ok)
            )
        raw = id(model) in columnar
        tick: Callable[..., Any] = model._tick
        if raw and isinstance(model, SwitchModel):
            tick = ColumnarSwitch(model).step
        elif raw:
            # A stock blade's ``_tick`` takes ``rows`` (ServerBlade).
            tick = partial(tick, rows=True)
        idle = None
        if type(model).idle_outputs is not Fame1Model.idle_outputs:
            idle = model.idle_outputs
        slots.append(_Slot(model, tick, idle, in_ports, out_ports, raw))
        horizon = getattr(model, "idle_horizon", None)
        if idle is None or horizon is None:
            horizons = None
        elif horizons is not None:
            horizons.append(horizon)
            ports_per_round += len(out_ports)
    if horizons is None:
        return slots, None
    return slots, (horizons, list(endpoints.values()), ports_per_round)


def _idle_fast_forward(
    slots: List[_Slot],
    horizons: List[Callable[[], Optional[int]]],
    endpoints: List[Any],
    quantum: int,
    cycle: int,
    target_cycle: int,
) -> int:
    """Skip as many provably idle rounds as the cluster allows.

    Called only right after a round in which *every* slot took its idle
    path, with no fault hook, distributed barrier, or tick tracing
    attached.  A further round is a no-op iff (a) no model acts
    spontaneously before the round's window closes — bounded by each
    model's ``idle_horizon`` — and (b) no in-flight window delivers a
    valid token, so every consumer idles again.  Both are stable across
    skipped rounds: untouched models cannot schedule new events and
    idle windows cannot spawn valid tokens.

    Running those rounds would only relabel the in-flight empty windows
    and bump counters, so the skip does exactly that and returns the
    number of rounds elided (0 when any condition fails).
    """
    horizon = target_cycle
    for idle_horizon in horizons:
        due = idle_horizon()
        if due is not None and due < horizon:
            if due - cycle < quantum:
                return 0
            horizon = due
    skipped = (horizon - cycle) // quantum
    if skipped <= 0:
        return 0
    for endpoint in endpoints:
        if endpoint._gap_at is not None:
            return 0
        for entry in endpoint._queue:
            kind = type(entry)
            if kind is TokenBatch:
                if entry.flits:
                    return 0
            elif kind is TokenStream:
                if entry.tokens.shape[0]:
                    return 0
            else:
                # Loss placeholders / columnar windows always carry
                # payload semantics a consumer must see round by round.
                return 0
    delta = skipped * quantum
    for endpoint in endpoints:
        for entry in endpoint._queue:
            entry.start_cycle += delta
        endpoint._consumed_until += delta
        endpoint._pushed_until += delta
    for slot in slots:
        slot.model.current_cycle += delta
    return skipped


def run_rounds(
    models: Sequence[Fame1Model],
    attachments: Dict[Tuple[int, str], Any],
    quantum: int,
    start_cycle: int,
    target_cycle: int,
    progress: RoundProgress,
    *,
    hook: Optional[Callable[[int, Optional[Fame1Model]], None]] = None,
    observer: Optional[Any] = None,
    measure: bool = False,
    pre_round: Optional[Callable[[int, int], None]] = None,
    post_round: Optional[Callable[[int, int], None]] = None,
    diagnose: Optional[Callable[[Fame1Model, int], Exception]] = None,
) -> None:
    """Advance ``models`` from ``start_cycle`` to ``target_cycle``.

    Same contract as :func:`repro.core.simulation.run_rounds` (the
    spec: parameters, hook firing order, what ``progress`` holds after
    a raise).  Slots are compiled fresh per call (~tens of microseconds
    on paper-scale graphs) so checkpoint restores, model-graph edits
    and class-level patches between runs can never observe a stale
    plan.

    Timing modes (mutually exclusive in practice):

    * ``observer`` with an enabled Chrome trace: per-tick
      ``record_model_tick``/``record_round`` calls, exactly like the
      scalar loop, so trace spans keep real timestamps;
    * ``observer`` without tracing, or ``measure=True`` (distributed
      workers): per-tick durations land in a preallocated numpy buffer
      folded once per round and flushed once per run.
    """
    slots, idle_plan = compile_slots(models, attachments)
    trace_ticks = (
        observer is not None
        and getattr(observer, "trace", None) is not None
        and observer.trace.enabled
    )
    timed = measure or (observer is not None and not trace_ticks)
    names = [slot.name for slot in slots]
    count = len(slots)
    tick_buf = np.zeros(count) if timed else None
    tick_totals = np.zeros(count) if timed else None
    round_walls: List[float] = []
    from_flits = TokenStream.from_flits
    cycle = start_cycle
    rounds = 0
    tokens_moved = 0
    valid_tokens_moved = 0
    # Idle fast-forward: after a round in which every model took its
    # idle path, the cluster can sleep until the earliest idle horizon
    # (a blade's next due event) — provided nothing external observes
    # individual rounds (fault hooks, distributed barriers, tick
    # tracing) and no in-flight window carries a valid token.  Skipped
    # rounds are accounted arithmetically, bit-identically to running
    # them: state is untouched by construction, in-flight idle windows
    # are relabelled, and per-round token counts are exact multiples.
    horizons: Optional[List[Callable[[], Optional[int]]]] = None
    endpoints: List[Any] = []
    ports_per_round = 0
    if (
        idle_plan is not None
        and hook is None
        and pre_round is None
        and post_round is None
        and not trace_ticks
    ):
        horizons, endpoints, ports_per_round = idle_plan
    try:
        while cycle < target_cycle:
            if pre_round is not None:
                pre_round(cycle, rounds)
            if hook is not None:
                hook(cycle, None)
            end = cycle + quantum
            window = TokenWindow(cycle, end)
            if timed or trace_ticks:
                round_start = perf_counter()
            quiet = horizons is not None
            for index, slot in enumerate(slots):
                model = slot.model
                raw = slot.raw
                inputs = {}
                busy = False
                try:
                    for port, endpoint in slot.in_ports:
                        queue = endpoint._queue
                        if queue and endpoint._gap_at is None:
                            head = queue[0]
                            if head.length == quantum:
                                queue.popleft()
                                endpoint._consumed_until += quantum
                                if raw or type(head) is TokenBatch:
                                    # Columnar consumers take any wire
                                    # representation as-is.
                                    batch = head
                                else:
                                    batch = head.to_batch()
                            else:
                                batch = endpoint.pop(quantum)
                        else:
                            batch = endpoint.pop(quantum)
                        if raw:
                            kind = type(batch)
                            if kind is ColumnarBatch:
                                if batch._valid:
                                    busy = True
                            elif kind is TokenStream:
                                if batch.tokens.shape[0]:
                                    busy = True
                            elif batch.flits:
                                busy = True
                        elif batch.flits:
                            busy = True
                        inputs[port] = batch
                except LookupError as exc:
                    if diagnose is not None:
                        raise diagnose(model, cycle) from exc
                    raise starvation_diagnostic(
                        model, attachments, quantum, cycle
                    ) from exc
                if timed or trace_ticks:
                    tick_start = perf_counter()
                outputs = None
                if not busy and slot.idle is not None:
                    if horizons is not None:
                        # The horizon pre-authorizes the idle window
                        # (same condition idle_outputs checks), so the
                        # just-popped empty input windows — garbage
                        # otherwise — become the outputs: observably
                        # identical empty quanta, zero allocation.
                        due = horizons[index]()
                        if due is None or due >= end:
                            outputs = inputs
                    else:
                        outputs = slot.idle(window)
                if outputs is None:
                    outputs = slot.tick(window, inputs)
                    quiet = False
                model.current_cycle = end
                if timed:
                    tick_buf[index] = perf_counter() - tick_start
                elif trace_ticks:
                    observer.record_model_tick(
                        slot.name, tick_start, perf_counter(), cycle, end
                    )
                for port, link, latency, is_a, out_endpoint, ship, col_ok in (
                    slot.out_ports
                ):
                    batch = outputs[port]
                    tokens_moved += batch.length
                    if type(batch) is ColumnarBatch:
                        # Columnar windows always carry tokens (an idle
                        # port or NIC answers with a plain TokenBatch).
                        valid = batch._valid
                        valid_tokens_moved += valid
                        if col_ok:
                            shipped: Any = batch.shift(latency)
                        else:
                            shipped = batch.to_stream(latency)
                    else:
                        flits = batch.flits
                        valid = len(flits)
                        if valid:
                            valid_tokens_moved += valid
                            shipped = from_flits(
                                batch.start_cycle, batch.length, flits,
                                latency,
                            )
                        else:
                            # Idle-token elision: relabel the empty
                            # window in place.  Outputs are never
                            # referenced again by the producing model,
                            # so mutation is safe.
                            batch.start_cycle += latency
                            shipped = batch
                    if ship is not None:
                        ship(shipped, valid)
                    else:
                        if is_a:
                            link.flits_a_to_b += valid
                        else:
                            link.flits_b_to_a += valid
                        if shipped.start_cycle != out_endpoint._pushed_until:
                            raise ValueError(
                                "non-contiguous batch: expected start "
                                f"{out_endpoint._pushed_until}, got "
                                f"{shipped.start_cycle}"
                            )
                        out_endpoint._queue.append(shipped)
                        out_endpoint._pushed_until = (
                            shipped.start_cycle + shipped.length
                        )
                if hook is not None:
                    hook(cycle, model)
            cycle = end
            rounds += 1
            if timed:
                tick_totals += tick_buf
                round_walls.append(perf_counter() - round_start)
            elif trace_ticks:
                observer.record_round(quantum, perf_counter() - round_start)
            if post_round is not None:
                post_round(cycle, rounds)
            if quiet and cycle < target_cycle:
                if timed:
                    skip_start = perf_counter()
                skipped = _idle_fast_forward(
                    slots, horizons, endpoints, quantum, cycle, target_cycle
                )
                if skipped:
                    cycle += skipped * quantum
                    rounds += skipped
                    tokens_moved += skipped * quantum * ports_per_round
                    if timed:
                        # The monitor counts rounds as wall entries, so
                        # the skip lands as one real measurement plus
                        # zero-cost rounds — cycle/round totals stay
                        # exact (the skipped rounds truly cost ~nothing).
                        round_walls.append(perf_counter() - skip_start)
                        round_walls.extend([0.0] * (skipped - 1))
    finally:
        progress.cycle = cycle
        progress.rounds = rounds
        progress.tokens_moved = tokens_moved
        progress.valid_tokens_moved = valid_tokens_moved
        if timed:
            totals: Dict[str, float] = {}
            for name, seconds in zip(names, tick_totals.tolist()):
                totals[name] = totals.get(name, 0.0) + seconds
            progress.model_host_seconds = totals
            if observer is not None:
                observer.absorb_tick_totals(names, tick_totals)
                observer.absorb_round_times(quantum, round_walls)
