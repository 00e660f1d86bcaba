"""The batched round loop behind ``Simulation(engine="batched")``.

Token movement here is observably identical to the scalar spec loop
(:func:`repro.core.simulation.run_rounds`, the bit-equality oracle whose
parameter list and hook points :func:`run_rounds` shares); only the
host cost changes.  Five overheads are eliminated:

* **Per-call queue machinery.**  The model graph is compiled once per
  run into :class:`_Slot` entries binding each port directly to its
  :class:`~repro.core.channel.LinkEndpoint`.  The aligned common case —
  queue head covers exactly one quantum, no loss gap — pops with one
  ``deque.popleft`` and pushes with one ``deque.append``; the generic
  ``pop`` (splits, gap starvation) remains the fallback so fault
  semantics and diagnostics are unchanged.
* **Per-flit relabelling.**  Busy output windows become
  :class:`~repro.perf.stream.TokenStream` objects whose ``+latency``
  relabel is one pass over a list of cycles; idle windows only move a
  cursor.
* **Empty windows as objects.**  A port left out of a tick's outputs
  sent an empty window (:class:`~repro.core.fame.Fame1Model`).  Stock
  switches and blades leave out every idle port and are handed only the
  input windows that exist; only a custom model still gets a batch on
  every input port.
* **Visits to models with nothing to do (the active set).**  Each slot
  has a wake cycle: the earlier of its next action, read right after its
  last visit, and the round in which a window carrying valid tokens
  lands on one of its inputs.  A stock blade's next action is its
  event-queue head, or the next round while its NIC has frames to send;
  only its own visit schedules events during a run, and every slot is
  due at a run's start.  Any other model's is its ``idle_horizon()``.  A
  round visits only the slots due in it, in slot order, and a visited
  slot always ticks; a round in which no slot is due is jumped over, so
  a round costs what its traffic costs, not what the farm size costs.
  Idle time is a cursor, not a queue of empty windows: a queue holds
  only windows that carry flits, and on exit (a raise included) the
  loop sets each endpoint's two cursors where the spec would leave
  them, so digests, snapshots, a scalar segment or a distributed
  start-up see the same state.  A loss gap wakes its consumer in the
  round that holds it, which starves there as it does in the spec.  A
  distributed worker's exchange rounds are always stops, and a window
  the exchange step delivers wakes its consumer exactly as a local push
  does.  The step is told the heap's minimum and names the next
  exchange, which lies further out when no shard has a slot due before
  it.
* **Per-flit switch and NIC phases.**  Every stock switch ticks
  through a :class:`~repro.perf.switch.ColumnarSwitch` — the per-packet
  spec with packet-segment rows in and out — and every stock server
  blade ticks with ``rows=True`` so its NIC emits and consumes
  packet-segment rows.  Windows between such
  models travel as :class:`~repro.perf.stream.ColumnarBatch` rows, and
  ``Flit`` objects are only materialized where a window crosses to a
  scalar consumer (a tracer, a custom model, a distributed boundary).
  Neither keeps columnar state of its own, so hooks, checkpoints and
  the scalar engine read live model state at every round boundary.

A call with a ``hook``, which observes every round and model, runs the
spec itself.  The loop reads no clock: host timing wraps each slot's
tick (``wrap``), so a slot the active set does not visit is not timed.
Distributed workers hand the loop boundary attachments; their streams
are shipped over the wire in the producer's representation — no
convert/deconvert hop
(:meth:`repro.dist.remote_link.RemoteAttachment.ship`).  A producer the
active set does not visit ships nothing, so the wire carries only
windows with tokens.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Set
from typing import Tuple

from repro.core.fame import Fame1Model
from repro.core.simulation import RoundProgress, starvation_diagnostic
from repro.core.simulation import run_rounds as run_spec
from repro.core.token import TokenBatch, TokenWindow
from repro.net.switch import SwitchModel
from repro.perf.stream import ColumnarBatch, TokenStream
from repro.perf.switch import ColumnarSwitch

#: One output port: ``(port, link, latency, is_a, endpoint, ship,
#: columnar_ok, consumer, hop)`` — ``consumer`` is the slot index that
#: pops ``endpoint`` (None when it is not local) and ``hop`` the latency
#: rounded down to whole rounds, in cycles.
_OutPort = Tuple[
    str, Any, int, bool, Any, Optional[Callable], bool, Optional[int], int
]

#: An endpoint a local slot consumes and what its exit cursors need:
#: ``(endpoint, latency, consumer slot, producer slot)``; the producer
#: is None when a remote peer feeds the endpoint through the exchange.
_LinkEnd = Tuple[Any, int, int, Optional[int]]


class _Slot:
    """One model's precompiled tick plan: ports bound to endpoints."""

    __slots__ = (
        "model", "tick", "horizon", "in_ports", "out_ports", "raw",
        "events", "tx_queue",
    )

    def __init__(
        self,
        model: Fame1Model,
        tick: Callable[..., Any],
        in_ports: List[Tuple[str, Any]],
        out_ports: List[_OutPort],
        raw: bool,
    ) -> None:
        self.model = model
        self.tick = tick
        # When the model next acts without input: read after each visit.
        self.horizon = model.idle_horizon
        # A raw slot — a stock switch or a stock blade — may receive
        # inputs in any wire representation (ColumnarBatch, TokenStream
        # or TokenBatch) without conversion, is handed only the input
        # windows that exist, and answers in rows.
        self.raw = raw
        self.in_ports = in_ports
        self.out_ports = out_ports
        # A stock blade's event and transmit queues, unless ``wrap`` is
        # set: its visit is inlined and reschedules it from one read.
        self.events: Any = None
        self.tx_queue: Any = None


def compile_slots(
    models: Sequence[Fame1Model],
    attachments: Dict[Tuple[int, str], Any],
    quantum: int,
    wrap: Optional[Callable[[str, Callable], Callable]] = None,
) -> Tuple[List[_Slot], List[_LinkEnd]]:
    """Bind every model port to its endpoints for direct queue access.

    ``attachments`` maps ``(id(model), port)`` to the orchestrator's
    ``_Attachment`` or a distributed ``RemoteAttachment``; both expose
    ``link``/``side``.  Remote producers additionally expose ``ship``,
    which replaces the local enqueue with an outbox append.  ``wrap``,
    when given, replaces each slot's tick with ``wrap(name, tick)``.

    Also returns every endpoint a local slot consumes, with its slot
    indices — what the active set schedules and whose cursors it sets.
    """
    # Pass 1: resolve attachments, decide which models speak rows
    # (stock switches through ColumnarSwitch, stock blades through
    # their NIC), and learn which slot consumes each endpoint so
    # producers know whom to wake and when a window may stay columnar.
    columnar: Set[int] = set()
    consumer_of: Dict[int, int] = {}
    resolved: List[List[Tuple[str, Any, Any, Any, bool]]] = []
    for index, model in enumerate(models):
        ports = []
        for port in model.ports:
            attachment = attachments[(id(model), port)]
            link = attachment.link
            is_a = attachment.side == "a"
            in_endpoint = link.to_a if is_a else link.to_b
            out_endpoint = link.to_b if is_a else link.to_a
            ports.append((port, attachment, in_endpoint, out_endpoint, is_a))
            consumer_of[id(in_endpoint)] = index
        resolved.append(ports)
        if getattr(model, "columnar_safe", False):
            columnar.add(index)
    slots: List[_Slot] = []
    ends: List[_LinkEnd] = []
    for index, (model, ports) in enumerate(zip(models, resolved)):
        in_ports: List[Tuple[str, Any]] = []
        out_ports: List[_OutPort] = []
        for port, attachment, in_endpoint, out_endpoint, is_a in ports:
            link = attachment.link
            in_ports.append((port, in_endpoint))
            ship = getattr(attachment, "ship", None)
            consumer = None if ship is not None else consumer_of.get(
                id(out_endpoint)
            )
            if ship is not None:
                ends.append((in_endpoint, link.latency, index, None))
            elif consumer is not None:
                ends.append((out_endpoint, link.latency, consumer, index))
            # Output windows stay columnar only when the local consumer
            # speaks rows itself; scalar models and distributed boundary
            # links get a materialized TokenStream.
            out_ports.append(
                (port, link, link.latency, is_a, out_endpoint, ship,
                 consumer in columnar, consumer,
                 link.latency // quantum * quantum)
            )
        raw = index in columnar
        tick: Callable[..., Any] = model._tick
        if raw and isinstance(model, SwitchModel):
            tick = ColumnarSwitch(model).step
        elif raw:
            # A stock blade's ``_tick`` takes ``rows`` (ServerBlade).
            tick = partial(tick, rows=True)
        if wrap is not None:
            tick = wrap(model.name, tick)
        slot = _Slot(model, tick, in_ports, out_ports, raw)
        if raw and wrap is None and not isinstance(model, SwitchModel):
            slot.events = model.events  # type: ignore[attr-defined]
            slot.tx_queue = model.nic._tx_queue  # type: ignore[attr-defined]
        slots.append(slot)
    return slots, ends


def run_rounds(
    models: Sequence[Fame1Model],
    attachments: Dict[Tuple[int, str], Any],
    quantum: int,
    start_cycle: int,
    target_cycle: int,
    progress: RoundProgress,
    *,
    hook: Optional[Callable[[int, Optional[Fame1Model]], None]] = None,
    wrap: Optional[Callable[[str, Callable], Callable]] = None,
    exchange: Optional[Tuple[int, Callable[[int, int, int], int]]] = None,
    diagnose: Optional[Callable[[Fame1Model, int], Exception]] = None,
) -> None:
    """Advance ``models`` from ``start_cycle`` to ``target_cycle``.

    Same contract as :func:`repro.core.simulation.run_rounds` (the
    spec: parameters, hook firing order, what ``progress`` holds after
    a raise).  A ``hook`` observes every round and every model, so a
    call with one runs the spec.  Slots are compiled fresh per call
    (~tens of microseconds on paper-scale graphs) so checkpoint
    restores, model-graph edits and class-level patches between runs
    can never observe a stale plan.  ``wrap`` is applied once per slot
    to its tick.
    """
    if hook is not None:
        run_spec(
            models, attachments, quantum, start_cycle, target_cycle,
            progress, hook=hook, wrap=wrap, exchange=exchange,
            diagnose=diagnose,
        )
        return
    slots, ends = compile_slots(models, attachments, quantum, wrap)
    from_flits = TokenStream.from_flits
    # Wake cycle -> slots due in that round, plus a heap of the cycles.
    buckets: Dict[int, Set[int]] = {}
    heap: List[int] = []

    def wake(index: int, at: int) -> None:
        if at < target_cycle:
            due = buckets.get(at)
            if due is None:
                buckets[at] = {index}
                heappush(heap, at)
            else:
                due.add(index)

    def round_of(at: int) -> int:
        return start_cycle + (at - start_cycle) // quantum * quantum

    def absorb(endpoint: Any, consumer: int) -> None:
        # Wake the consumer in every round a queued window overlaps.
        for window in endpoint._queue:
            due = round_of(window.start_cycle)
            while due < window.end_cycle:
                wake(consumer, due)
                due += quantum

    period, step = exchange or (0, None)
    # The step runs at the start of every exchange after the first and
    # names the next; without one, no round in the run is an exchange.
    exchange_at = (
        target_cycle if step is None else start_cycle + period * quantum
    )
    remote = [
        (endpoint, consumer)
        for endpoint, _, consumer, producer in ends if producer is None
    ]
    for endpoint, latency, consumer, producer in ends:
        absorb(endpoint, consumer)
        if endpoint._gap_at is not None:
            # The consumer starves in the round that holds the gap.
            wake(consumer, round_of(endpoint._gap_at))
        if producer is not None:
            # Producers are not visited every round: the consumer may
            # pop through the run, and the exit states the cursor.
            endpoint._pushed_until = target_cycle + latency
    for index in range(len(slots)):
        wake(index, start_cycle)
    cycle = start_cycle
    rounds = 0
    valid_tokens_moved = 0
    # Slots before ``done`` (by index) have finished the round that
    # starts at ``cycle``; the rest have not begun it.
    done = 0
    try:
        while cycle < target_cycle:
            if cycle == exchange_at:
                # No slot acts before the heap's minimum.
                exchange_at = step(
                    cycle, rounds, heap[0] if heap else target_cycle
                )
                for endpoint, consumer in remote:
                    absorb(endpoint, consumer)
            due = heap[0] if heap else target_cycle
            if due != cycle:
                # No slot is due: jump to the next round that has one or
                # is an exchange, or to the first round boundary at or
                # past the target.
                due = min(due, exchange_at)
                if due < target_cycle:
                    skipped = (due - cycle) // quantum
                else:
                    skipped = -((cycle - target_cycle) // quantum)
                cycle += skipped * quantum
                rounds += skipped
                continue
            heappop(heap)
            end = cycle + quantum
            window = TokenWindow(cycle, end)
            for index in sorted(buckets.pop(cycle)):
                done = index
                slot = slots[index]
                model = slot.model
                # Stale after rounds the slot was not visited in.
                model.current_cycle = cycle
                events = slot.events
                if events is not None:
                    endpoint = slot.in_ports[0][1]
                    queue = endpoint._queue
                    head = queue[0] if queue else None
                    if head is not None and head.start_cycle >= end:
                        head = None
                    if endpoint._gap_at is not None or head is not None and (
                        head.start_cycle != cycle or head.length != quantum
                    ):
                        events = None  # a gap or a window off the grid
                    else:
                        if head is not None:
                            queue.popleft()
                        endpoint._consumed_until = end
                        # ``rows`` positionally: the keyword partial in
                        # ``tick`` costs more than the call it wraps.
                        outputs = model._tick(  # type: ignore[call-arg]
                            window, {} if head is None else {"net": head}, True
                        )
                if events is None:
                    raw = slot.raw
                    inputs = {}
                    try:
                        for port, endpoint in slot.in_ports:
                            queue = endpoint._queue
                            head = queue[0] if queue else None
                            if endpoint._gap_at is not None or (
                                head is not None and head.start_cycle < end
                                and (head.start_cycle != cycle
                                     or head.length != quantum)
                            ):
                                # A loss gap or a window off the round grid.
                                endpoint._consumed_until = cycle
                                inputs[port] = endpoint.pop(quantum)
                            elif head is None or head.start_cycle >= end:
                                # An absent window is an empty one; only a
                                # custom model is handed it as a batch.
                                endpoint._consumed_until = end
                                if not raw:
                                    inputs[port] = TokenBatch(cycle, quantum)
                            else:
                                queue.popleft()
                                endpoint._consumed_until = end
                                # Columnar consumers take any wire
                                # representation as-is.
                                inputs[port] = (
                                    head if raw or type(head) is TokenBatch
                                    else head.to_batch()
                                )
                    except LookupError as exc:
                        if diagnose is not None:
                            raise diagnose(model, cycle) from exc
                        raise starvation_diagnostic(
                            model, attachments, quantum, cycle
                        ) from exc
                    outputs = slot.tick(window, inputs)
                model.current_cycle = end
                for (
                    port, link, latency, is_a, out_endpoint, ship, col_ok,
                    consumer, hop,
                ) in slot.out_ports if outputs else ():
                    batch = outputs.get(port)
                    if batch is None:
                        continue
                    if type(batch) is ColumnarBatch:
                        # Columnar windows always carry tokens (an idle
                        # port or NIC is left out of the outputs).
                        valid = batch._valid
                        if col_ok:
                            shipped: Any = batch.shift(latency)
                        else:
                            shipped = batch.to_stream(latency)
                    else:
                        flits = batch.flits
                        valid = len(flits)
                        if valid:
                            shipped = from_flits(
                                batch.start_cycle, batch.length, flits,
                                latency,
                            )
                    if not valid:
                        # An empty window moves only cursors.
                        continue
                    valid_tokens_moved += valid
                    if ship is not None:
                        ship(shipped, valid)
                        continue
                    if is_a:
                        link.flits_a_to_b += valid
                    else:
                        link.flits_b_to_a += valid
                    out_endpoint._queue.append(shipped)
                    wake(consumer, cycle + hop)
                    if hop != latency:
                        # Off the round grid: the window overlaps two of
                        # the consumer's rounds.
                        wake(consumer, cycle + hop + quantum)
                if events is not None:
                    due = end if slot.tx_queue else events.next_cycle()
                else:
                    due = slot.horizon()
                if due is not None:
                    # Its round, and never one before the next.
                    due -= (due - start_cycle) % quantum
                    wake(index, due if due > end else end)
                done = index + 1
            cycle = end
            rounds += 1
            done = 0
    finally:
        # Every slot moves one quantum per port per round it finished,
        # whether it was visited or not.
        finished = [
            cycle + quantum if index < done else cycle
            for index in range(len(slots))
        ]
        tokens_moved = 0
        for slot, until in zip(slots, finished):
            tokens_moved += len(slot.out_ports) * (until - start_cycle)
            slot.model.current_cycle = until
        # State the cursors the spec would leave; a slot whose visit
        # raised may have popped some inputs.
        for endpoint, latency, consumer, producer in ends:
            endpoint._consumed_until = max(
                endpoint._consumed_until, finished[consumer]
            )
            if producer is not None:
                pushed = finished[producer] + latency
                endpoint._pushed_until = pushed
                if finished[producer] > start_cycle:
                    endpoint._tail_at = pushed - quantum
        progress.cycle = cycle
        progress.rounds = rounds
        progress.tokens_moved = tokens_moved
        progress.valid_tokens_moved = valid_tokens_moved
