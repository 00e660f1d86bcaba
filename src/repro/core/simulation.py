"""Global simulation orchestration.

FireSim coordinates target time globally through token exchange: no NIC or
switch port advances unless it has input tokens to consume, so every
server simulation computes each target cycle deterministically even though
host nodes are decoupled (paper Section III-B2).

This orchestrator reproduces that execution model on one host process:

* models (:class:`~repro.core.fame.Fame1Model`) attach their ports to
  :class:`~repro.core.channel.Link` objects of per-link latency;
* simulation advances in rounds of a *quantum* ``Q`` equal to the smallest
  link latency (token batching up to the link latency, Section III-B2);
* each round every model pops one ``Q``-cycle window per input port, ticks,
  and pushes one ``Q``-cycle window per output port — an empty one for a
  port the tick left out of its outputs.

Because links are primed with one latency of empty tokens, every pop is
guaranteed to succeed — the simulated cluster can never deadlock — and the
result is bit-identical regardless of the order models are ticked in.  We
still tick in deterministic insertion order so host-side state (RNG draws
inside models) is reproducible too.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.channel import Link, LinkEndpoint, TokenStarvationError
from repro.core.clock import DEFAULT_CLOCK, TargetClock
from repro.core.fame import Fame1Model
from repro.core.token import TokenBatch, TokenWindow


@dataclass
class _Attachment:
    """Where one (model, port) sends to and receives from."""

    link: Link
    side: str  # "a" or "b"

    def receive(self, length: int) -> TokenBatch:
        endpoint = self.link.to_a if self.side == "a" else self.link.to_b
        return endpoint.pop(length)

    def transmit(self, batch: TokenBatch) -> None:
        if self.side == "a":
            self.link.send_from_a(batch)
        else:
            self.link.send_from_b(batch)


@dataclass
class SimulationStats:
    """Aggregate counters the orchestrator maintains while running."""

    rounds: int = 0
    cycles: int = 0
    tokens_moved: int = 0
    valid_tokens_moved: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of moved tokens that carried valid data."""
        if self.tokens_moved == 0:
            return 0.0
        return self.valid_tokens_moved / self.tokens_moved


class RoundProgress:
    """Run accounting a round loop keeps current even when a hook raises.

    The caller folds these into ``Simulation.stats`` (or a
    ``WorkerResult``) in a ``finally`` block, so a mid-round crash
    leaves the same counters under every engine: completed rounds plus
    the failing round's already-transmitted tokens, with ``cycle`` at
    the failing round's start.
    """

    __slots__ = ("cycle", "rounds", "tokens_moved", "valid_tokens_moved")

    def __init__(self, start_cycle: int) -> None:
        self.cycle = start_cycle
        self.rounds = 0
        self.tokens_moved = 0
        self.valid_tokens_moved = 0


def starvation_diagnostic(
    model: Fame1Model,
    attachments: Dict[Tuple[int, str], Any],
    quantum: int,
    cycle: int,
    who: str = "",
) -> TokenStarvationError:
    """Name the stalled endpoint(s) behind a failed token pop.

    Runs only on the (exceptional) starvation path.  ``who`` prefixes
    the message with the reporting party (a distributed worker names
    itself); everything else is the same for serial and worker callers.
    """
    prefix = f"{who}: " if who else ""
    for port in model.ports:
        attachment = attachments[(id(model), port)]
        link = attachment.link
        endpoint = link.to_a if attachment.side == "a" else link.to_b
        if endpoint.available_tokens < quantum:
            return TokenStarvationError(
                f"{prefix}channel stalled: {model.name}.{port} on link "
                f"{link.name!r} holds {endpoint.available_tokens} of "
                f"{quantum} tokens at cycle {cycle} — a transport hop lost "
                "a token batch or the peer stopped advancing",
                model_name=model.name,
                port=port,
                link_name=link.name,
                cycle=cycle,
            )
    return TokenStarvationError(
        f"{prefix}channel stalled feeding {model.name} at cycle {cycle}",
        model_name=model.name,
        cycle=cycle,
    )


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
    """The scalar round loop: the executable spec of token exchange.

    Each round, every model pops one ``quantum``-cycle window per port
    (``attachment.receive`` — :meth:`LinkEndpoint.pop`), ticks with its
    token-conservation checks, and pushes one window per port
    (``attachment.transmit`` — :meth:`Link.send_from_a`/``send_from_b``,
    or a boundary outbox in a distributed worker; an empty window for a
    port the tick left out).  ``attachments`` maps ``(id(model), port)``
    to whatever owns that port's two ends.

    Hook points, in firing order within a round that starts at ``cycle``
    after ``n`` completed rounds: ``step(cycle, n, wake)`` when
    ``exchange`` is ``(period, step)`` and the round is an exchange
    (the first is ``period`` rounds in; the step returns the next's
    cycle), then ``hook(cycle, None)``, then ``hook(cycle, model)``
    after each model has transmitted.  ``wake`` is the earliest cycle
    a model may move a token: here, where every model ticks every
    round, ``cycle``.
    ``wrap(name, tick)``, when given, replaces each model's ``tick``
    once, before the first round: the loop itself reads no clock.
    ``diagnose(model, cycle)`` builds the error for a starved pop
    (default :func:`starvation_diagnostic`).  ``progress`` is kept
    current as the round advances, so a raise from any hook leaves it
    exact.

    :func:`repro.perf.engine.run_rounds` has this parameter list and
    these observable effects, and is held to them bit for bit.
    """
    ticks = [
        model.tick if wrap is None else wrap(model.name, model.tick)
        for model in models
    ]
    period, step = exchange or (0, None)
    exchange_at = (
        target_cycle if step is None else start_cycle + period * quantum
    )
    cycle = start_cycle
    while cycle < target_cycle:
        if cycle == exchange_at:
            exchange_at = step(cycle, progress.rounds, cycle)
        if hook is not None:
            hook(cycle, None)
        window = TokenWindow(cycle, cycle + quantum)
        for model, tick in zip(models, ticks):
            try:
                inputs = {
                    port: attachments[(id(model), port)].receive(quantum)
                    for port in model.ports
                }
            except LookupError as exc:
                if diagnose is not None:
                    raise diagnose(model, cycle) from exc
                raise starvation_diagnostic(
                    model, attachments, quantum, cycle
                ) from exc
            outputs = tick(window, inputs)
            for port in model.ports:
                batch = outputs.get(port)
                if batch is None:
                    batch = TokenBatch(cycle, quantum)
                attachments[(id(model), port)].transmit(batch)
                progress.tokens_moved += batch.length
                progress.valid_tokens_moved += batch.valid_count
            if hook is not None:
                hook(cycle, model)
        cycle = window.end
        progress.cycle = cycle
        progress.rounds += 1


#: Execution engines ``run_until`` can dispatch to.  "scalar" is the
#: reference round loop above; "batched" is the vectorized hot path in
#: :mod:`repro.perf.engine`, bit-identical in every observable (cycle
#: timestamps, counters, tracer records) but faster on the host.
ENGINES = ("scalar", "batched")


def round_loop(engine: str) -> Callable[..., None]:
    """The round-loop body an :data:`ENGINES` name selects.

    Both bodies share :func:`run_rounds`' parameter list, so serial
    runs and distributed workers drive either through the same call.
    """
    if engine == "scalar":
        return run_rounds
    if engine == "batched":
        # Imported lazily: repro.perf depends on this module.
        from repro.perf.engine import run_rounds as run_rounds_batched

        return run_rounds_batched
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


class Simulation:
    """A cycle-exact, token-coordinated simulation of a target cluster."""

    def __init__(
        self,
        clock: TargetClock = DEFAULT_CLOCK,
        quantum_override: Optional[int] = None,
        engine: str = "scalar",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        #: Which round-loop implementation ``run_until`` uses.  May be
        #: reassigned between runs; both engines leave identical state,
        #: so switching mid-simulation is safe.
        self.engine = engine
        self.clock = clock
        self.models: List[Fame1Model] = []
        self.links: List[Link] = []
        self._attachments: Dict[Tuple[int, str], _Attachment] = {}
        self.current_cycle = 0
        self.stats = SimulationStats()
        #: Optional rate observer (a :class:`repro.obs.rate.RateMonitor`).
        #: ``run_until`` hands its ``wrap_tick`` to the round loop, which
        #: times each tick through it, and reports one wall per run to
        #: its ``record_run``.  When None the loop runs unwrapped ticks.
        self.observer: Optional[Any] = None
        #: Optional fault hook (a :class:`repro.faults.plan.FaultInjector`
        #: arms one).  Called as ``hook(cycle, model)`` at each round
        #: start (``model=None``) and after each model's tick; it may
        #: raise to model a simulation-controller crash, or mutate link
        #: state to model transport loss.  While one is set, either
        #: engine runs the scalar spec loop.
        self.fault_hook: Optional[Any] = None
        self._started = False
        if quantum_override is not None and quantum_override < 1:
            raise ValueError("quantum override must be >= 1 cycle")
        #: Optional smaller-than-latency round quantum.  Batching *up to*
        #: the link latency is what preserves cycle accuracy; any smaller
        #: quantum is equally exact, just slower on the host — the
        #: batching-ablation bench demonstrates both properties.
        self.quantum_override = quantum_override

    # -- construction --------------------------------------------------

    def add_model(self, model: Fame1Model) -> Fame1Model:
        """Register a model; all of its ports must be connected later."""
        if self._started:
            raise RuntimeError("cannot add models after simulation start")
        if any(existing is model for existing in self.models):
            raise ValueError(f"model {model.name!r} already added")
        self.models.append(model)
        return model

    def connect(
        self,
        model_a: Fame1Model,
        port_a: str,
        model_b: Fame1Model,
        port_b: str,
        latency_cycles: int,
        name: str = "",
    ) -> Link:
        """Create a link of the given latency between two model ports."""
        if self._started:
            raise RuntimeError("cannot connect links after simulation start")
        for model, port in ((model_a, port_a), (model_b, port_b)):
            if port not in model.ports:
                raise ValueError(f"{model.name} has no port {port!r}")
            key = (id(model), port)
            if key in self._attachments:
                raise ValueError(f"{model.name}.{port} already connected")
        link = Link(latency_cycles, name or f"{model_a.name}.{port_a}<->{model_b.name}.{port_b}")
        self.links.append(link)
        self._attachments[(id(model_a), port_a)] = _Attachment(link, "a")
        self._attachments[(id(model_b), port_b)] = _Attachment(link, "b")
        return link

    # -- execution --------------------------------------------------------

    @property
    def quantum(self) -> int:
        """Cycles advanced per round: the smallest link latency.

        Token batches of up to one link latency preserve cycle accuracy;
        using the minimum across links keeps every link's exchange exact.
        """
        if not self.links:
            return 1
        natural = min(link.latency for link in self.links)
        if self.quantum_override is not None:
            if self.quantum_override > natural:
                raise ValueError(
                    f"quantum override {self.quantum_override} exceeds the "
                    f"smallest link latency {natural}; tokens would be "
                    "consumed before they exist"
                )
            return self.quantum_override
        return natural

    def _start(self) -> None:
        for model in self.models:
            for port in model.ports:
                if (id(model), port) not in self._attachments:
                    raise RuntimeError(
                        f"{model.name}.{port} is not connected; attach a "
                        "NullModel to terminate unused ports"
                    )
        # A link's far end must tick: a model never added would leave it
        # unfed.  Attachments know a model only by id, so the link's name
        # (by default ``a.port<->b.port``) names it.
        added = {id(model) for model in self.models}
        for (model_id, port), attachment in self._attachments.items():
            if model_id not in added:
                raise RuntimeError(
                    f"port {port!r} on link {attachment.link.name!r} "
                    "belongs to a model that was never added; add_model "
                    "every model a link connects"
                )
        for link in self.links:
            link.prime()
        self._started = True

    def start(self) -> None:
        """Validate connectivity and prime every link (idempotent).

        ``run_until`` calls this lazily; distributed execution calls it
        explicitly so the primed state exists *before* the model/link
        graph is sharded across worker processes.
        """
        if not self._started:
            self._start()

    def run_cycles(self, cycles: int) -> None:
        """Advance the whole target by at least ``cycles`` target cycles.

        Rounds are whole quanta, so the simulation may run up to one
        quantum beyond the requested point (check ``current_cycle``).
        """
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        self.run_until(self.current_cycle + cycles)

    def run_until(self, target_cycle: int) -> None:
        """Advance until ``current_cycle >= target_cycle``."""
        if not self._started:
            self._start()
        loop = round_loop(self.engine)
        quantum = self.quantum
        observer = self.observer
        progress = RoundProgress(self.current_cycle)
        wall_start = perf_counter()
        try:
            loop(
                self.models,
                self._attachments,
                quantum,
                self.current_cycle,
                target_cycle,
                progress,
                hook=self.fault_hook,
                wrap=None if observer is None else observer.wrap_tick,
            )
        finally:
            stats = self.stats
            stats.rounds += progress.rounds
            stats.cycles += progress.rounds * quantum
            stats.tokens_moved += progress.tokens_moved
            stats.valid_tokens_moved += progress.valid_tokens_moved
            self.current_cycle = progress.cycle
            if observer is not None:
                observer.record_run(
                    progress.rounds, progress.rounds * quantum,
                    perf_counter() - wall_start,
                )

    def run_seconds(self, seconds: float) -> None:
        """Advance by a duration of target time."""
        self.run_cycles(self.clock.cycles(seconds))

    def register_metrics(self, registry: Any, prefix: str = "sim") -> None:
        """Expose the aggregate counters through a metrics registry."""
        registry.register_source(prefix, self.stats)

    # -- partitioning ------------------------------------------------------

    def partition_key(self, model: Fame1Model) -> str:
        """Stable, seed-independent identity of a model for partitioning.

        The key is the model's name: elaboration derives names from the
        topology (``node3``, ``switch1``), never from RNG draws or host
        object identity, so the same target always yields the same keys
        in the same order.  Requires names to be unique across the
        simulation — partitioning is meaningless otherwise.
        """
        self._check_unique_names()
        if not any(existing is model for existing in self.models):
            raise ValueError(f"model {model.name!r} is not part of this simulation")
        return model.name

    def partition_keys(self) -> List[str]:
        """Every model's :meth:`partition_key`, in registration order.

        Registration order is the topology traversal order, so it is
        identical across re-elaborations of the same target regardless
        of seeds — the property distributed partitioning relies on.
        """
        self._check_unique_names()
        return [model.name for model in self.models]

    def _check_unique_names(self) -> None:
        names = [model.name for model in self.models]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"model names are not unique ({dupes}); partitioning "
                "needs one stable key per model"
            )

    def link_attachments(
        self,
    ) -> List[Tuple[Link, Tuple[Fame1Model, str], Tuple[Fame1Model, str]]]:
        """The link graph: ``(link, (model_a, port_a), (model_b, port_b))``.

        Links appear in creation order; within each entry the "a" side is
        first.  This is the read-only view partitioning uses to find
        links crossing shard boundaries.
        """
        sides: Dict[int, Dict[str, Tuple[Fame1Model, str]]] = {}
        by_id: Dict[int, Fame1Model] = {id(m): m for m in self.models}
        for (model_id, port), attachment in self._attachments.items():
            sides.setdefault(id(attachment.link), {})[attachment.side] = (
                by_id[model_id],
                port,
            )
        out = []
        for link in self.links:
            pair = sides.get(id(link), {})
            if "a" not in pair or "b" not in pair:
                raise RuntimeError(
                    f"link {link.name!r} is missing an attachment"
                )
            out.append((link, pair["a"], pair["b"]))
        return out

    # -- inspection --------------------------------------------------------

    @property
    def current_time_s(self) -> float:
        """Target time reached so far, in seconds."""
        return self.clock.seconds(self.current_cycle)

    def link_between(
        self, model_a: Fame1Model, port_a: str
    ) -> Optional[Link]:
        """The link attached to a model port, if any."""
        attachment = self._attachments.get((id(model_a), port_a))
        return attachment.link if attachment else None
