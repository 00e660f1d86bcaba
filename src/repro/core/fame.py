"""FAME-1 decoupled model framework.

FireSim turns target RTL into simulation models with the FAME-1 transform
(Tan et al. [24]; paper Section III-A4): every I/O interface of the design
is *decoupled* — each target cycle, the model must receive a token on each
input interface and produce a token on each output interface for the
simulation to advance.  If any input lacks a token, the model stalls until
one arrives, which is what makes I/O timing exact.

In this reproduction a :class:`Fame1Model` is a Python object that is
ticked over windows of target cycles.  The contract enforced here is the
token-conservation law at the heart of FAME-1:

* one input batch per port per window, covering exactly the window;
* at most one output batch per port per window, covering exactly the
  window; a port left out of the outputs sent a window of empty tokens
  (the paper's empty token is an idle cycle, not an object).

The orchestrator (:mod:`repro.core.simulation`) refuses to advance a model
without input tokens, mirroring the stall behaviour of the hardware.

:class:`Fame5Multiplexer` implements the FAME-5 optimization sketched in
Section VIII: multiple logical models share one physical pipeline
(host-multithreading), trading simulation performance for capacity.  It is
functionally transparent — outputs are identical to running the models
separately — while the host performance model charges for the sharing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

from repro.core.token import TokenBatch, TokenWindow


class Fame1Model(ABC):
    """Base class for token-decoupled cycle-exact models.

    Subclasses define ``ports`` (interface names) and implement
    :meth:`_tick`, which consumes one window of input tokens per port and
    returns an output batch for each port that sent anything; it may
    leave out a port whose window is empty.  :meth:`tick` wraps it with
    the token-conservation checks.
    """

    def __init__(self, name: str, ports: Sequence[str]) -> None:
        if not name:
            raise ValueError("model name must be non-empty")
        if len(set(ports)) != len(ports):
            raise ValueError(f"duplicate port names in {list(ports)}")
        self.name = name
        self.ports: List[str] = list(ports)
        self.current_cycle = 0  # first cycle not yet simulated

    # -- subclass interface ------------------------------------------------

    @abstractmethod
    def _tick(
        self, window: TokenWindow, inputs: Dict[str, TokenBatch]
    ) -> Dict[str, TokenBatch]:
        """Advance across ``window``; return the ports' output batches."""

    def idle_outputs(
        self, window: TokenWindow
    ) -> "Optional[Dict[str, TokenBatch]]":
        """Outputs for an all-idle input window, or None to force a tick.

        The batched engine (:mod:`repro.perf.engine`) calls this instead
        of :meth:`_tick` when every input batch in the window carries
        zero valid tokens — *only* on subclasses that override it.  An
        override must return what :meth:`_tick` would for all-empty
        inputs while leaving all model state untouched, or return None
        when that cannot be guaranteed (e.g. a switch with queued packets
        still draining); all-empty outputs are best ``{}``.  Models that
        do work even on quiet windows — server blades run their event
        queues and generate traffic — must not override this.

        Subclasses that override this may additionally define
        ``idle_horizon() -> Optional[int]``: the first cycle at or after
        ``current_cycle`` at which the model could act without receiving
        a valid token (``None`` meaning never).  The batched engine uses
        it to fast-forward whole runs of provably idle rounds; returning
        ``current_cycle`` opts a window out.  It is only consulted
        immediately after :meth:`idle_outputs` returned a window, so
        implementations may assume whatever that return established.
        """
        return None

    # -- framework ---------------------------------------------------------

    def tick(
        self, window: TokenWindow, inputs: Dict[str, TokenBatch]
    ) -> Dict[str, TokenBatch]:
        """Advance the model one window, enforcing token conservation."""
        if window.start != self.current_cycle:
            raise ValueError(
                f"{self.name}: window starts at {window.start} but model "
                f"is at cycle {self.current_cycle}"
            )
        self._check_batches("input", window, inputs)
        outputs = self._tick(window, inputs)
        self._check_batches("output", window, outputs)
        self.current_cycle = window.end
        return outputs

    def _check_batches(
        self, kind: str, window: TokenWindow, batches: Dict[str, TokenBatch]
    ) -> None:
        # An output port may be left out (an empty window); an input not.
        missing = set(self.ports) - set(batches) if kind == "input" else ()
        extra = set(batches) - set(self.ports)
        if missing or extra:
            raise ValueError(
                f"{self.name}: {kind} ports mismatch "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        for port, batch in batches.items():
            if batch.start_cycle != window.start or batch.length != window.length:
                raise ValueError(
                    f"{self.name}.{port}: {kind} batch "
                    f"[{batch.start_cycle}, {batch.end_cycle}) does not "
                    f"cover window [{window.start}, {window.end})"
                )


class Fame5Multiplexer(Fame1Model):
    """Host-multithreading of several logical models onto one pipeline.

    FAME-5 (paper Section VIII) maps multiple simulated cores onto each
    physical pipeline on the FPGA, at the cost of simulation performance
    and reduced physical memory per simulated core.  This wrapper presents
    the union of its children's ports, prefixed by the child's name, and
    ticks the children round-robin — deterministically — within each
    window.  A port a child leaves out of its outputs stays out.
    """

    def __init__(self, name: str, models: Sequence[Fame1Model]) -> None:
        if not models:
            raise ValueError("Fame5Multiplexer needs at least one model")
        names = [m.name for m in models]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate child model names: {names}")
        ports = [
            f"{model.name}.{port}" for model in models for port in model.ports
        ]
        super().__init__(name, ports)
        self.models = list(models)

    @property
    def multiplexing_factor(self) -> int:
        """How many logical models share the physical pipeline."""
        return len(self.models)

    def _tick(
        self, window: TokenWindow, inputs: Dict[str, TokenBatch]
    ) -> Dict[str, TokenBatch]:
        outputs: Dict[str, TokenBatch] = {}
        for model in self.models:
            child_inputs = {
                port: inputs[f"{model.name}.{port}"] for port in model.ports
            }
            child_outputs = model.tick(window, child_inputs)
            for port, batch in child_outputs.items():
                outputs[f"{model.name}.{port}"] = batch
        return outputs


class NullModel(Fame1Model):
    """A model that sinks all input tokens and emits empty tokens.

    Useful for terminating unused ports (e.g. an unconnected switch port)
    and in tests.
    """

    def _tick(
        self, window: TokenWindow, inputs: Dict[str, TokenBatch]
    ) -> Dict[str, TokenBatch]:
        return {}

    def idle_outputs(
        self, window: TokenWindow
    ) -> Optional[Dict[str, TokenBatch]]:
        """A null sink is stateless: an idle window needs no tick."""
        if type(self)._tick is not NullModel._tick:
            return None
        return {}

    def idle_horizon(self) -> Optional[int]:
        """A null sink never acts spontaneously (see the base docstring)."""
        if type(self)._tick is not NullModel._tick:
            return self.current_cycle
        return None
