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

    def idle_horizon(self) -> Optional[int]:
        """First cycle at or after ``current_cycle`` this model could act
        at with no valid input token, or None for never.

        The batched engine (:mod:`repro.perf.engine`) reads this after
        each visit to schedule the next; a window with valid tokens
        landing on an input also brings a visit, and a visited model
        always ticks.  An override must return no later than the first
        cycle at which :meth:`_tick` on all-empty inputs would change
        state or emit a token.  This default, ``current_cycle``, asks
        for a visit every round.
        """
        return self.current_cycle

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


class NullModel(Fame1Model):
    """A model that sinks all input tokens and emits empty tokens.

    Useful for terminating unused ports (e.g. an unconnected switch port)
    and in tests.
    """

    def _tick(
        self, window: TokenWindow, inputs: Dict[str, TokenBatch]
    ) -> Dict[str, TokenBatch]:
        return {}

    def idle_horizon(self) -> Optional[int]:
        """A null sink is stateless: it never acts without input."""
        if type(self)._tick is not NullModel._tick:
            return self.current_cycle
        return None
