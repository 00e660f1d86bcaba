"""Simulation tokens and token batches.

The fundamental unit of data on a simulated link is a *token* representing
one target cycle's worth of data (paper Section III-B2).  A token consists
of a target payload (data + valid) and a "last" metadata bit marking the
end of a packet so the transport does not need to parse link-layer
protocols.

A link of latency ``N`` always has ``N`` tokens in flight.  Token movement
is batched up to the link latency without compromising cycle accuracy; a
:class:`TokenBatch` is one such batch.

Implementation note: a batch stores only the *valid* tokens (sparse map of
cycle -> flit).  Cycles absent from the map are empty tokens — cycles where
the endpoint received nothing from the network.  The same rule holds one
level up: a port a tick leaves out of its outputs sent a window of empty
tokens, so an idle model builds no batch at all.  This keeps host cost
proportional to traffic while timestamp arithmetic stays identical to
iterating every cycle (tests assert the paper's ``2l + m + n`` delivery
formula holds exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple


@dataclass(frozen=True)
class Flit:
    """One valid token's payload.

    Attributes:
        data: opaque payload reference.  For Ethernet links this is the
            owning :class:`repro.net.ethernet.EthernetFrame`; models never
            inspect raw bytes, only sizes and metadata, which is all the
            timing model needs.
        last: True when this token is the final token of a packet.
        index: position of this flit within its packet (0-based), used by
            reassembly buffers to detect truncated packets.
    """

    data: Any
    last: bool = False
    index: int = 0


class TokenBatch:
    """A contiguous window of ``length`` tokens starting at ``start_cycle``.

    The batch covers target cycles ``[start_cycle, start_cycle + length)``.
    Valid tokens live in a sparse dict keyed by absolute target cycle.
    """

    __slots__ = ("start_cycle", "length", "flits")

    def __init__(
        self,
        start_cycle: int,
        length: int,
        flits: Optional[Dict[int, Flit]] = None,
    ) -> None:
        if length <= 0:
            raise ValueError(f"batch length must be positive, got {length}")
        if start_cycle < 0:
            raise ValueError(f"start cycle must be >= 0, got {start_cycle}")
        self.start_cycle = start_cycle
        self.length = length
        self.flits: Dict[int, Flit] = {}
        if flits:
            for cycle, flit in flits.items():
                self.add(cycle, flit)

    # -- construction ---------------------------------------------------

    @classmethod
    def empty(cls, start_cycle: int, length: int) -> "TokenBatch":
        """A batch of all-empty tokens (a quiet link)."""
        return cls(start_cycle, length)

    def add(self, cycle: int, flit: Flit) -> None:
        """Place a valid token at an absolute target cycle.

        Raises:
            ValueError: if the cycle falls outside the batch window or the
                cycle already holds a valid token (a link carries at most
                one flit per cycle).
        """
        if not self.contains_cycle(cycle):
            raise ValueError(
                f"cycle {cycle} outside batch window "
                f"[{self.start_cycle}, {self.end_cycle})"
            )
        if cycle in self.flits:
            raise ValueError(f"cycle {cycle} already carries a flit")
        self.flits[cycle] = flit

    # -- inspection -------------------------------------------------------

    @property
    def end_cycle(self) -> int:
        """One past the last cycle covered by this batch."""
        return self.start_cycle + self.length

    def contains_cycle(self, cycle: int) -> bool:
        return self.start_cycle <= cycle < self.end_cycle

    def __len__(self) -> int:
        return self.length

    @property
    def valid_count(self) -> int:
        """Number of valid (non-empty) tokens in the batch."""
        return len(self.flits)

    def iter_flits(self) -> Iterator[Tuple[int, Flit]]:
        """Yield ``(cycle, flit)`` pairs in cycle order."""
        for cycle in sorted(self.flits):
            yield cycle, self.flits[cycle]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TokenBatch(start={self.start_cycle}, len={self.length}, "
            f"valid={self.valid_count})"
        )


@dataclass
class TokenWindow:
    """The half-open cycle window ``[start, end)`` a model ticks over.

    Models receive one window per tick; every input port supplies a batch
    covering exactly this window.  An output port may produce one, which
    must then cover exactly this window, or be left out of the tick's
    outputs: an absent window is an empty one.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty window [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start
