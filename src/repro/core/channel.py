"""Simulated links: latency-buffered token channels.

A :class:`Link` models a target link of latency ``l`` cycles connecting two
FAME-1 decoupled endpoints.  Exactly ``l`` tokens are in flight in each
direction at any time: if an endpoint issues a token at cycle ``M`` the
other side consumes it at cycle ``M + l`` (paper Section III-B2).  The link
implements this by relabelling batches with ``+l`` as they are sent, and by
priming each direction with ``l`` empty tokens covering cycles ``[0, l)``
(step 1 of the walk-through in Section III-B2).

The simulation advances in rounds of a fixed *quantum* ``Q <= l`` cycles.
Each round, each endpoint consumes one window of ``Q`` input tokens from
each link and produces one window of ``Q`` output tokens, so the in-flight
count is invariant and the distributed simulation is deadlock-free and
deterministic.  Batching up to the link latency does not compromise cycle
accuracy (Section III-B2); a smaller quantum is equally exact, merely
slower on the host.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.core.token import TokenBatch
from repro import ReproError


class TokenStarvationError(ReproError):
    """A channel stopped advancing: an endpoint lacks input tokens.

    In a healthy token-coordinated simulation this can never happen —
    links are primed with one latency of empty tokens and every round
    conserves the in-flight count.  It *does* happen when a transport
    hop loses a batch (the fault model's lost-heartbeat / stalled-socket
    scenario, injected via :meth:`Link.lose_in_flight`).  The message
    names the stalled endpoint so the diagnosis is actionable.
    """

    def __init__(
        self,
        message: str,
        model_name: str = "",
        port: str = "",
        link_name: str = "",
        cycle: int = 0,
    ) -> None:
        super().__init__(message)
        self.model_name = model_name
        self.port = port
        self.link_name = link_name
        self.cycle = cycle


class LinkEndpoint:
    """One direction's consuming end of a link (a token queue).

    Queue entries are :class:`~repro.core.token.TokenBatch` objects or
    anything duck-typing their window shape (``start_cycle`` /
    ``length`` / ``end_cycle`` / ``flits``) — in practice the batched
    engine's :class:`~repro.perf.stream.TokenStream`.  Every method
    here works on the mix, so the two engines can interleave on one
    simulation (e.g. a scalar replay over queues a batched run filled).

    The batched engine inlines the aligned fast case of :meth:`push`
    and :meth:`pop` (whole-window append/popleft); any change to the
    contiguity or gap semantics here must be mirrored in
    :mod:`repro.perf.engine`.
    """

    __slots__ = ("_queue", "_consumed_until", "_pushed_until", "_gap_at")

    def __init__(self) -> None:
        self._queue: Deque[Any] = deque()
        self._consumed_until = 0
        # End cycle of the newest batch ever pushed.  Normally equals the
        # queue tail's end; after a discard_tail it preserves the
        # producer's cursor so pushes stay aligned across the gap.
        self._pushed_until = 0
        # Start cycle of a lost batch, if any: tokens at or beyond this
        # cycle are unreachable and the consumer will starve there.
        self._gap_at: "int | None" = None

    def push(self, batch: Any) -> None:
        """Enqueue a batch/stream; windows must be contiguous in cycle order."""
        if batch.start_cycle != self._pushed_until:
            raise ValueError(
                f"non-contiguous batch: expected start {self._pushed_until}, "
                f"got {batch.start_cycle}"
            )
        self._queue.append(batch)
        self._pushed_until = batch.end_cycle

    def pop(self, length: int) -> TokenBatch:
        """Consume exactly ``length`` tokens from the head of the queue.

        Gathers across queued batches and splits the final one if needed,
        so any quantum not exceeding the buffered token count works.
        Stream entries are consumed through their lazy ``flits`` view and
        come back as plain batches; split tails are always batches.
        """
        if self.available_tokens < length:
            raise LookupError(
                f"token queue holds {self.available_tokens} tokens, "
                f"need {length}: endpoint would deadlock"
            )
        out = TokenBatch(self._consumed_until, length)
        remaining = length
        while remaining > 0:
            head = self._queue[0]
            if head.length <= remaining:
                self._queue.popleft()
                out.flits.update(head.flits)
                remaining -= head.length
            else:
                split_at = head.start_cycle + remaining
                tail = TokenBatch(split_at, head.length - remaining)
                for cycle, flit in head.flits.items():
                    if cycle < split_at:
                        out.flits[cycle] = flit
                    else:
                        tail.flits[cycle] = flit
                self._queue[0] = tail
                remaining = 0
        self._consumed_until += length
        return out

    def discard_tail(self) -> int:
        """Drop the most recently enqueued batch; returns its length.

        Models a transport hop losing one in-flight token batch (fault
        injection only — a healthy link never discards).  The producer's
        push cursor is left untouched, so later batches still enqueue
        beyond the hole — but the consumer can never advance past it:
        :attr:`available_tokens` stops at the gap, and the pop that
        reaches it starves, which is exactly what the watchdog
        diagnostics are for.
        """
        if not self._queue:
            return 0
        lost = self._queue.pop()
        if self._gap_at is None or lost.start_cycle < self._gap_at:
            self._gap_at = lost.start_cycle
        return lost.length

    def mark_gap(self, start_cycle: int, end_cycle: int) -> None:
        """Record a window ``[start_cycle, end_cycle)`` lost *in transit*.

        The transport twin of :meth:`discard_tail`: a remote producer
        shipped the window but the hop dropped it, so the consumer
        never even enqueues it.  The producer cursor still advances
        past the hole (later windows stay contiguous) while
        :attr:`available_tokens` stops at the gap — the pop that
        reaches it starves with the same diagnostics as a local loss.
        """
        if self._gap_at is None or start_cycle < self._gap_at:
            self._gap_at = start_cycle
        if end_cycle > self._pushed_until:
            self._pushed_until = end_cycle

    @property
    def available_tokens(self) -> int:
        """Tokens consumable contiguously from the consumer's cursor."""
        total = sum(batch.length for batch in self._queue)
        if self._gap_at is not None:
            return min(total, max(0, self._gap_at - self._consumed_until))
        return total


class Link:
    """A bidirectional target link of fixed latency between sides A and B.

    ``send_from_a(batch)`` relabels the batch by ``+latency`` cycles and
    enqueues it for consumption at side B, and vice versa.  Statistics
    track the number of valid tokens moved in each direction.
    """

    def __init__(self, latency_cycles: int, name: str = "") -> None:
        if latency_cycles <= 0:
            raise ValueError(
                f"link latency must be positive, got {latency_cycles}"
            )
        self.latency = latency_cycles
        self.name = name
        self.to_b = LinkEndpoint()  # tokens travelling A -> B
        self.to_a = LinkEndpoint()  # tokens travelling B -> A
        self.flits_a_to_b = 0
        self.flits_b_to_a = 0
        self._primed = False

    def prime(self) -> None:
        """Seed both directions with one link latency of empty tokens."""
        if self._primed:
            raise RuntimeError(f"link {self.name!r} already primed")
        self.to_b.push(TokenBatch.empty(0, self.latency))
        self.to_a.push(TokenBatch.empty(0, self.latency))
        self._primed = True

    @property
    def primed(self) -> bool:
        return self._primed

    def shift_for_transport(self, batch: TokenBatch) -> TokenBatch:
        """Relabel a batch by ``+latency`` without enqueueing it.

        This is the cycle arithmetic of :meth:`send_from_a` alone — a
        remote link endpoint applies it before handing the batch to a
        host transport (pipe/socket) instead of a local queue, so
        cross-process links keep the exact ``M -> M + l`` timing of
        in-process ones.
        """
        shifted = TokenBatch(batch.start_cycle + self.latency, batch.length)
        for cycle, flit in batch.flits.items():
            shifted.flits[cycle + self.latency] = flit
        return shifted

    _shift = shift_for_transport

    def send_from_a(self, batch: TokenBatch) -> None:
        """Side A transmits a window; side B will consume it ``l`` later."""
        self.flits_a_to_b += batch.valid_count
        self.to_b.push(self._shift(batch))

    def send_from_b(self, batch: TokenBatch) -> None:
        """Side B transmits a window; side A will consume it ``l`` later."""
        self.flits_b_to_a += batch.valid_count
        self.to_a.push(self._shift(batch))

    def in_flight(self, direction: str) -> int:
        """Tokens currently buffered in one direction ('a_to_b'/'b_to_a')."""
        if direction == "a_to_b":
            return self.to_b.available_tokens
        if direction == "b_to_a":
            return self.to_a.available_tokens
        raise ValueError(f"unknown direction {direction!r}")

    def lose_in_flight(self, direction: str = "a_to_b") -> int:
        """Lose the newest in-flight batch in one direction (fault hook).

        Returns the number of tokens lost.  Used by the fault injector
        to model a dropped transport batch; the receiving endpoint will
        raise :class:`TokenStarvationError` when it reaches the gap.
        """
        endpoint = self.to_b if direction == "a_to_b" else self.to_a
        if direction not in ("a_to_b", "b_to_a"):
            raise ValueError(f"unknown direction {direction!r}")
        return endpoint.discard_tail()
