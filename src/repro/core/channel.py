"""Simulated links: latency-buffered token channels.

A :class:`Link` models a target link of latency ``l`` cycles connecting two
FAME-1 decoupled endpoints.  Exactly ``l`` tokens are in flight in each
direction at any time: if an endpoint issues a token at cycle ``M`` the
other side consumes it at cycle ``M + l`` (paper Section III-B2).  The link
implements this by relabelling batches with ``+l`` as they are sent, and by
priming each direction with ``l`` empty tokens covering cycles ``[0, l)``
(step 1 of the walk-through in Section III-B2).  Empty tokens are a
cursor, not a queue of empty windows: priming moves the push cursor to
``l``, and an endpoint queues only windows that carry a flit.

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
    links are primed with one latency of tokens and every round
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
    """One direction's consuming end of a link: two cursors and a queue.

    The endpoint holds the tokens for cycles ``[consumed_until,
    pushed_until)``.  Its queue keeps only the windows among them that
    carry at least one valid flit, in cycle order; a span no queued
    window covers is empty by definition, so idle time is a cursor
    move, not a queue of empty windows.  On a healthy link of latency
    ``l`` the two cursors are ``l`` apart at every round boundary.

    Queue entries are :class:`~repro.core.token.TokenBatch` objects or
    anything duck-typing their window shape (``start_cycle`` /
    ``length`` / ``end_cycle`` / ``flits`` / ``valid_count``) — in
    practice the batched engine's :class:`~repro.perf.stream.TokenStream`
    and :class:`~repro.perf.stream.ColumnarBatch`.  Every method here
    works on the mix, so the two engines can interleave on one
    simulation.  The batched engine inlines the aligned fast case of
    :meth:`push` and :meth:`pop` (whole-window append/popleft); any
    change to the contiguity or gap semantics here must be mirrored in
    :mod:`repro.perf.engine`.
    """

    __slots__ = (
        "_queue", "_consumed_until", "_pushed_until", "_tail_at", "_gap_at",
    )

    def __init__(self) -> None:
        self._queue: Deque[Any] = deque()
        self._consumed_until = 0
        # End cycle of the newest window ever pushed.  After a
        # discard_tail it keeps the producer's cursor, so pushes stay
        # aligned across the gap.
        self._pushed_until = 0
        # Start cycle of the newest pushed window while it is still
        # held, or -1 once a discard_tail lost it.
        self._tail_at = 0
        # Start cycle of a lost span, if any: tokens at or beyond this
        # cycle are unreachable and the consumer will starve there.
        self._gap_at: "int | None" = None

    def push(self, batch: Any) -> None:
        """Append a window; windows must be contiguous in cycle order.

        Every window, empty or not, must start where the last one
        ended.  Only a window carrying a flit is queued.
        """
        if batch.start_cycle != self._pushed_until:
            raise ValueError(
                f"non-contiguous batch: expected start {self._pushed_until}, "
                f"got {batch.start_cycle}"
            )
        if batch.valid_count:
            self._queue.append(batch)
        self._tail_at = batch.start_cycle
        self._pushed_until = batch.end_cycle

    def pop(self, length: int) -> TokenBatch:
        """Consume exactly ``length`` tokens from the consumer's cursor.

        Gathers the flits of every queued window overlapping the span
        and splits the last one if it reaches past it; the split-off
        tail stays queued only while it still carries a flit.  Entries
        come back as one plain batch.
        """
        start = self._consumed_until
        if self.available_tokens < length:
            raise LookupError(
                f"token queue holds {self.available_tokens} tokens, "
                f"need {length}: endpoint would deadlock"
            )
        end = start + length
        out = TokenBatch(start, length)
        flits = out.flits
        queue = self._queue
        while queue:
            head = queue[0]
            if head.start_cycle >= end:
                break
            if head.end_cycle <= end:
                queue.popleft()
                flits.update(head.flits)
                continue
            tail = TokenBatch(end, head.end_cycle - end)
            for cycle, flit in head.flits.items():
                if cycle < end:
                    flits[cycle] = flit
                else:
                    tail.flits[cycle] = flit
            if tail.flits:
                queue[0] = tail
            else:
                queue.popleft()
            break
        self._consumed_until = end
        return out

    def discard_tail(self) -> int:
        """Lose the newest window still held; returns its token count.

        Models a transport hop losing one in-flight token batch (fault
        injection only — a healthy link never discards).  The lost span
        is the newest pushed window, from the consumer's cursor if a
        pop already cut into it; once that window is lost, a further
        call with nothing pushed since loses everything still
        reachable, from the cursor to the gap.  The producer's push
        cursor is left untouched, so later windows still arrive beyond
        the hole — but the consumer can never advance past it:
        :attr:`available_tokens` stops at the gap, and the pop that
        reaches it starves, which is exactly what the watchdog
        diagnostics are for.
        """
        tail = self._tail_at
        gap = self._gap_at
        start = max(tail, self._consumed_until)
        end = self._pushed_until if gap is None or tail >= gap else gap
        if start >= end:
            return 0
        queue = self._queue
        while queue and queue[-1].end_cycle > start:
            queue.pop()
        if gap is None or start < gap:
            self._gap_at = start
        self._tail_at = -1
        return end - start

    @property
    def available_tokens(self) -> int:
        """Tokens consumable contiguously from the consumer's cursor."""
        gap = self._gap_at
        end = self._pushed_until if gap is None else gap
        return end - self._consumed_until


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
        """Seed both directions with one link latency of empty tokens.

        Nothing is queued: each push cursor moves to ``latency``.
        """
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

    def send_from_a(self, batch: TokenBatch) -> None:
        """Side A transmits a window; side B will consume it ``l`` later."""
        self.flits_a_to_b += batch.valid_count
        self.to_b.push(self.shift_for_transport(batch))

    def send_from_b(self, batch: TokenBatch) -> None:
        """Side B transmits a window; side A will consume it ``l`` later."""
        self.flits_b_to_a += batch.valid_count
        self.to_a.push(self.shift_for_transport(batch))

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
