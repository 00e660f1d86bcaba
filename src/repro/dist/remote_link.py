"""Remote link endpoints: boundary ports of a partitioned simulation.

A link whose two models live in different worker processes is split into
two halves.  Each half keeps using the worker's local copy of the
:class:`~repro.core.channel.Link` object for its *consuming* queue (the
side that was primed with one latency of empty tokens), while the
*producing* direction bypasses the local queue: the outgoing batch is
relabelled ``+latency`` exactly as ``send_from_a``/``send_from_b`` would
(:meth:`~repro.core.channel.Link.shift_for_transport`) and handed to the
transport outbox instead.  The peer worker pushes the received batch
into its local copy of the same endpoint.

Because relabelling, priming, and the contiguity check in
:meth:`~repro.core.channel.LinkEndpoint.push` are all unchanged, a
token's producer-cycle-``M`` → consumer-cycle-``M + l`` timing is
bit-identical to the in-process link — the distributed engine differs
from the serial one only in *which host process* holds each queue,
which is precisely the paper's host-decoupling claim (Section III-B2).
Gap semantics survive too: a batch lost in transit (fault injection)
leaves the consumer starving at the hole, raising the same
:class:`~repro.core.channel.TokenStarvationError` diagnostics.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core.channel import Link, LinkEndpoint
from repro.core.token import TokenBatch

#: One wire message entry: (link index, relabelled window).  The window
#: ships in whatever representation the producing engine holds — a
#: sparse ``TokenBatch`` (scalar engine, or an idle window under the
#: batched engine) or a :class:`~repro.perf.stream.TokenStream` (a busy
#: window under the batched engine).  The consuming endpoint's ``push``
#: is duck-typed over both, so there is no convert/deconvert hop on
#: either side of the wire.
WireEntry = Tuple[int, Any]


class LostWindow:
    """A window whose payload was lost in transit (fault injection).

    Carries only the cycle extent; :func:`deliver` turns it into a
    consumer-side queue gap via
    :meth:`~repro.core.channel.LinkEndpoint.mark_gap`.  Picklable, so
    the pipe transport ships it like any other window; the shm ring
    encodes it as a header flag instead (:mod:`repro.dist.shm`).
    """

    __slots__ = ("start_cycle", "length")

    def __init__(self, start_cycle: int, length: int) -> None:
        self.start_cycle = start_cycle
        self.length = length

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LostWindow(start={self.start_cycle}, len={self.length})"


class Outbox:
    """One peer's outgoing wire entries for the round in progress.

    Attachments append; the transport *drains* — :meth:`drain` hands
    the accumulated list over by reference and replaces it, so neither
    transport copies batch contents.  The shm ring serializes entries
    synchronously inside ``send`` and the pipe transport hands the
    drained list (which nothing mutates afterwards — shipped windows
    are immutable once relabelled) to ``mp.Queue``'s feeder thread,
    eliminating the defensive per-round ``list(outbox)`` copy the
    queue transport used to make.
    """

    __slots__ = ("entries", "total_entries", "peak_entries")

    def __init__(self) -> None:
        self.entries: List[WireEntry] = []
        #: Entries ever drained / most entries in a single drain —
        #: per-peer coalescing stats the distributed profiler reports
        #: (peak == boundary links toward the peer in a healthy run).
        self.total_entries = 0
        self.peak_entries = 0

    def append(self, entry: WireEntry) -> None:
        self.entries.append(entry)

    def drain(self) -> List[WireEntry]:
        entries = self.entries
        self.entries = []
        count = len(entries)
        self.total_entries += count
        if count > self.peak_entries:
            self.peak_entries = count
        return entries

    def lose_tail(self) -> int:
        """Replace the newest pending entry's payload with a gap marker.

        The transport-loss fault hook for boundary links: the window
        still occupies its cycle extent on the wire (so later windows
        stay contiguous at the consumer) but arrives as a
        :class:`LostWindow`.  Returns the number of tokens lost, like
        :meth:`~repro.core.channel.Link.lose_in_flight`.
        """
        if not self.entries:
            return 0
        link_index, window = self.entries[-1]
        if isinstance(window, LostWindow):
            return 0
        self.entries[-1] = (
            link_index, LostWindow(window.start_cycle, window.length)
        )
        return window.length

    def __len__(self) -> int:
        return len(self.entries)


class RemoteAttachment:
    """A boundary port's attachment: local consume, remote transmit.

    Duck-types the orchestrator's ``_Attachment`` (``receive`` /
    ``transmit`` plus ``link``/``side`` for starvation diagnostics), so
    either round loop treats boundary and interior ports uniformly.
    """

    __slots__ = (
        "link", "side", "link_index", "sent_valid", "_inbound", "_outbox",
    )

    def __init__(
        self,
        link: Link,
        side: str,
        link_index: int,
        outbox: Outbox,
    ) -> None:
        if side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")
        self.link = link
        self.side = side
        self.link_index = link_index
        #: Valid tokens actually shipped over the transport; batches are
        #: pickled sparse, so this — not the quantum — is what sizes the
        #: wire payload in the engine's performance model.
        self.sent_valid = 0
        # Side "a" consumes tokens travelling b->a and vice versa.
        self._inbound: LinkEndpoint = link.to_a if side == "a" else link.to_b
        self._outbox = outbox

    def receive(self, length: int) -> TokenBatch:
        return self._inbound.pop(length)

    def transmit(self, batch: TokenBatch) -> None:
        # Keep the per-direction flit counters the local Link would have
        # maintained, so merged statistics match the serial engine.
        if self.side == "a":
            self.link.flits_a_to_b += batch.valid_count
        else:
            self.link.flits_b_to_a += batch.valid_count
        self.sent_valid += batch.valid_count
        self._outbox.append(
            (self.link_index, self.link.shift_for_transport(batch))
        )

    def ship(self, shifted: Any, valid_count: int) -> None:
        """Outbox an *already relabelled* window (batched-engine path).

        The batched engine applies the ``+latency`` shift in the
        producer's own representation — in place for idle batches, one
        vectorized cycle-add for streams — so this method only does the
        counter bookkeeping :meth:`transmit` would and appends the
        object as-is; the wire carries exactly what a local queue
        would have held.
        """
        if self.side == "a":
            self.link.flits_a_to_b += valid_count
        else:
            self.link.flits_b_to_a += valid_count
        self.sent_valid += valid_count
        self._outbox.append((self.link_index, shifted))

    @property
    def available_tokens(self) -> int:
        return self._inbound.available_tokens


def deliver(endpoint: LinkEndpoint, window: Any) -> None:
    """Push a window received from the peer into its local consuming queue.

    The window was already relabelled by the sender and may be a batch
    or a stream (see :data:`WireEntry`); the endpoint's own contiguity
    check rejects any reordered or dropped-and-resumed delivery, so
    transport bugs surface as loud errors rather than silent timing
    skew.  A :class:`LostWindow` never enqueues — it becomes a queue
    gap, preserving the fault model's starve-at-the-hole semantics
    across the process boundary.
    """
    if type(window) is LostWindow:
        endpoint.mark_gap(window.start_cycle, window.end_cycle)
    else:
        endpoint.push(window)
