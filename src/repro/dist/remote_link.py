"""Remote link endpoints: boundary ports of a partitioned simulation.

A link whose two models live in different worker processes is split into
two halves.  Each half keeps using the worker's local copy of the
:class:`~repro.core.channel.Link` object for its *consuming* queue (the
side whose push cursor priming set one latency ahead), while the
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
Only windows that carry tokens cross the wire.  The cycles between them
are a cursor, not a queue of empty windows: delivery moves the push
cursor to each window's start, and the exchange step moves it over the
rest of the exchange's span.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core.channel import Link, LinkEndpoint
from repro.core.token import TokenBatch

#: One wire message entry: (link index, relabelled window).  The window
#: carries tokens and ships in whatever representation the producing
#: engine holds — a sparse ``TokenBatch`` (scalar engine) or a
#: :class:`~repro.perf.stream.TokenStream` (batched engine).  The
#: consuming endpoint's ``push`` is duck-typed over both, so there is
#: no convert/deconvert hop on either side of the wire.
WireEntry = Tuple[int, Any]


class Outbox:
    """One peer's outgoing wire entries for the exchange in progress.

    Attachments append; the channel *drains* — :meth:`drain` hands the
    accumulated list over by reference and replaces it, so no batch
    contents are copied before the channel serializes them
    synchronously inside ``send``.
    """

    __slots__ = ("entries", "total_entries", "peak_entries")

    def __init__(self) -> None:
        self.entries: List[WireEntry] = []
        #: Entries ever drained / most entries in a single drain —
        #: per-peer coalescing stats the distributed profiler reports
        #: (only windows that carry tokens are entries).
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

    def __len__(self) -> int:
        return len(self.entries)


class RemoteAttachment:
    """A boundary port's attachment: local consume, remote transmit.

    Duck-types the orchestrator's ``_Attachment`` (``receive`` /
    ``transmit`` plus ``link``/``side`` for starvation diagnostics), so
    either round loop treats boundary and interior ports uniformly.
    """

    __slots__ = ("link", "side", "link_index", "_inbound", "_outbox")

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
        # Side "a" consumes tokens travelling b->a and vice versa.
        self._inbound: LinkEndpoint = link.to_a if side == "a" else link.to_b
        self._outbox = outbox

    def receive(self, length: int) -> TokenBatch:
        return self._inbound.pop(length)

    def transmit(self, batch: TokenBatch) -> None:
        if batch.flits:
            self.ship(self.link.shift_for_transport(batch), len(batch.flits))

    def ship(self, shifted: Any, valid_count: int) -> None:
        """Outbox an *already relabelled* window (batched-engine path).

        The batched engine applies the ``+latency`` shift in the
        producer's own representation — one vectorized cycle-add for
        streams — so this method only keeps the per-direction flit
        counters the local Link would have (so merged statistics match
        the serial engine) and appends the object as-is.  An empty
        window is not shipped: the receiver's cursor passes over it.
        """
        if not valid_count:
            return
        if self.side == "a":
            self.link.flits_a_to_b += valid_count
        else:
            self.link.flits_b_to_a += valid_count
        self._outbox.append((self.link_index, shifted))


def deliver(endpoint: LinkEndpoint, window: Any, span_end: int) -> None:
    """Push a window received from the peer into its local consuming queue.

    The window was already relabelled by the sender and may be a batch
    or a stream (see :data:`WireEntry`).  It must lie inside its
    exchange's span — from where the queue ends to ``span_end`` — and
    after every window already delivered, so a reordered, duplicated or
    misrouted delivery surfaces as a loud error rather than silent
    timing skew.  The cycles it skips are empty: the push cursor moves
    to the window's start.
    """
    pushed = endpoint._pushed_until
    if window.start_cycle < pushed or window.end_cycle > span_end:
        raise ValueError(
            f"window [{window.start_cycle}, {window.end_cycle}) arrived "
            f"out of order or outside its exchange span [{pushed}, "
            f"{span_end})"
        )
    endpoint._pushed_until = window.start_cycle
    endpoint.push(window)
