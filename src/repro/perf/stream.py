"""Sparse token streams and packet rows: the batched engine's windows.

A :class:`~repro.core.token.TokenBatch` stores valid tokens in a Python
dict keyed by absolute cycle.  That is the right shape for models (which
inspect flits one by one) but the wrong shape for *transport*: shifting
a batch across a link of latency ``l`` rebuilds the dict one entry at a
time.

A :class:`TokenStream` holds the same window as two plain lists in
cycle order, ``cycles`` and ``flit_list``, so the ``+l`` relabel is one
list comprehension over the cycle column and the flits are never
touched.  Idle windows never become streams at all: the engine shifts
the model's empty output batch in place (idle-token elision — a quiet
link costs two integer adds per round and no allocation).

Streams duck-type the parts of ``TokenBatch`` the channel layer touches
(``start_cycle``/``length``/``end_cycle``/``flits``/``valid_count``),
so :class:`~repro.core.channel.LinkEndpoint` queues can hold a mix of
both and the scalar ``pop`` path still consumes them correctly.  The
distributed wire (:mod:`repro.dist.frame`) copies the cycle column into
the frame as it stands and rebuilds a stream from the decoded lists.

A :class:`ColumnarBatch` goes one step further for traffic whose
producer and consumer both speak whole packets (columnar switches, the
NIC): one row per packet *segment*, so neither the relabel nor the
consumer's frame-boundary scan touches a flit.  It lives here, beside
the stream it materializes into, so the NIC can speak rows without
importing the switch fast path.

Every cycle in either container is a Python ``int`` by construction, so
materialized flit dicts hash into ``repr()`` digests and ``json.dumps``
exactly as the scalar engine's do.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.token import Flit, TokenBatch


class TokenStream:
    """A contiguous window of tokens as two parallel lists.

    Covers target cycles ``[start_cycle, start_cycle + length)`` exactly
    like a ``TokenBatch``; ``cycles`` holds the valid cycles in
    ascending order and ``flit_list`` their flits.  Instances are
    treated as immutable once enqueued or shipped (:meth:`shift` is only
    applied by the producer before handoff).
    """

    __slots__ = ("start_cycle", "length", "cycles", "flit_list")

    def __init__(
        self,
        start_cycle: int,
        length: int,
        cycles: List[int],
        flit_list: List[Flit],
    ) -> None:
        self.start_cycle = start_cycle
        self.length = length
        self.cycles = cycles
        self.flit_list = flit_list

    # -- construction ---------------------------------------------------

    @classmethod
    def from_flits(
        cls,
        start_cycle: int,
        length: int,
        flits: Dict[int, Flit],
        shift: int = 0,
    ) -> "TokenStream":
        """Build a (optionally relabelled) stream from a sparse flit map.

        ``shift`` applies the link-latency relabel during construction.
        """
        cycles = sorted(flits)
        flit_list = [flits[cycle] for cycle in cycles]
        if shift:
            cycles = [cycle + shift for cycle in cycles]
        return cls(start_cycle + shift, length, cycles, flit_list)

    # -- transport ------------------------------------------------------

    def shift(self, latency: int) -> "TokenStream":
        """Relabel by ``+latency``: one pass over the cycle column.

        Only the producer may call this, before the stream is enqueued
        or shipped; consumers treat streams as immutable.
        """
        self.start_cycle += latency
        self.cycles = [cycle + latency for cycle in self.cycles]
        return self

    def to_batch(self) -> TokenBatch:
        """Materialize as a ``TokenBatch``."""
        batch = TokenBatch(self.start_cycle, self.length)
        batch.flits = dict(zip(self.cycles, self.flit_list))
        return batch

    # -- TokenBatch duck interface --------------------------------------

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.length

    @property
    def valid_count(self) -> int:
        return len(self.cycles)

    @property
    def flits(self) -> Dict[int, Flit]:
        """The sparse cycle -> flit map, built fresh per access.

        The batched engine converts whole streams with :meth:`to_batch`;
        this exists so the scalar ``LinkEndpoint.pop`` can gather and
        split mixed queues.
        """
        return dict(zip(self.cycles, self.flit_list))

    def contains_cycle(self, cycle: int) -> bool:
        return self.start_cycle <= cycle < self.end_cycle

    def iter_flits(self) -> Iterator[Tuple[int, Flit]]:
        """Yield ``(cycle, flit)`` pairs in cycle order."""
        return zip(self.cycles, self.flit_list)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TokenStream(start={self.start_cycle}, len={self.length}, "
            f"valid={self.valid_count})"
        )


class ColumnarBatch:
    """One window of traffic as per-packet-segment rows.

    Covers target cycles ``[start_cycle, start_cycle + length)`` like a
    :class:`~repro.core.token.TokenBatch`, but stores one *row per
    packet segment* instead of one dict entry per flit.  Each of
    ``rows`` is ``(frame, first_cycle, count, first_index, total)``:

    ``frame``        the packet's EthernetFrame,
    ``first_cycle``  absolute cycle of its first flit in this window,
    ``count``        flits it occupies in this window,
    ``first_index``  flit index of that first flit,
    ``total``        the frame's full flit count,

    with a uniform flit ``stride`` (a switch port's ``cycles_per_flit``;
    1 for a NIC, whose rate limiter shapes traffic into back-to-back
    bursts), so flit ``j`` of a row sits at cycle
    ``first_cycle + j * stride``.  A frame may span several rows — one
    per limiter burst, or one per window it straddles — and is complete
    at the last flit of the row where ``first_index + count == total``.
    Routing and accounting fields (``src``/``dst``/``size_bytes``) are
    read off the frame by the consumer that needs them, for completed
    rows only.  Producers hand over the list they built (the switch's
    ``_drain_segments`` segments, the NIC's bursts) as it stands.

    Duck-types the parts of ``TokenBatch`` the channel layer and the
    scalar consumers touch, so mixed queues (engine switches, faults,
    checkpoint restores) keep working; materialization to flits happens
    only there.
    """

    __slots__ = ("start_cycle", "length", "stride", "rows", "_valid")

    def __init__(
        self,
        start_cycle: int,
        length: int,
        stride: int,
        rows: List[Sequence],
    ) -> None:
        self.start_cycle = start_cycle
        self.length = length
        self.stride = stride
        self.rows = rows
        self._valid = sum([row[2] for row in rows])

    # -- transport ------------------------------------------------------

    def shift(self, latency: int) -> "ColumnarBatch":
        """Relabel by ``+latency``: one pass over the rows."""
        if latency:
            self.start_cycle += latency
            self.rows = [
                (frame, first + latency, count, index, total)
                for frame, first, count, index, total in self.rows
            ]
        return self

    def _materialize(self, shift: int = 0) -> Tuple[List[int], List[Flit]]:
        """Flit cycles and objects in ascending cycle order."""
        cycles: List[int] = []
        flits: List[Flit] = []
        stride = self.stride
        for frame, first, count, index, total in self.rows:
            base = first + shift
            last_index = total - 1
            for j in range(count):
                cycles.append(base + j * stride)
                position = index + j
                flits.append(
                    Flit(
                        data=frame,
                        last=position == last_index,
                        index=position,
                    )
                )
        return cycles, flits

    def to_stream(self, shift: int = 0) -> TokenStream:
        """Materialize as a (relabelled) ``TokenStream`` for scalar
        consumers — tracers, custom models, distributed boundary links."""
        cycles, flits = self._materialize(shift)
        return TokenStream(
            self.start_cycle + shift, self.length, cycles, flits
        )

    def to_batch(self) -> TokenBatch:
        batch = TokenBatch(self.start_cycle, self.length)
        cycles, flits = self._materialize()
        batch.flits = dict(zip(cycles, flits))
        return batch

    # -- TokenBatch duck interface --------------------------------------

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.length

    @property
    def valid_count(self) -> int:
        return self._valid

    @property
    def flits(self) -> Dict[int, Flit]:
        cycles, flits = self._materialize()
        return dict(zip(cycles, flits))

    def contains_cycle(self, cycle: int) -> bool:
        return self.start_cycle <= cycle < self.end_cycle

    def iter_flits(self) -> Iterator[Tuple[int, Flit]]:
        cycles, flits = self._materialize()
        return iter(zip(cycles, flits))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarBatch(start={self.start_cycle}, len={self.length}, "
            f"rows={len(self.rows)}, valid={self._valid})"
        )
