"""Sparse numpy token streams: the batched engine's wire format.

A :class:`~repro.core.token.TokenBatch` stores valid tokens in a Python
dict keyed by absolute cycle.  That is the right shape for models (which
inspect flits one by one) but the wrong shape for *transport*: shifting
a batch across a link of latency ``l`` rebuilds the dict one entry at a
time, so the relabelling cost scales with per-flit Python calls.

A :class:`TokenStream` holds the same window as one numpy structured
array of ``(cycle, flit)`` records sorted by cycle, so the ``+l``
relabel is a single vectorized add on the ``cycle`` column — one array
op per link per round.  Idle windows never become streams at all: the
engine shifts the model's empty output batch in place (idle-token
elision — a quiet link costs two integer adds per round, no numpy
overhead, no allocation).

Streams duck-type the parts of ``TokenBatch`` the channel layer touches
(``start_cycle``/``length``/``end_cycle``/``flits``/``valid_count``),
so :class:`~repro.core.channel.LinkEndpoint` queues can hold a mix of
both and the scalar ``pop`` path still consumes them correctly.  The
distributed wire ships whichever object the link layer holds — streams
pickle as-is, with no convert/deconvert hop on either side.

A :class:`ColumnarBatch` goes one step further for traffic whose
producer and consumer both speak whole packets (columnar switches, the
NIC): one row per packet *segment*, so neither the relabel nor the
consumer's frame-boundary scan touches a flit.  It lives here, beside
the stream it materializes into, so the NIC can speak rows without
importing the switch fast path.

Conversion back to a batch (at the model boundary) goes through
``ndarray.tolist()`` so cycles come back as Python ``int``: letting
``numpy.int64`` leak into flit dicts would silently change ``repr()``
digests and break ``json.dumps`` of CLI results.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.token import Flit, TokenBatch

#: One valid token: absolute target cycle plus the flit payload.  The
#: ``last`` flag mirrors ``Flit.last`` so frame boundaries can be found
#: with one array scan (columnar switch ingress) instead of touching
#: every flit object.
TOKEN_DTYPE = np.dtype(
    [("cycle", np.int64), ("flit", np.object_), ("last", np.bool_)]
)

#: Shared zero-length token array for streams with no valid tokens.
EMPTY_TOKENS = np.empty(0, dtype=TOKEN_DTYPE)


class TokenStream:
    """A contiguous window of tokens backed by a structured array.

    Covers target cycles ``[start_cycle, start_cycle + length)`` exactly
    like a ``TokenBatch``; ``tokens`` holds the valid cycles in ascending
    order.  Instances are treated as immutable once enqueued or shipped
    (:meth:`shift` is only applied by the producer before handoff).
    """

    __slots__ = ("start_cycle", "length", "tokens")

    def __init__(
        self,
        start_cycle: int,
        length: int,
        tokens: np.ndarray = EMPTY_TOKENS,
    ) -> None:
        self.start_cycle = start_cycle
        self.length = length
        self.tokens = tokens

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

        ``shift`` applies the link-latency relabel during construction:
        the cycle column is filled once and shifted with one vectorized
        add, which is the whole point of the representation.
        """
        items = sorted(flits.items())
        tokens = np.empty(len(items), dtype=TOKEN_DTYPE)
        tokens["cycle"] = [cycle for cycle, _ in items]
        tokens["flit"] = [flit for _, flit in items]
        # getattr: transport tests (and any out-of-tree payload) may
        # carry opaque objects; only real flits have frame boundaries.
        tokens["last"] = [
            getattr(flit, "last", False) for _, flit in items
        ]
        if shift:
            tokens["cycle"] += shift
        return cls(start_cycle + shift, length, tokens)

    @classmethod
    def from_wire(
        cls,
        start_cycle: int,
        length: int,
        cycles: np.ndarray,
        flits: list,
    ) -> "TokenStream":
        """Rebuild a stream from its shared-memory wire representation.

        ``cycles`` is the raw int64 column as read off the transport
        ring (typically a read-only ``frombuffer`` view) and ``flits``
        the matching unpickled payload list; both columns land in the
        token array with one vectorized assignment each, so the
        consumer never builds intermediate per-token tuples.
        """
        tokens = np.empty(len(flits), dtype=TOKEN_DTYPE)
        tokens["cycle"] = cycles
        tokens["flit"] = flits
        tokens["last"] = np.fromiter(
            (getattr(flit, "last", False) for flit in flits),
            np.bool_,
            count=len(flits),
        )
        return cls(start_cycle, length, tokens)

    # -- transport ------------------------------------------------------

    def shift(self, latency: int) -> "TokenStream":
        """Relabel in place by ``+latency``: one array op, no copy.

        Only the producer may call this, before the stream is enqueued
        or shipped; consumers treat streams as immutable.
        """
        self.start_cycle += latency
        if self.tokens.shape[0]:
            self.tokens["cycle"] += latency
        return self

    def to_batch(self) -> TokenBatch:
        """Materialize as a ``TokenBatch`` with Python-int cycle keys."""
        batch = TokenBatch(self.start_cycle, self.length)
        tokens = self.tokens
        if tokens.shape[0]:
            batch.flits = dict(
                zip(tokens["cycle"].tolist(), tokens["flit"].tolist())
            )
        return batch

    # -- TokenBatch duck interface --------------------------------------

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.length

    @property
    def valid_count(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def flits(self) -> Dict[int, Flit]:
        """The sparse cycle -> flit map, materialized on demand.

        Built fresh per access (no caching: a cached dict would go
        stale under :meth:`shift`).  The batched engine avoids this
        property on its hot path by converting whole streams with
        :meth:`to_batch`; it exists so the scalar ``LinkEndpoint.pop``
        can gather and split mixed queues.
        """
        tokens = self.tokens
        if not tokens.shape[0]:
            return {}
        return dict(zip(tokens["cycle"].tolist(), tokens["flit"].tolist()))

    def contains_cycle(self, cycle: int) -> bool:
        return self.start_cycle <= cycle < self.end_cycle

    def iter_flits(self) -> Iterator[Tuple[int, Flit]]:
        """Yield ``(cycle, flit)`` pairs in cycle order."""
        for cycle, flit in zip(
            self.tokens["cycle"].tolist(), self.tokens["flit"].tolist()
        ):
            yield cycle, flit

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
    packet segment* instead of one dict entry per flit:

    ``frames[k]``       the packet's EthernetFrame (side table),
    ``first_cycle[k]``  absolute cycle of its first flit in this window,
    ``count[k]``        flits it occupies in this window,
    ``first_index[k]``  flit index of that first flit,
    ``total[k]``        the frame's full flit count,

    with a uniform flit ``stride`` (a switch port's ``cycles_per_flit``;
    1 for a NIC, whose rate limiter shapes traffic into back-to-back
    bursts), so flit ``j`` of row ``k`` sits at cycle
    ``first_cycle[k] + j * stride``.  A frame may span several rows —
    one per limiter burst, or one per window it straddles — and is
    complete at the last flit of the row where
    ``first_index + count == total``.  Routing and accounting fields
    (``src``/``dst``/``size_bytes``) are read off ``frames`` by the
    consumer that needs them, for completed rows only.

    Duck-types the parts of ``TokenBatch`` the channel layer and the
    scalar consumers touch, so mixed queues (engine switches, faults,
    checkpoint restores) keep working; materialization to flits happens
    only there.
    """

    __slots__ = (
        "start_cycle", "length", "stride", "frames", "first_cycle",
        "count", "first_index", "total", "_valid",
    )

    def __init__(
        self,
        start_cycle: int,
        length: int,
        stride: int,
        frames: np.ndarray,
        first_cycle: np.ndarray,
        count: np.ndarray,
        first_index: np.ndarray,
        total: np.ndarray,
    ) -> None:
        self.start_cycle = start_cycle
        self.length = length
        self.stride = stride
        self.frames = frames
        self.first_cycle = first_cycle
        self.count = count
        self.first_index = first_index
        self.total = total
        self._valid = int(count.sum())

    # -- transport ------------------------------------------------------

    def shift(self, latency: int) -> "ColumnarBatch":
        """Relabel in place by ``+latency``: two vectorized adds."""
        if latency:
            self.start_cycle += latency
            self.first_cycle += latency
        return self

    def _materialize(self, shift: int = 0) -> Tuple[List[int], List[Flit]]:
        """Flit cycles and objects in ascending cycle order."""
        cycles: List[int] = []
        flits: List[Flit] = []
        stride = self.stride
        first_cycle = self.first_cycle.tolist()
        counts = self.count.tolist()
        first_index = self.first_index.tolist()
        totals = self.total.tolist()
        for k, frame in enumerate(self.frames.tolist()):
            base = first_cycle[k] + shift
            index = first_index[k]
            last_index = totals[k] - 1
            for j in range(counts[k]):
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
        tokens = np.empty(len(flits), dtype=TOKEN_DTYPE)
        tokens["cycle"] = cycles
        tokens["flit"] = flits
        # A flit is ``last`` iff it closes its packet: the final flit of
        # each completing (done) row's run in the window.
        last = np.zeros(len(flits), dtype=np.bool_)
        if len(flits):
            run_ends = np.cumsum(self.count) - 1
            done = self.first_index + self.count == self.total
            last[run_ends[done]] = True
        tokens["last"] = last
        return TokenStream(self.start_cycle + shift, self.length, tokens)

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
            f"rows={self.frames.shape[0]}, valid={self._valid})"
        )
