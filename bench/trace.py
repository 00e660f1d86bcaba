"""Span tracer installed *around* the program's public entry points.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps a
class or module attribute for a timing wrapper (:meth:`Tracer.wrap`) or
a counting wrapper (:meth:`Tracer.count`) and restores it afterwards.
Per span name it keeps ``(count, total seconds, self seconds)`` where

    self = duration - the part of the interval covered by child spans,

so self times of all names sum to at most the traced wall clock and the
remainder is reported as ``trace.unattributed_s``.  The first
:data:`MAX_SPANS` spans are also kept in full — name, start, end and
the index of the span that caused them — for ``trace_<workload>.json``.

Spans live in memory and are only written out when the traced repeat
has ended.  The tracer records on the thread that created it; calls
from other threads pass straight through (the serve workload's client
threads are timed by hand instead).

:func:`install_layers` is the one table that says which entry point
belongs to which layer; the metric names built from it are listed in
``BENCHMARK.json`` under ``per_layer``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from threading import get_ident
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Full spans kept per traced repeat: about the first 50 rounds of the
#: 41-model ``ping_farm`` (one tick span per model per round plus the
#: NIC/event/link children of the busy ones).
MAX_SPANS = 5000


class Tracer:
    """In-memory span aggregation plus attribute patching."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        #: name -> [count, total_s, self_s]
        self.agg: Dict[str, List[float]] = {}
        #: name -> count (counting wrappers, no timing)
        self.counts: Dict[str, int] = {}
        #: (name, start, end, parent index or -1); slots are reserved at
        #: span start so a parent's index is known to its children.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self._stack: List[List[Any]] = []  # [child seconds, span index]
        self._patched: List[Tuple[Any, str, Any]] = []
        self._thread = get_ident()

    # -- recording ------------------------------------------------------

    def _open(self) -> List[Any]:
        index = -1
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: List[Any], start: float,
               end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        record = self.agg.get(name)
        if record is None:
            record = self.agg[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += duration
        record[2] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        if frame[1] >= 0:
            parent = stack[-1][1] if stack else -1
            self.spans[frame[1]] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record an explicit span around a block of benchmark code."""
        frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, perf_counter())

    # -- patching -------------------------------------------------------

    def _swap(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        self._patched.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        open_span, close_span, thread = self._open, self._close, self._thread

        def make(fn: Callable) -> Callable:
            def timed(*args: Any, **kwargs: Any) -> Any:
                if get_ident() != thread:
                    return fn(*args, **kwargs)
                frame = open_span()
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(name, frame, start, perf_counter())

            timed.__wrapped__ = fn  # type: ignore[attr-defined]
            return timed

        self._swap(owner, attr, make)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them.

        For entry points called about once per target cycle
        (``EventQueue.schedule``), where two clock reads per call would
        cost more than the call.
        """
        counts = self.counts
        counts.setdefault(name, 0)

        def make(fn: Callable) -> Callable:
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn  # type: ignore[attr-defined]
            return counted

        self._swap(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def reset(self) -> None:
        """Forget what was recorded (a forked worker starts from zero)."""
        self.agg.clear()
        for name in self.counts:
            self.counts[name] = 0
        self.spans.clear()
        self._stack.clear()
        self._thread = get_ident()

    # -- reading --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "names": {
                name: {"count": int(c), "total_s": total, "self_s": self_s}
                for name, (c, total, self_s) in sorted(self.agg.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                for s in self.spans if s is not None
            ],
            "spans_kept": self.max_spans,
        }


def merge_aggregates(dumps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the ``names``/``counts`` of several :meth:`Tracer.to_dict`."""
    names: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for dump in dumps:
        for name, record in dump["names"].items():
            into = names.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key in into:
                into[key] += record[key]
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"names": names, "counts": counts}


def install_layers(tracer: Tracer, worker_dump_dir: Optional[str] = None
                   ) -> None:
    """Patch every layer's public entry points; undo with ``uninstall``.

    Must run *before* ``elaborate()``: ``ServerBlade.__init__`` decides
    idle-window elision by comparing ``type(self)._tick`` with
    ``ServerBlade._tick``, which stays true only if both already name
    the wrapper.  The batched engine binds ``model._tick`` and
    ``shadow.step`` per ``run_until`` call, so class-level patches are
    picked up.

    The batched round loop inlines the aligned ``LinkEndpoint`` push/pop
    and the idle relabel; what remains observable of the link layer from
    outside is the busy-window relabel (``TokenStream.from_flits``,
    ``ColumnarBatch.shift``/``to_stream``), the stream→batch
    materialisation at blade inputs, and the generic ``push``/``pop``
    fallbacks.  In-program spans are a later issue.
    """
    from repro.core.channel import Link, LinkEndpoint
    from repro.core.events import EventQueue
    from repro.core.simulation import Simulation
    from repro.nic.nic import NIC
    from repro.perf.stream import TokenStream
    from repro.perf.switch import ColumnarBatch, ColumnarSwitch
    from repro.swmodel.server import ServerBlade
    from repro.tile.caches import MemoryHierarchy

    tracer.wrap(Simulation, "run_until", "perf.engine")
    tracer.wrap(ColumnarSwitch, "step", "perf.switch")
    for owner, attr in (
        (LinkEndpoint, "push"), (LinkEndpoint, "pop"),
        (Link, "send_from_a"), (Link, "send_from_b"),
        (TokenStream, "from_flits"), (TokenStream, "to_batch"),
        (ColumnarBatch, "shift"), (ColumnarBatch, "to_stream"),
    ):
        tracer.wrap(owner, attr, "core.link")
    tracer.wrap(EventQueue, "run_until", "core.events")
    tracer.count(EventQueue, "schedule", "core.events_scheduled")
    tracer.wrap(NIC, "post_send", "nic.tx")
    tracer.wrap(NIC, "fill_tx", "nic.tx")
    tracer.wrap(NIC, "receive_tokens", "nic.rx")
    tracer.wrap(MemoryHierarchy, "access", "tile.mem")
    tracer.wrap(MemoryHierarchy, "dma_access", "tile.mem")
    tracer.wrap(ServerBlade, "_tick", "swmodel.blade")
    if worker_dump_dir is not None:
        _install_worker_dump(tracer, worker_dump_dir)


def _install_worker_dump(tracer: Tracer, dump_dir: str) -> None:
    """Make forked ``repro.dist`` workers write their own aggregates.

    Workers inherit the patched classes by fork, but their spans die
    with them.  ``shard_entry`` looks ``run_shard`` up in its module at
    call time, so wrapping that global lets each worker reset the
    inherited tracer, run its shard under one ``dist.worker`` span, and
    leave ``worker<N>.json`` behind before it reports its result.

    The shm ring's ``encode_entries`` is wrapped too, only to keep hold
    of the largest frame the worker sent; ``dist.frame_*`` time the
    program's own codec on that captured frame after the shard is done.
    """
    import repro.dist.shm as shm_module
    import repro.dist.worker as worker_module

    largest: Dict[str, Any] = {"bytes": 0, "entries": None}

    def make_encode(fn: Callable) -> Callable:
        def encode_entries(entries: Any, out: bytearray) -> int:
            before = len(out)
            count = fn(entries, out)
            if len(out) - before > largest["bytes"]:
                largest["bytes"] = len(out) - before
                largest["entries"] = list(entries)
            return count

        return encode_entries

    def make_run(fn: Callable) -> Callable:
        def run_shard(context: Any, worker_id: int) -> Any:
            tracer.reset()
            largest.update(bytes=0, entries=None)
            try:
                with tracer.span("dist.worker"):
                    return fn(context, worker_id)
            finally:
                dump = tracer.to_dict()
                dump["spans"] = []
                dump["frame"] = _time_frame(largest["entries"])
                path = os.path.join(dump_dir, f"worker{worker_id}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(dump, handle)

        return run_shard

    tracer._swap(shm_module, "encode_entries", make_encode)
    tracer._swap(worker_module, "run_shard", make_run)


def _time_frame(entries: Optional[List[Any]], rounds: int = 50
                ) -> Optional[Dict[str, float]]:
    """Median encode/decode microseconds of one captured exchange frame."""
    if not entries:
        return None
    from repro.dist.frame import decode_entries, encode_entries

    payload = bytearray()
    count = encode_entries(entries, payload)
    encode_s, decode_s = [], []
    for _ in range(rounds):
        start = perf_counter()
        encode_entries(entries, bytearray())
        encode_s.append(perf_counter() - start)
        start = perf_counter()
        decode_entries(payload, count)
        decode_s.append(perf_counter() - start)
    encode_s.sort()
    decode_s.sort()
    return {
        "encode_us": encode_s[rounds // 2] * 1e6,
        "decode_us": decode_s[rounds // 2] * 1e6,
        "bytes": len(payload),
        "entries": count,
    }


def read_worker_dumps(dump_dir: str) -> List[Dict[str, Any]]:
    """Load and delete the ``worker<N>.json`` files of one traced run."""
    dumps = []
    for entry in sorted(os.listdir(dump_dir)):
        if entry.startswith("worker") and entry.endswith(".json"):
            path = os.path.join(dump_dir, entry)
            with open(path, encoding="utf-8") as handle:
                dumps.append(json.load(handle))
            os.unlink(path)
    return dumps
