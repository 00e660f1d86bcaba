"""Columnar switch hot path: vectorized ingress → route → egress.

The scalar :class:`~repro.net.switch.SwitchModel` walks every flit of
every packet through Python loops — ``iter_flits`` reassembly on
ingress, a heapq pop/push loop in the switching step, and a per-flit
``batch.add`` loop on egress.  Under the batched engine the switch is
the hot model (every token of Section III-B crosses it), so this module
re-expresses one round of switch work over *columns*:

* **ingress** — packet boundaries come from one vectorized last-flit
  scan per port (``np.flatnonzero`` on the ``last`` column of the
  port's :class:`~repro.perf.stream.TokenStream`), or from pure array
  arithmetic when the port feeds from another columnar switch or a
  stock blade NIC;
* **switching** — one ``np.lexsort`` over ``(timestamp, ingress_port)``
  replaces the heapq loop, and route lookup is a gather over the
  round's *unique* destinations (broadcast and unroutable traffic
  falls back to the scalar-identical per-packet walk so memo/stat
  semantics stay exact);
* **egress** — per-port emission schedules are computed arithmetically:
  the pacing recurrence ``cursor_k = max(cursor_{k-1}, release_k) +
  flits_k * pace`` is a ``cumsum`` plus a ``maximum.accumulate``, flit
  cycles are arange-style ranges, and the buffer-bound drop check is a
  vectorized lag mask.

Between columnar endpoints — shadowed switches and stock blade NICs — a
window travels as a :class:`~repro.perf.stream.ColumnarBatch` (re-exported
here): per-packet-segment rows plus a frame side table, so
:class:`~repro.core.token.Flit` objects are never materialized until a
window crosses to a scalar consumer (a tracer, a custom model, or a
distributed boundary link, where the engine converts to a
``TokenStream``).

The shadow is **state-synchronized** with its scalar model:
:class:`ColumnarSwitch` adopts the model's output queues, pacing
cursors, and sequence counter when a batched run starts,
mutates the model's ``stats``/``egress_log``/route caches live,
and flushes the queues back as ``_QueuedPacket`` heaps when the run
ends.  Switching engines mid-simulation (or checkpointing between
runs) therefore observes exactly the state a scalar run would hold,
and the scalar model remains the untouched bit-equality oracle.

Trace-sink instrumentation survives vectorization: when the sink is
enabled the switching step takes the scalar-identical walk and egress
emits ``drop``/``dequeue`` events from the computed columns in queue
order, so the recorded stream is bit-identical to the scalar one.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.token import Flit, TokenBatch, TokenWindow
from repro.net.ethernet import BROADCAST_MAC
from repro.net.switch import SwitchModel, _QueuedPacket
from repro.obs.trace import get_trace_sink
from repro.perf.stream import ColumnarBatch, TokenStream

_INT = np.int64

#: Egress processes the (possibly very long) output queue in chunks:
#: only a window's worth of packets can emit per round, so work stays
#: proportional to traffic, not to backlog.
_EGRESS_CHUNK = 512


def _frame_columns(
    frames: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``src``/``dst``/``size_bytes`` of completed frames as columns."""
    n = frames.shape[0]
    return (
        np.fromiter((f.src for f in frames), _INT, count=n),
        np.fromiter((f.dst for f in frames), _INT, count=n),
        np.fromiter((f.size_bytes for f in frames), _INT, count=n),
    )


class _ColQueue:
    """One egress port's packet buffer as growable parallel columns.

    Mirrors the scalar heap of ``_QueuedPacket``: rows are kept sorted
    by ``(release, seq)``.  New arrivals always release strictly after
    everything buffered (their last flit lands in the current window,
    every buffered packet's landed in an earlier one), so enqueue is a
    plain append and the sort order is an invariant, not a cost.  Only
    the head row can be partially emitted (``head_emitted``), exactly
    like the scalar drain loop's window straddler.
    """

    __slots__ = (
        "release", "seq", "frame", "size", "total",
        "head", "tail", "head_emitted",
    )

    def __init__(self) -> None:
        self.release = np.empty(16, dtype=_INT)
        self.seq = np.empty(16, dtype=_INT)
        self.frame = np.empty(16, dtype=object)
        self.size = np.empty(16, dtype=_INT)
        self.total = np.empty(16, dtype=_INT)
        self.head = 0
        self.tail = 0
        self.head_emitted = 0

    def __len__(self) -> int:
        return self.tail - self.head

    def _reserve(self, extra: int) -> None:
        capacity = self.release.shape[0]
        used = self.tail - self.head
        if self.tail + extra <= capacity and self.head < capacity // 2:
            return
        new_capacity = max(capacity, 16)
        while new_capacity < (used + extra) * 2:
            new_capacity *= 2
        for name in ("release", "seq", "frame", "size", "total"):
            old = getattr(self, name)
            grown = np.empty(new_capacity, dtype=old.dtype)
            grown[:used] = old[self.head:self.tail]
            setattr(self, name, grown)
        self.head = 0
        self.tail = used

    def append(
        self,
        release: np.ndarray,
        seq: np.ndarray,
        frames: np.ndarray,
        size: np.ndarray,
        total: np.ndarray,
    ) -> None:
        n = len(release)
        self._reserve(n)
        tail = self.tail
        self.release[tail:tail + n] = release
        self.seq[tail:tail + n] = seq
        self.frame[tail:tail + n] = frames
        self.size[tail:tail + n] = size
        self.total[tail:tail + n] = total
        self.tail = tail + n

    def remove_at(self, index: int) -> None:
        """Drop the row at absolute ``index`` (buffer-bound drops)."""
        for name in ("release", "seq", "frame", "size", "total"):
            column = getattr(self, name)
            column[index:self.tail - 1] = column[index + 1:self.tail]
        self.tail -= 1


class ColumnarSwitch:
    """Vectorized shadow of a stock :class:`SwitchModel`.

    Built by the batched engine's slot compiler for every switch whose
    phases are all stock (``model.columnar_safe``).  ``step`` replaces
    ``model._tick`` for the duration of one ``run_rounds`` call;
    ``flush`` restores the scalar representation afterwards.
    """

    def __init__(self, model: SwitchModel) -> None:
        if not model.columnar_safe:  # pragma: no cover - compiler guards
            raise ValueError(f"switch {model.name} is not columnar-safe")
        self.model = model
        config = model.config
        self.num_ports = config.num_ports
        self.min_latency = config.min_latency_cycles
        self.pace = config.cycles_per_flit
        self.buffer_flits = config.buffer_flits
        self.ports = list(model.ports)
        # Route gather cache: dst -> egress port (-1 = unroutable).
        # Invalidated with the scalar memo whenever the MAC table
        # version or the default port moves.
        self._dst_ports: Dict[int, int] = {}
        self._route_key: Tuple[int, Optional[int]] = (-1, None)
        self._queues: List[_ColQueue] = []
        self._next_free: List[int] = []
        self._partial: List[Tuple[Optional[Any], int]] = []
        self._seq_next = 0

    # -- state synchronization with the scalar model --------------------

    def adopt(self) -> None:
        """Take over the model's queues/cursors in columnar form."""
        model = self.model
        self._queues = []
        for heap in model._out_queues:
            queue = _ColQueue()
            if heap:
                packets = sorted(heap)
                queue.append(
                    np.fromiter(
                        (p.release_cycle for p in packets), _INT,
                        count=len(packets),
                    ),
                    np.fromiter(
                        (p.seq for p in packets), _INT, count=len(packets)
                    ),
                    np.array([p.frame for p in packets], dtype=object),
                    np.fromiter(
                        (p.frame.size_bytes for p in packets), _INT,
                        count=len(packets),
                    ),
                    np.fromiter(
                        (p.frame.flit_count for p in packets), _INT,
                        count=len(packets),
                    ),
                )
                queue.head_emitted = packets[0].flits_emitted
            self._queues.append(queue)
        self._next_free = list(model._port_next_free)
        # Partial reassembly state per ingress port: (frame, flits seen).
        self._partial = []
        for flits in model._partial:
            if flits:
                self._partial.append((flits[-1].data, len(flits)))
            else:
                self._partial.append((None, 0))
        self._seq_next = next(model._seq)

    def flush(self) -> None:
        """Write queues/cursors back as the scalar representation.

        A list sorted on ``(release, seq)`` satisfies the heap
        invariant, so the scalar drain loop can resume on it directly.
        """
        model = self.model
        for port, queue in enumerate(self._queues):
            head, tail = queue.head, queue.tail
            releases = queue.release[head:tail].tolist()
            seqs = queue.seq[head:tail].tolist()
            frames = queue.frame[head:tail].tolist()
            packets = [
                _QueuedPacket(releases[i], seqs[i], frames[i])
                for i in range(tail - head)
            ]
            if packets:
                packets[0].flits_emitted = queue.head_emitted
            model._out_queues[port] = packets
        for port, cursor in enumerate(self._next_free):
            model._port_next_free[port] = int(cursor)
        for port, (frame, seen) in enumerate(self._partial):
            model._partial[port] = [
                Flit(data=frame, last=False, index=index)
                for index in range(seen)
            ]
        model._seq = itertools.count(self._seq_next)
        # The scalar switching step syncs the memo lazily each tick; do
        # the same sync here so flushed state matches a scalar run's.
        if model._route_version != model._mac_table.version:
            model._route_cache.clear()
            model._route_version = model._mac_table.version

    # -- FAME-1 tick ----------------------------------------------------

    def step(
        self, window: TokenWindow, inputs: Dict[str, Any]
    ) -> Dict[str, Any]:
        arrivals = self._ingress(inputs)
        if arrivals is not None:
            self._switching(arrivals)
        return self._egress(window)

    def idle_outputs(
        self, window: TokenWindow
    ) -> Optional[Dict[str, TokenBatch]]:
        if any(queue.tail - queue.head for queue in self._queues):
            return None
        return {port: window.new_batch() for port in self.ports}

    def idle_horizon(self) -> Optional[int]:
        """Drained columnar switch: wakes only on arrival (never alone)."""
        if any(queue.tail - queue.head for queue in self._queues):
            return self.model.current_cycle
        return None

    # -- ingress --------------------------------------------------------

    def _ingress(self, inputs: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Assemble this round's completed packets as columns.

        Returns ``None`` when no packet completed, else a dict of
        parallel arrays sorted by ``(timestamp, ingress_port)`` —
        exactly the order the scalar heap pops in (timestamps are
        unique per port: one flit per cycle, one ``last`` per packet).
        """
        ts_parts: List[np.ndarray] = []
        port_parts: List[np.ndarray] = []
        frame_parts: List[np.ndarray] = []
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        size_parts: List[np.ndarray] = []
        total_parts: List[np.ndarray] = []
        min_latency = self.min_latency
        stats = self.model.stats
        for port_index in range(self.num_ports):
            batch = inputs[self.ports[port_index]]
            kind = type(batch)
            if kind is ColumnarBatch:
                if not batch._valid:
                    continue
                done = batch.first_index + batch.count == batch.total
                n_done = int(np.count_nonzero(done))
                trailing_partial = not done[-1]
                if n_done:
                    last_cycle = (
                        batch.first_cycle
                        + (batch.count - 1) * batch.stride
                    )
                    ts_parts.append(last_cycle[done] + min_latency)
                    port_parts.append(
                        np.full(n_done, port_index, dtype=_INT)
                    )
                    frames = batch.frames[done]
                    frame_parts.append(frames)
                    src, dst, sizes = _frame_columns(frames)
                    src_parts.append(src)
                    dst_parts.append(dst)
                    size_parts.append(sizes)
                    total_parts.append(batch.total[done])
                    stats.packets_in += n_done
                    stats.bytes_in += int(sizes.sum())
                if trailing_partial:
                    self._partial[port_index] = (
                        batch.frames[-1],
                        int(batch.first_index[-1] + batch.count[-1]),
                    )
                elif n_done:
                    self._partial[port_index] = (None, 0)
                continue
            # Both flit-carrying inputs reduce to (cycle column, flit
            # objects, last mask); frame boundaries then come straight
            # off the mask, so only the one closing flit per frame is
            # touched.
            if kind is TokenStream:
                tokens = batch.tokens
                if not tokens.shape[0]:
                    continue
                cycles = tokens["cycle"]
                flits: Any = tokens["flit"]
                last = tokens["last"]
            else:  # TokenBatch (priming windows, split-pop fallbacks)
                if not batch.flits:
                    continue
                items = sorted(batch.flits.items())
                cycles = np.fromiter(
                    (cycle for cycle, _ in items), _INT, count=len(items)
                )
                flits = [flit for _, flit in items]
                last = np.fromiter(
                    (flit.last for flit in flits),
                    dtype=np.bool_,
                    count=len(flits),
                )
            n = len(flits)
            ends = np.flatnonzero(last)
            frame, seen = self._partial[port_index]
            if ends.shape[0]:
                end_list = ends.tolist()
                frames = np.array(
                    [flits[i].data for i in end_list], dtype=object
                )
                n_done = len(end_list)
                ts_parts.append(cycles[ends] + min_latency)
                port_parts.append(np.full(n_done, port_index, dtype=_INT))
                frame_parts.append(frames)
                src, dst, sizes = _frame_columns(frames)
                src_parts.append(src)
                dst_parts.append(dst)
                size_parts.append(sizes)
                total_parts.append(
                    np.fromiter(
                        (f.flit_count for f in frames), _INT, count=n_done
                    )
                )
                stats.packets_in += n_done
                stats.bytes_in += int(sizes.sum())
                trailing = n - 1 - end_list[-1]
                frame, seen = (
                    (flits[n - 1].data, trailing) if trailing else (None, 0)
                )
            else:
                frame, seen = flits[n - 1].data, seen + n
            self._partial[port_index] = (frame, seen)
        if not ts_parts:
            return None
        ts = np.concatenate(ts_parts)
        ports = np.concatenate(port_parts)
        order = np.lexsort((ports, ts))
        return {
            "ts": ts[order],
            "port": ports[order],
            "frame": np.concatenate(frame_parts)[order],
            "src": np.concatenate(src_parts)[order],
            "dst": np.concatenate(dst_parts)[order],
            "size": np.concatenate(size_parts)[order],
            "total": np.concatenate(total_parts)[order],
        }

    # -- switching ------------------------------------------------------

    def _route_ports(self) -> Dict[int, int]:
        """The dst -> port gather cache, revalidated like the memo."""
        model = self.model
        table = model._mac_table
        key = (table.version, model._default_port)
        if self._route_key != key:
            self._dst_ports.clear()
            self._route_key = key
        if model._route_version != table.version:
            model._route_cache.clear()
            model._route_version = table.version
        return self._dst_ports

    def _switching(self, arrivals: Dict[str, Any]) -> None:
        """Route the round's timestamp-sorted packets to output queues."""
        sink = get_trace_sink()
        dst = arrivals["dst"]
        broadcast = dst == BROADCAST_MAC
        if sink.enabled or broadcast.any():
            self._switching_slow(arrivals, sink)
            return
        dst_ports = self._route_ports()
        model = self.model
        table = model._mac_table
        default = model._default_port
        default_port = -1 if default is None else default
        unique, inverse = np.unique(dst, return_inverse=True)
        unique_out = np.empty(unique.shape[0], dtype=_INT)
        for i, mac in enumerate(unique.tolist()):
            port = dst_ports.get(mac)
            if port is None:
                looked = table.get(mac)
                port = default_port if looked is None else looked
                dst_ports[mac] = port
            unique_out[i] = port
        out_port = unique_out[inverse]
        routable = out_port >= 0
        n_drop = int(np.count_nonzero(~routable))
        if n_drop:
            stats = model.stats
            stats.packets_dropped += n_drop
            stats.bytes_dropped += int(arrivals["size"][~routable].sum())
            ts = arrivals["ts"][routable]
            frames = arrivals["frame"][routable]
            sizes = arrivals["size"][routable]
            totals = arrivals["total"][routable]
            out_port = out_port[routable]
        else:
            ts = arrivals["ts"]
            frames = arrivals["frame"]
            sizes = arrivals["size"]
            totals = arrivals["total"]
        n = out_port.shape[0]
        if not n:
            return
        # One sequence number per enqueued packet, in sorted pop order —
        # identical numbering to the scalar heappush loop.
        seqs = np.arange(self._seq_next, self._seq_next + n, dtype=_INT)
        self._seq_next += n
        for port in np.unique(out_port).tolist():
            mask = out_port == port
            self._queues[port].append(
                ts[mask], seqs[mask], frames[mask],
                sizes[mask], totals[mask],
            )

    def _switching_slow(self, arrivals: Dict[str, Any], sink: Any) -> None:
        """Scalar-identical per-packet walk (broadcasts, tracing).

        Uses the model's route memo — including the broadcast-counter
        compensation on memo hits — so counters and trace events stay
        bit-identical to :meth:`SwitchModel._switching_step`.
        """
        model = self.model
        stats = model.stats
        memo = model._route_cache
        if model._route_version != model._mac_table.version:
            memo.clear()
            model._route_version = model._mac_table.version
        sink_on = sink.enabled
        name = model.name
        pending: List[List[List[Any]]] = [
            [[], [], [], [], []] for _ in range(self.num_ports)
        ]
        ts_list = arrivals["ts"].tolist()
        port_list = arrivals["port"].tolist()
        frame_list = arrivals["frame"].tolist()
        src_list = arrivals["src"].tolist()
        dst_list = arrivals["dst"].tolist()
        size_list = arrivals["size"].tolist()
        total_list = arrivals["total"].tolist()
        for k in range(len(ts_list)):
            timestamp = ts_list[k]
            ingress_port = port_list[k]
            frame = frame_list[k]
            flow = (src_list[k], dst_list[k], ingress_port)
            cached = memo.get(flow)
            if cached is None:
                cached = tuple(model.route(frame, ingress_port))
                memo[flow] = cached
            elif dst_list[k] == BROADCAST_MAC:
                stats.broadcasts += 1
            if not cached and dst_list[k] != BROADCAST_MAC:
                stats.packets_dropped += 1
                stats.bytes_dropped += size_list[k]
                if sink_on:
                    sink.target_instant(
                        "drop", "switch", timestamp, track=name,
                        args={"frame": frame.frame_id,
                              "in_port": ingress_port,
                              "reason": "unroutable"},
                    )
                continue
            for out_port in cached:
                columns = pending[out_port]
                columns[0].append(timestamp)
                columns[1].append(self._seq_next)
                self._seq_next += 1
                columns[2].append(frame)
                columns[3].append(size_list[k])
                columns[4].append(total_list[k])
                if sink_on:
                    sink.target_instant(
                        "enqueue", "switch", timestamp, track=name,
                        args={"frame": frame.frame_id,
                              "in_port": ingress_port,
                              "out_port": out_port},
                    )
        for port, columns in enumerate(pending):
            if columns[0]:
                self._queues[port].append(
                    np.array(columns[0], dtype=_INT),
                    np.array(columns[1], dtype=_INT),
                    np.array(columns[2], dtype=object),
                    np.array(columns[3], dtype=_INT),
                    np.array(columns[4], dtype=_INT),
                )

    # -- egress ---------------------------------------------------------

    def _egress(self, window: TokenWindow) -> Dict[str, Any]:
        sink = get_trace_sink()
        outputs: Dict[str, Any] = {}
        for port_index in range(self.num_ports):
            outputs[self.ports[port_index]] = self._drain_port(
                port_index, window, sink
            )
        return outputs

    def _drain_port(
        self, port_index: int, window: TokenWindow, sink: Any
    ) -> Any:
        queue = self._queues[port_index]
        if queue.tail == queue.head:
            return window.new_batch()
        pace = self.pace
        buffer_flits = self.buffer_flits
        window_start = window.start
        window_end = window.end
        model = self.model
        stats = model.stats
        egress_log = model.egress_log
        sink_on = sink.enabled
        cursor = max(self._next_free[port_index], window_start)
        out_first: List[np.ndarray] = []
        out_count: List[np.ndarray] = []
        out_index: List[np.ndarray] = []
        out_total: List[np.ndarray] = []
        out_frame: List[np.ndarray] = []
        events: List[Tuple[int, ...]] = []
        position = 0  # scalar pop order, for trace-event interleaving
        while queue.head < queue.tail and cursor < window_end:
            head = queue.head
            stop = min(queue.tail, head + _EGRESS_CHUNK)
            chunk_len = stop - head
            release = queue.release[head:stop].copy()
            total = queue.total[head:stop].copy()
            frames = queue.frame[head:stop].copy()
            sizes = queue.size[head:stop].copy()
            # Original queue position of each surviving row — sink
            # events must interleave drops and dequeues in scalar pop
            # order, which is exactly this index.
            orig = np.arange(position, position + chunk_len, dtype=_INT)
            position += chunk_len
            remaining = total.copy()
            remaining[0] -= queue.head_emitted
            # Only a fresh packet (nothing emitted) can be dropped; the
            # chunk head may be a straddler already on the wire.
            droppable_head = queue.head_emitted == 0
            while True:
                # Pacing recurrence, vectorized:
                #   cursor_k = max(cursor_{k-1}, release_k) + flits_k*pace
                # With B_k = cumsum(flits*pace), cursor_k - B_k is the
                # running max of (release_k - B_{k-1}) seeded by the
                # port cursor, so one cumsum + one maximum.accumulate
                # yields every start cycle at once.
                duration = remaining * pace
                ends = np.cumsum(duration)
                margin = np.maximum.accumulate(release - (ends - duration))
                np.maximum(margin, cursor, out=margin)
                starts = margin + ends - duration
                lagged = starts - release > buffer_flits
                lagged &= starts < window_end
                if not droppable_head:
                    lagged[0] = False
                drops = np.flatnonzero(lagged)
                if not drops.shape[0]:
                    break
                # Drop the first over-lagged packet and reschedule: the
                # removal only pulls later starts earlier, so candidate
                # indices advance monotonically — scalar pop order.
                j = int(drops[0])
                stats.packets_dropped += 1
                stats.bytes_dropped += int(sizes[j])
                if sink_on:
                    events.append((
                        int(orig[j]), "drop", int(starts[j]),
                        frames[j].frame_id,
                        int(starts[j] - release[j]),
                    ))
                queue.remove_at(head + j)
                keep = np.arange(stop - head) != j
                stop -= 1
                release = release[keep]
                total = total[keep]
                frames = frames[keep]
                sizes = sizes[keep]
                remaining = remaining[keep]
                orig = orig[keep]
                if j == 0:
                    droppable_head = True
                    queue.head_emitted = 0
                if head == stop:
                    break
            if head == stop:
                continue
            emit = int(np.searchsorted(starts, window_end, side="left"))
            if emit == 0:
                break
            starts = starts[:emit]
            room = (window_end - starts + pace - 1) // pace
            emitted = np.minimum(remaining[:emit], room)
            complete = emitted == remaining[:emit]
            n_complete = int(np.count_nonzero(complete))
            out_first.append(starts)
            out_count.append(emitted)
            out_index.append(total[:emit] - remaining[:emit])
            out_total.append(total[:emit])
            out_frame.append(frames[:emit])
            if n_complete:
                stats.packets_out += n_complete
                stats.bytes_out += int(sizes[:emit][complete].sum())
            if (sink_on or egress_log is not None) and n_complete:
                last_flit = (starts + (emitted - 1) * pace).tolist()
                release_list = release[:emit].tolist()
                size_list = sizes[:emit].tolist()
                done_list = complete.tolist()
                orig_list = orig[:emit].tolist()
                for k in range(emit):
                    if not done_list[k]:
                        continue
                    if sink_on:
                        events.append((
                            orig_list[k], "dequeue", release_list[k],
                            last_flit[k], frames[k].frame_id,
                        ))
                    if egress_log is not None:
                        egress_log.append((last_flit[k], size_list[k]))
            last = emit - 1
            cursor = int(starts[last] + emitted[last] * pace)
            self._next_free[port_index] = cursor
            if complete[last]:
                queue.head = head + emit
                queue.head_emitted = 0
                if emit == stop - head:
                    continue  # chunk fully drained; next chunk may fit
                break
            queue.head = head + last
            queue.head_emitted = int(total[last] - remaining[last] + emitted[last])
            break
        if queue.head == queue.tail:
            queue.head = queue.tail = 0
        if sink_on and events:
            name = model.name
            for event in sorted(events):
                if event[1] == "drop":
                    sink.target_instant(
                        "drop", "switch", event[2], track=name,
                        args={"frame": event[3], "port": port_index,
                              "lag": event[4]},
                    )
                else:
                    sink.target_span(
                        "dequeue", "switch", event[2], event[3],
                        track=name,
                        args={"frame": event[4], "port": port_index},
                    )
        if not out_first:
            return window.new_batch()
        if len(out_first) == 1:
            first_cycle = out_first[0]
            counts = out_count[0]
            first_index = out_index[0]
            totals = out_total[0]
            frames_out = out_frame[0]
        else:
            first_cycle = np.concatenate(out_first)
            counts = np.concatenate(out_count)
            first_index = np.concatenate(out_index)
            totals = np.concatenate(out_total)
            frames_out = np.concatenate(out_frame)
        return ColumnarBatch(
            window_start,
            window.end - window_start,
            pace,
            frames_out,
            first_cycle,
            counts,
            first_index,
            totals,
        )
