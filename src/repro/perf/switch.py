"""Columnar switch hot path: vectorized ingress → route → egress.

The scalar :class:`~repro.net.switch.SwitchModel` walks every flit of
every packet through Python loops — ``iter_flits`` reassembly on
ingress, a sorted per-packet walk in the switching step, and a per-flit
``batch.add`` loop on egress.  Under the batched engine the switch is
the hot model (every token of Section III-B crosses it), so this module
re-expresses one round of switch work over *columns*:

* **ingress** — packet boundaries come from one vectorized last-flit
  scan per port (``np.flatnonzero`` on the ``last`` column of the
  port's :class:`~repro.perf.stream.TokenStream`), or from pure array
  arithmetic when the port feeds from another columnar switch or a
  stock blade NIC;
* **switching** — one ``np.lexsort`` over ``(timestamp, ingress_port)``
  replaces the per-packet walk, route lookup is one table lookup per
  *unique* destination of the round, and a broadcast fans out to
  "every port but ingress" with one ``np.repeat``;
* **egress** — per-port emission schedules are computed arithmetically:
  the pacing recurrence ``cursor_k = max(cursor_{k-1}, release_k) +
  flits_k * pace`` is a ``cumsum`` plus a ``maximum.accumulate``, flit
  cycles are arange-style ranges, and the buffer-bound drop check is a
  vectorized lag mask.

Between columnar endpoints — stock switches and stock blade NICs — a
window travels as a :class:`~repro.perf.stream.ColumnarBatch` (re-exported
here): per-packet-segment rows plus a frame side table, so
:class:`~repro.core.token.Flit` objects are never materialized until a
window crosses to a scalar consumer (a tracer, a custom model, or a
distributed boundary link, where the engine converts to a
``TokenStream``).

:class:`ColumnarSwitch` holds **no state of its own**: every phase
reads and writes the model's queues, pacing cursors, partial-reassembly
slots, sequence counter, ``stats`` and ``egress_log`` in place — the
same columns the scalar phases work one packet at a time.  A hook, a
checkpoint or the other engine can therefore look at the model between
any two windows and see exactly what a scalar run would hold; the
scalar phases remain the readable bit-equality spec.

Trace-sink instrumentation survives vectorization: when the sink is
enabled, ``enqueue``/``drop`` events are emitted from the routed
columns in pop order and ``drop``/``dequeue`` events from the drained
columns in queue order, so the recorded stream is bit-identical to the
scalar one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.token import TokenWindow
from repro.net.ethernet import BROADCAST_MAC
from repro.net.switch import SwitchModel
from repro.obs.trace import get_trace_sink
from repro.perf.stream import ColumnarBatch, TokenStream

_INT = np.int64

#: Egress processes the (possibly very long) output queue in chunks:
#: only a window's worth of packets can emit per round, so work stays
#: proportional to traffic, not to backlog.
_EGRESS_CHUNK = 512


def _frame_columns(frames: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``dst``/``size_bytes`` of completed frames as columns."""
    n = frames.shape[0]
    return (
        np.fromiter((f.dst for f in frames), _INT, count=n),
        np.fromiter((f.size_bytes for f in frames), _INT, count=n),
    )


class ColumnarSwitch:
    """Vectorized tick of a stock :class:`SwitchModel`, on its state.

    Built by the batched engine's slot compiler for every switch whose
    phases are all stock (``model.columnar_safe``); ``step`` then
    stands in for ``model._tick``.
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

    # -- FAME-1 tick ----------------------------------------------------

    def step(
        self, window: TokenWindow, inputs: Dict[str, Any]
    ) -> Dict[str, Any]:
        arrivals = self._ingress(inputs)
        if arrivals is not None:
            self._switching(arrivals)
        return self._egress(window)

    # -- ingress --------------------------------------------------------

    def _ingress(self, inputs: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Assemble this round's completed packets as columns.

        Returns ``None`` when no packet completed, else a dict of
        parallel arrays sorted by ``(timestamp, ingress_port)`` —
        exactly the order the scalar step walks them in (timestamps are
        unique per port: one flit per cycle, one ``last`` per packet).
        """
        ts_parts: List[np.ndarray] = []
        port_parts: List[np.ndarray] = []
        frame_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        size_parts: List[np.ndarray] = []
        total_parts: List[np.ndarray] = []
        min_latency = self.min_latency
        model = self.model
        stats = model.stats
        partial = model._partial
        for port_index, port in enumerate(model.ports):
            batch = inputs[port]
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
                    dst, sizes = _frame_columns(frames)
                    dst_parts.append(dst)
                    size_parts.append(sizes)
                    total_parts.append(batch.total[done])
                    stats.packets_in += n_done
                    stats.bytes_in += int(sizes.sum())
                if trailing_partial:
                    partial[port_index] = (
                        batch.frames[-1],
                        int(batch.first_index[-1] + batch.count[-1]),
                    )
                elif n_done:
                    partial[port_index] = (None, 0)
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
            frame, seen = partial[port_index]
            if ends.shape[0]:
                end_list = ends.tolist()
                frames = np.array(
                    [flits[i].data for i in end_list], dtype=object
                )
                n_done = len(end_list)
                ts_parts.append(cycles[ends] + min_latency)
                port_parts.append(np.full(n_done, port_index, dtype=_INT))
                frame_parts.append(frames)
                dst, sizes = _frame_columns(frames)
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
            partial[port_index] = (frame, seen)
        if not ts_parts:
            return None
        ts = np.concatenate(ts_parts)
        ports = np.concatenate(port_parts)
        order = np.lexsort((ports, ts))
        return {
            "ts": ts[order],
            "port": ports[order],
            "frame": np.concatenate(frame_parts)[order],
            "dst": np.concatenate(dst_parts)[order],
            "size": np.concatenate(size_parts)[order],
            "total": np.concatenate(total_parts)[order],
        }

    # -- switching ------------------------------------------------------

    def _switching(self, arrivals: Dict[str, Any]) -> None:
        """Route the round's timestamp-sorted packets to output queues."""
        model = self.model
        stats = model.stats
        dst = arrivals["dst"]
        table = model.mac_table
        # Egress port per distinct destination; negative: no single port.
        nowhere, everywhere = -1, -2
        default = model.default_port
        if default is None:
            default = nowhere
        unique, inverse = np.unique(dst, return_inverse=True)
        ports = [
            everywhere if mac == BROADCAST_MAC else table.get(mac, default)
            for mac in unique.tolist()
        ]
        out = np.array(ports, dtype=_INT)[inverse]
        # One queue row per (packet, egress port), in scalar pop order.
        # Usually that is the arrivals as they stand; an unroutable
        # unicast has no row (it is dropped), a broadcast has one per
        # port but its ingress.
        rows = np.arange(dst.shape[0])
        columns = [arrivals[key] for key in ("ts", "frame", "size", "total")]
        if min(ports) < 0:
            broadcast = out == everywhere
            dropped = out == nowhere
            stats.packets_dropped += int(np.count_nonzero(dropped))
            stats.bytes_dropped += int(arrivals["size"][dropped].sum())
            stats.broadcasts += int(np.count_nonzero(broadcast))
            fanout = np.where(broadcast, self.num_ports - 1, out >= 0)
            first = np.cumsum(fanout) - fanout
            rows = np.repeat(rows, fanout)
            out = out[rows]
            # The k-th copy of a broadcast goes to the k-th port that
            # is not its ingress.
            copy = np.arange(rows.shape[0]) - first[rows]
            copy += copy >= arrivals["port"][rows]
            flooded = broadcast[rows]
            out[flooded] = copy[flooded]
            columns = [column[rows] for column in columns]
        sink = get_trace_sink()
        if sink.enabled:
            self._trace_switching(sink, arrivals, rows, out)
        n = rows.shape[0]
        if not n:
            return
        # One sequence number per enqueued packet, in sorted pop order —
        # identical numbering to the scalar push loop.
        seqs = np.arange(model._seq, model._seq + n, dtype=_INT)
        model._seq += n
        ts, frames, sizes, totals = columns
        for port in np.unique(out).tolist():
            mask = out == port
            model._out_queues[port].append(
                ts[mask], seqs[mask], frames[mask],
                sizes[mask], totals[mask],
            )

    def _trace_switching(
        self, sink: Any, arrivals: Dict[str, Any],
        rows: np.ndarray, out: np.ndarray,
    ) -> None:
        """``drop``/``enqueue`` events of one switching step, pop order.

        ``rows`` names the arrival behind each queue row and ``out`` its
        egress port; an arrival with no row is an unroutable unicast,
        unless it is a broadcast on a one-port switch.
        """
        name = self.model.name
        out_ports = out.tolist()
        copies = np.bincount(rows, minlength=arrivals["ts"].shape[0])
        row = 0
        for timestamp, ingress_port, frame, count in zip(
            arrivals["ts"].tolist(), arrivals["port"].tolist(),
            arrivals["frame"].tolist(), copies.tolist(),
        ):
            if not count and frame.dst != BROADCAST_MAC:
                sink.target_instant(
                    "drop", "switch", timestamp, track=name,
                    args={"frame": frame.frame_id,
                          "in_port": ingress_port,
                          "reason": "unroutable"},
                )
            for out_port in out_ports[row:row + count]:
                sink.target_instant(
                    "enqueue", "switch", timestamp, track=name,
                    args={"frame": frame.frame_id,
                          "in_port": ingress_port,
                          "out_port": out_port},
                )
            row += count

    # -- egress ---------------------------------------------------------

    def _egress(self, window: TokenWindow) -> Dict[str, Any]:
        sink = get_trace_sink()
        outputs: Dict[str, Any] = {}
        for port_index, port in enumerate(self.model.ports):
            outputs[port] = self._drain_port(port_index, window, sink)
        return outputs

    def _drain_port(
        self, port_index: int, window: TokenWindow, sink: Any
    ) -> Any:
        model = self.model
        queue = model._out_queues[port_index]
        if queue.tail == queue.head:
            return window.new_batch()
        pace = self.pace
        buffer_flits = self.buffer_flits
        window_start = window.start
        window_end = window.end
        stats = model.stats
        egress_log = model.egress_log
        sink_on = sink.enabled
        cursor = max(model._port_next_free[port_index], window_start)
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
            model._port_next_free[port_index] = cursor
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
