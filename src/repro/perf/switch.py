"""Columnar switch step: the spec's per-packet phases, rows at both ends.

The scalar :class:`~repro.net.switch.SwitchModel` walks every flit of
every packet through Python loops — ``iter_flits`` reassembly on
ingress and a per-flit ``Flit`` build on egress.  Under the batched
engine the switch is the hot model (every token of Section III-B
crosses it), so this module runs one round of switch work with
per-packet-segment *rows* at both ends and the spec's own per-packet
middle:

* **ingress** — a :class:`~repro.perf.stream.ColumnarBatch` from
  another columnar switch or a stock blade NIC is walked once, a row at
  a time: a row closes its frame when ``first_index + count == total``,
  at its last flit's cycle.  A flit-carrying input (a ``TokenStream``
  or ``TokenBatch``) goes through the spec's own per-flit rule;
* **switching** — the spec's ``_switching_step``: completed packets in
  ``(timestamp, ingress_port)`` order, routed through the MAC table;
* **egress** — the spec's ``_drain_segments`` walker (pacing,
  buffer-bound drops, window straddles, stats, trace events, egress
  log), whose list of ``(frame, first_cycle, count, first_index,
  total)`` segments becomes a ``ColumnarBatch``'s rows as it stands
  instead of being expanded into flits.

Between columnar endpoints — stock switches and stock blade NICs — a
window travels as a :class:`~repro.perf.stream.ColumnarBatch` (re-exported
here), so :class:`~repro.core.token.Flit` objects are never materialized
until a window crosses to a scalar consumer (a tracer, a custom model,
or a distributed boundary link, where the engine converts to a
``TokenStream``).

:class:`ColumnarSwitch` holds **no state of its own**: every phase
reads and writes the model's queues, pacing cursors, partial-reassembly
slots, sequence counter, ``stats`` and ``egress_log`` in place.  A
hook, a checkpoint or the other engine can therefore look at the model
between any two windows and see exactly what a scalar run would hold;
the scalar phases remain the readable bit-equality spec.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.token import TokenWindow
from repro.net.switch import SwitchModel
from repro.obs.trace import get_trace_sink
from repro.perf.stream import ColumnarBatch


class ColumnarSwitch:
    """Row-level tick of a stock :class:`SwitchModel`, on its state.

    Built by the batched engine's slot compiler for every switch whose
    phases are all stock (``model.columnar_safe``); ``step`` then
    stands in for ``model._tick``.
    """

    def __init__(self, model: SwitchModel) -> None:
        if not model.columnar_safe:  # pragma: no cover - compiler guards
            raise ValueError(f"switch {model.name} is not columnar-safe")
        self.model = model
        self._port_index = {port: i for i, port in enumerate(model.ports)}
        self.min_latency = model.config.min_latency_cycles
        self.pace = model.config.cycles_per_flit

    # -- FAME-1 tick ----------------------------------------------------

    def step(
        self, window: TokenWindow, inputs: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One window: the spec's three phases, rows in and rows out.

        Absent ports are empty windows, in and out: every returned
        window carries at least one flit."""
        model = self.model
        stats = model.stats
        partial = model._partial
        min_latency = self.min_latency
        port_index_of = self._port_index
        completed: List[Tuple[int, int, Any]] = []
        for port, batch in inputs.items():
            if not batch.valid_count:
                continue
            port_index = port_index_of[port]
            if type(batch) is not ColumnarBatch:
                model._ingress_flits(port_index, batch, completed)
                continue
            stride = batch.stride
            for frame, first, count, index, total in batch.rows:
                if index + count == total:
                    completed.append((
                        first + (count - 1) * stride + min_latency,
                        port_index, frame,
                    ))
                    stats.packets_in += 1
                    stats.bytes_in += frame.size_bytes
                    partial[port_index] = (None, 0)
                else:
                    partial[port_index] = (frame, index + count)
        if completed:
            model._switching_step(completed)
        sink = get_trace_sink()
        outputs: Dict[str, Any] = {}
        for port_index, rows in enumerate(model._out_rows):
            if not rows:
                continue
            segments = model._drain_segments(port_index, window, sink)
            if segments:
                outputs[model.ports[port_index]] = ColumnarBatch(
                    window.start, window.end - window.start, self.pace,
                    segments,
                )
        return outputs
