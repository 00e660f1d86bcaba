"""Batched sparse execution path for the core engine.

FireSim's throughput rests on token transport being cheap relative to
target work (Section V): on the FPGA the token plumbing is wires.  The
pure-Python round loop in :mod:`repro.core.simulation` pays per-call
Python overhead on every link every round, which dominates both serial
and distributed runs.  This package provides the ``engine="batched"``
hot path:

* :mod:`repro.perf.stream` — per-link token windows as plain lists of
  cycles and flits over the whole quantum (idle-token elision, one list
  pass per busy link per round instead of per-cycle Python calls), and
  the packet-segment row container
  (:class:`~repro.perf.stream.ColumnarBatch`) that columnar switches
  and stock blade NICs exchange without building a ``Flit``;
* :mod:`repro.perf.switch` — the columnar switch fast path: every stock
  :class:`~repro.net.switch.SwitchModel` ticks through a
  :class:`~repro.perf.switch.ColumnarSwitch` that runs the spec's
  per-packet ingress/route/egress phases over the model's own queues,
  with packet-segment rows in place of flits at both ends;
* :mod:`repro.perf.engine` — a precompiled round loop that moves those
  windows with inlined queue operations and visits, each round, only
  the models with work in it: those whose inputs carry valid tokens or
  whose state can change on its own (switches with queued packets,
  blades with an event due in the window).

The scalar phases stay as the bit-equality oracle: cycle
timestamps, switch counters, and tracer records are identical between
the two engines (``tests/test_perf_engine.py`` and
``tests/test_columnar_switch.py`` assert it), and the ``bench/``
suite times the batched engine against that oracle on every change.
"""

from repro.perf.stream import ColumnarBatch, TokenStream
from repro.perf.switch import ColumnarSwitch

__all__ = ["TokenStream", "ColumnarBatch", "ColumnarSwitch"]
