"""Batched sparse execution path for the core engine.

FireSim's throughput rests on token transport being cheap relative to
target work (Section V): on the FPGA the token plumbing is wires.  The
pure-Python round loop in :mod:`repro.core.simulation` pays per-call
Python overhead on every link every round, which dominates both serial
and distributed runs.  This package provides the ``engine="batched"``
hot path:

* :mod:`repro.perf.stream` — per-link token windows as numpy structured
  arrays over the whole quantum (idle-token elision, one array op per
  link per round instead of per-cycle Python calls), and the
  packet-segment row container
  (:class:`~repro.perf.stream.ColumnarBatch`) that columnar switches
  and stock blade NICs exchange without building a ``Flit``;
* :mod:`repro.perf.switch` — the columnar switch fast path: every stock
  :class:`~repro.net.switch.SwitchModel` ticks through a
  :class:`~repro.perf.switch.ColumnarSwitch` whose ingress/route/egress
  phases run as numpy array programs over the model's own per-packet
  columns;
* :mod:`repro.perf.engine` — a precompiled round loop that moves those
  windows with inlined queue operations and skips ticking models whose
  inputs carry no valid tokens and whose state provably cannot change
  (switches with empty queues, blades with no event due in the window).

The scalar phases stay as the bit-equality oracle: cycle
timestamps, switch counters, and tracer records are identical between
the two engines (``tests/test_perf_engine.py`` and
``tests/test_columnar_switch.py`` assert it), and
``scripts/bench_core.py`` measures the speedups that CI's
``bench-regression`` job then holds the tree to.
"""

from repro.perf.stream import TOKEN_DTYPE, ColumnarBatch, TokenStream
from repro.perf.switch import ColumnarSwitch

__all__ = ["TOKEN_DTYPE", "TokenStream", "ColumnarBatch", "ColumnarSwitch"]
