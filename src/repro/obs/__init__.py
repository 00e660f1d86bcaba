"""Unified telemetry: metrics, structured tracing, and rate profiling.

FireSim's operational story is *visibility into a running cluster
simulation*: the paper reports achieved simulation rate (MHz), switch
and link utilization, and per-blade activity counters (Sections
III-B2/V).  This package is the reproduction's single place to
collect all of that:

* :mod:`repro.obs.metrics` — a registry of gauges and stats sources
  with hierarchical dotted names (``sim.rounds``,
  ``switch.tor.packets_dropped``, ``blade.node0.l2.misses``),
  snapshot reads, and JSON + CSV export.  Existing stats
  dataclasses register themselves as *sources* without changing their
  public APIs.
* :mod:`repro.obs.trace` — a process-wide :class:`TraceSink` emitting
  Chrome ``trace_event`` JSON with separate target-time and host-time
  tracks, loadable in ``chrome://tracing`` / Perfetto.  The default sink
  is a no-op whose only cost at each instrumentation point is one
  attribute check.
* :mod:`repro.obs.rate` — a :class:`RateMonitor` that measures
  wall-clock per simulation quantum and reports achieved MHz plus
  per-model host-time shares: the *measured* counterpart to
  :class:`repro.host.perfmodel.SimulationRateModel`'s predictions.
* :mod:`repro.obs.prof` — the distributed round-phase profiler:
  per-worker :class:`PhaseRecorder` rings, fork-time
  :class:`ClockSync`, and the aggregated :class:`PhaseReport` with
  critical-path attribution (the measured decomposition behind the
  paper's Section VI scaling discussion).
* :mod:`repro.obs.export` — ``metrics.json`` / ``trace.json`` /
  ``phase_report.json`` dumps (validated by
  ``scripts/check_telemetry.py``).
* :mod:`repro.obs.session` — :class:`TelemetrySession`, the bundle the
  manager wires through its lifecycle verbs.

Nothing in this package imports from other ``repro`` subpackages, so any
layer may depend on it.
"""

from repro.obs.export import dump_telemetry
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.prof import (
    PHASES,
    PROFILE_SCHEMA,
    WORKER_PID_BASE,
    ClockSync,
    PhaseRecorder,
    PhaseReport,
    ProfileConfig,
    WorkerProfile,
)
from repro.obs.rate import RateMonitor, RateReport
from repro.obs.session import TelemetrySession
from repro.obs.trace import (
    ChromeTraceSink,
    NullTraceSink,
    TraceSink,
    get_trace_sink,
    set_trace_sink,
)

__all__ = [
    "PHASES",
    "PROFILE_SCHEMA",
    "WORKER_PID_BASE",
    "ChromeTraceSink",
    "ClockSync",
    "Gauge",
    "MetricsRegistry",
    "NullTraceSink",
    "PhaseRecorder",
    "PhaseReport",
    "ProfileConfig",
    "RateMonitor",
    "RateReport",
    "TelemetrySession",
    "TraceSink",
    "WorkerProfile",
    "dump_telemetry",
    "get_trace_sink",
    "set_trace_sink",
]
