"""TelemetrySession: one run's registry + trace sink + rate monitor.

The :class:`~repro.manager.manager.FireSimManager` owns at most one
session; enabling it wires every layer in:

* the session's :class:`~repro.obs.trace.ChromeTraceSink` becomes the
  process-wide sink, so switch/tracer instrumentation points light up;
* :meth:`attach_running` hooks the :class:`RateMonitor` onto the
  elaborated simulation and lets every stats-bearing model register its
  counters (``sim.*``, ``switch.*``, ``blade.*``);
* :meth:`span` wraps manager verbs in host-time trace spans and records
  their durations as gauges (``manager.buildafi.seconds`` …).

Everything here is duck-typed against the models' ``register_metrics``
hooks, so :mod:`repro.obs` never imports the layers it observes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs.export import dump_telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import PhaseReport
from repro.obs.rate import RateMonitor, RateReport
from repro.obs.trace import ChromeTraceSink, set_trace_sink


class TelemetrySession:
    """Collects one run's metrics, trace, and rate profile."""

    def __init__(self, trace: bool = True, freq_hz: float = 3.2e9) -> None:
        self.registry = MetricsRegistry()
        self.sink: Optional[ChromeTraceSink] = (
            ChromeTraceSink(freq_hz=freq_hz) if trace else None
        )
        self.rate = RateMonitor(trace=self.sink)
        self.phase_report: Optional[PhaseReport] = None
        self._installed = False
        self._rate_metrics_registered = False

    # -- lifecycle -------------------------------------------------------

    def install(self) -> "TelemetrySession":
        """Make this session's sink the process-wide trace sink."""
        if self.sink is not None:
            set_trace_sink(self.sink)
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore the no-op process sink (idempotent)."""
        if self._installed:
            set_trace_sink(None)
            self._installed = False

    # -- wiring ----------------------------------------------------------

    def attach_running(self, running: Any) -> None:
        """Wire an elaborated simulation (a ``RunningSimulation``) in.

        Safe to call again after a checkpoint restore replaces the
        running simulation: the rate gauges are claimed once, and
        re-registered stats sources shadow their predecessors.
        """
        simulation = running.simulation
        self.rate.attach(simulation)
        if not self._rate_metrics_registered:
            self.rate.register_metrics(self.registry)
            self._rate_metrics_registered = True
        simulation.register_metrics(self.registry)
        for switch in running.switches.values():
            switch.register_metrics(self.registry)
        for blade in running.blades.values():
            blade.register_metrics(self.registry)

    def attach_server(self, server: Any) -> None:
        """Wire a :class:`~repro.serve.server.JobServer`'s counters in.

        Exposes the server's :class:`~repro.serve.server.ServeStats`
        as ``serve.*`` gauges (submitted/started/preemptions/queued/
        running/used_slots/...), so a metrics dump of a serving session
        includes the scheduler's view of the farm.  Reflective — any
        numeric attribute the stats object grows is picked up.
        """
        self.registry.register_source("serve", server.stats)

    def absorb_distributed(self, result: Any) -> None:
        """Fold a distributed run's per-worker measurements into the
        session.

        ``result`` duck-types
        :class:`~repro.dist.engine.DistributedRunResult`.  The merged
        tick profile feeds the shared :class:`RateMonitor` (so
        ``rate_report`` covers distributed cycles too) and each worker's
        achieved rate lands as a ``dist.worker<N>.rate_mhz`` gauge for
        per-partition ``status`` output.  When the run was profiled
        (``result.profiled``), the per-worker phase rings aggregate into
        :attr:`phase_report` and each worker's trace track merges into
        the session's sink so the exported ``trace.json`` is one
        openable timeline.
        Supervision reports (``result.supervision``) surface as
        ``dist.supervisor.*`` gauges.
        """
        merged_ticks: Dict[str, float] = {}
        for worker in result.workers:
            for name, seconds in worker.model_host_seconds.items():
                merged_ticks[name] = merged_ticks.get(name, 0.0) + seconds
        send_seconds = sum(
            worker.transport_send_seconds for worker in result.workers
        )
        recv_seconds = sum(
            worker.transport_recv_seconds for worker in result.workers
        )
        self.rate.absorb(
            result.cycles,
            result.rounds,
            result.wall_seconds,
            merged_ticks,
            transport_send_seconds=send_seconds,
            transport_recv_seconds=recv_seconds,
            worker_rates={
                worker.worker_id: worker.rate_mhz()
                for worker in result.workers
            },
        )
        self.registry.gauge("dist.num_workers").set(float(result.num_workers))
        self.registry.gauge("dist.boundary_links").set(
            float(result.boundary_link_count)
        )
        self.registry.gauge("dist.channels").set(float(result.channel_count))
        for worker in result.workers:
            self.registry.gauge(
                f"dist.worker{worker.worker_id}.rate_mhz"
            ).set(worker.rate_mhz())
        supervision = getattr(result, "supervision", None)
        if supervision is not None:
            self.registry.gauge("dist.supervisor.enabled").set(
                1.0 if supervision.get("enabled") else 0.0
            )
            self.registry.gauge("dist.supervisor.polls").set(
                float(supervision.get("polls", 0))
            )
            self.registry.gauge("dist.supervisor.beats").set(
                float(supervision.get("beats", 0))
            )
            self.registry.gauge("dist.supervisor.hangs").set(
                float(supervision.get("hangs", 0))
            )
            self.registry.gauge("dist.supervisor.deadline_s").set(
                float(supervision.get("deadline_s", 0.0))
            )
        if getattr(result, "profiled", False):
            self._absorb_profiles(result)

    def _absorb_profiles(self, result: Any) -> None:
        """Aggregate a profiled run: report, overhead gauge, merged trace."""
        self.phase_report = PhaseReport.from_result(result)
        self.registry.gauge("dist.profile.overhead_ratio").set(
            self.phase_report.profiling_overhead_ratio()
        )
        if self.sink is not None:
            for profile in self.phase_report.profiles:
                self.sink.absorb_events(profile.trace_events())

    @contextmanager
    def span(self, name: str, cat: str = "manager") -> Iterator[None]:
        """Host-time span around a verb; duration lands as a gauge too."""
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if self.sink is not None:
                self.sink.host_span(name, cat, start, end, track=cat)
            self.registry.gauge(f"{cat}.{name}.seconds").set(end - start)

    # -- reads / export ---------------------------------------------------

    def rate_report(self) -> RateReport:
        return self.rate.report()

    def dump(
        self, out_dir: str, extra: Optional[Dict[str, Any]] = None
    ) -> Dict[str, str]:
        """Write metrics.json/metrics.csv/trace.json into ``out_dir``.

        A profiled distributed run additionally writes
        ``phase_report.json`` (schema
        :data:`repro.obs.prof.PROFILE_SCHEMA`).
        """
        payload = {"rate": self.rate_report().to_dict()}
        if extra:
            payload.update(extra)
        return dump_telemetry(
            out_dir, self.registry, sink=self.sink, extra=payload,
            phase_report=(
                self.phase_report.to_dict()
                if self.phase_report is not None else None
            ),
        )
