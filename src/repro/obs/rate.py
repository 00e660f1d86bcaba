"""Live simulation-rate profiling.

:class:`repro.host.perfmodel.SimulationRateModel` *predicts* how fast a
mapped design simulates; :class:`RateMonitor` *measures* it on the host
actually running the functional simulation.  Attached to a
:class:`~repro.core.simulation.Simulation`, it measures:

* achieved simulation rate in MHz — target cycles per wall second, the
  number Figures 8/9 plot — from one wall clock per ``run_until``;
* per-model host-time shares — which blade or switch model the host
  actually spends its time ticking, the profile that tells you where a
  perf PR should aim — from each model's tick, which the round loop
  calls through :meth:`RateMonitor.wrap_tick`.

When a :class:`~repro.obs.trace.ChromeTraceSink` is supplied, each
model tick also lands as a host-time span, so Perfetto shows the round
structure visually.  A model the batched engine does not visit calls
no tick, so it has no span and no host time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Optional

from repro.obs.trace import TraceSink


@dataclass
class RateReport:
    """Measured rate and host-time profile over the observed window."""

    wall_seconds: float
    cycles: int
    rounds: int
    freq_hz: float
    model_host_seconds: Dict[str, float] = field(default_factory=dict)
    #: Host seconds spent inside distributed transport calls (zero for
    #: serial runs): serialize + publish on the send side, wait + decode
    #: on the receive side, summed over workers.
    transport_send_seconds: float = 0.0
    transport_recv_seconds: float = 0.0
    #: Per-worker achieved MHz from the last distributed run (empty for
    #: serial runs) — kept un-collapsed so shard load imbalance is
    #: visible in ``status`` output.
    worker_rates: Dict[int, float] = field(default_factory=dict)

    @property
    def rate_hz(self) -> float:
        """Achieved target cycles per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def rate_mhz(self) -> float:
        return self.rate_hz / 1e6

    @property
    def slowdown_vs_target(self) -> float:
        """How many times slower than the simulated machine itself."""
        return self.freq_hz / self.rate_hz if self.rate_hz else float("inf")

    @property
    def transport_seconds_per_round(self) -> float:
        """Mean transport time per observed round (0 for serial runs)."""
        if self.rounds <= 0:
            return 0.0
        return (
            self.transport_send_seconds + self.transport_recv_seconds
        ) / self.rounds

    @property
    def load_imbalance(self) -> float:
        """Fastest over slowest worker rate; 1.0 when balanced/serial.

        Lockstep pins every worker's wall clock to the slowest shard's,
        so shards rarely diverge in wall time — but a *busy-time*
        imbalance still shows up here because each worker's rate is its
        cycles over its own wall, and a shard that finishes its last
        round's work early exits sooner.  Values well above 1.0 mean
        the partitioner handed one worker more model than the others.
        """
        rates = [rate for rate in self.worker_rates.values() if rate > 0.0]
        if len(rates) < 2:
            return 1.0
        return max(rates) / min(rates)

    @property
    def host_time_shares(self) -> Dict[str, float]:
        """Fraction of model-tick host time spent in each model."""
        total = sum(self.model_host_seconds.values())
        if total <= 0.0:
            return {}
        return {
            name: seconds / total
            for name, seconds in sorted(
                self.model_host_seconds.items(),
                key=lambda item: item[1],
                reverse=True,
            )
        }

    def compare_prediction(self, estimate: Any) -> float:
        """Measured/predicted rate ratio against a ``RateEstimate``.

        Duck-typed on ``rate_hz`` so :mod:`repro.obs` stays free of
        ``repro.host`` imports.
        """
        predicted = float(estimate.rate_hz)
        if predicted <= 0.0:
            raise ValueError("prediction must have a positive rate")
        return self.rate_hz / predicted

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "wall_seconds": self.wall_seconds,
            "cycles": self.cycles,
            "rounds": self.rounds,
            "rate_mhz": self.rate_mhz,
            "host_time_shares": self.host_time_shares,
            "transport_send_seconds": self.transport_send_seconds,
            "transport_recv_seconds": self.transport_recv_seconds,
            "transport_seconds_per_round": self.transport_seconds_per_round,
        }
        if self.worker_rates:
            out["worker_rates_mhz"] = {
                str(worker): rate
                for worker, rate in sorted(self.worker_rates.items())
            }
            out["load_imbalance"] = self.load_imbalance
        return out


class RateMonitor:
    """Measures a :class:`Simulation`'s rate and profiles host time.

    The simulation hands :meth:`wrap_tick` to its round loop, which
    wraps each model's tick once per run, and reports each run's rounds,
    cycles and wall through :meth:`record_run` — only when a monitor is
    attached, so an unmonitored simulation's loop reads no clock.
    """

    def __init__(self, trace: Optional[TraceSink] = None) -> None:
        self.trace = trace
        self.freq_hz = 0.0
        self.rounds = 0
        self.cycles = 0
        self.wall_seconds = 0.0
        self.model_host_seconds: Dict[str, float] = {}
        self.transport_send_seconds = 0.0
        self.transport_recv_seconds = 0.0
        self.worker_rates: Dict[int, float] = {}

    def attach(self, simulation: Any) -> "RateMonitor":
        """Install on a simulation (its ``observer`` slot); returns self."""
        simulation.observer = self
        self.freq_hz = simulation.clock.freq_hz
        return self

    # -- round-loop callbacks ------------------------------------------

    def wrap_tick(
        self, name: str, tick: Callable[[Any, Any], Any]
    ) -> Callable[[Any, Any], Any]:
        """Return ``tick`` timed into ``model_host_seconds[name]``.

        ``name`` is listed from the start, so a model that never ticks
        reads 0 s.  With an enabled trace sink each call is also a
        ``sim.tick`` host span carrying its target window.
        """
        seconds = self.model_host_seconds
        seconds.setdefault(name, 0.0)
        trace = self.trace
        if trace is not None and not trace.enabled:
            trace = None

        def timed(window: Any, inputs: Any) -> Any:
            start = perf_counter()
            outputs = tick(window, inputs)
            end = perf_counter()
            seconds[name] += end - start
            if trace is not None:
                trace.host_span(
                    name, "sim.tick", start, end, track="model-ticks",
                    args={"window": [window.start, window.end]},
                )
            return outputs

        return timed

    def record_run(
        self, rounds: int, cycles: int, wall_seconds: float
    ) -> None:
        """Fold one ``run_until``: its rounds, cycles and whole wall."""
        self.rounds += rounds
        self.cycles += cycles
        self.wall_seconds += wall_seconds

    # -- distributed aggregation ----------------------------------------

    def absorb(
        self,
        cycles: int,
        rounds: int,
        wall_seconds: float,
        model_host_seconds: Optional[Dict[str, float]] = None,
        transport_send_seconds: float = 0.0,
        transport_recv_seconds: float = 0.0,
        worker_rates: Optional[Dict[int, float]] = None,
    ) -> None:
        """Fold a remote run's measurements into this monitor.

        The distributed engine's workers advance without the parent's
        observer seeing a single round; the merged
        :class:`~repro.dist.engine.DistributedRunResult` lands here so
        ``status`` and telemetry dumps report one coherent session.
        ``wall_seconds`` is the parent-observed wall time (cycles are
        simulated once no matter how many workers ticked them).  The
        transport seconds are the workers' summed time inside send/recv
        calls (the per-round overhead the distributed benches report per
        transport).  ``worker_rates`` keeps each worker's achieved MHz
        un-collapsed (later runs overwrite per worker id) so the report
        can surface shard load imbalance.
        """
        if rounds <= 0:
            return
        if worker_rates:
            self.worker_rates.update(worker_rates)
        self.rounds += rounds
        self.cycles += cycles
        self.wall_seconds += wall_seconds
        self.transport_send_seconds += transport_send_seconds
        self.transport_recv_seconds += transport_recv_seconds
        for name, seconds in (model_host_seconds or {}).items():
            self.model_host_seconds[name] = (
                self.model_host_seconds.get(name, 0.0) + seconds
            )

    # -- reads ----------------------------------------------------------

    def report(self) -> RateReport:
        return RateReport(
            wall_seconds=self.wall_seconds,
            cycles=self.cycles,
            rounds=self.rounds,
            freq_hz=self.freq_hz,
            model_host_seconds=dict(self.model_host_seconds),
            transport_send_seconds=self.transport_send_seconds,
            transport_recv_seconds=self.transport_recv_seconds,
            worker_rates=dict(self.worker_rates),
        )

    def register_metrics(self, registry: Any, prefix: str = "sim") -> None:
        """Expose the live rate through callback gauges."""
        registry.gauge(f"{prefix}.rate_mhz", lambda: self.report().rate_mhz)
        registry.gauge(f"{prefix}.wall_seconds", lambda: self.wall_seconds)
        registry.gauge(
            f"{prefix}.observed_rounds", lambda: float(self.rounds)
        )
