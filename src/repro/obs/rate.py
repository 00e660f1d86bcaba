"""Live simulation-rate profiling.

:class:`repro.host.perfmodel.SimulationRateModel` *predicts* how fast a
mapped design simulates; :class:`RateMonitor` *measures* it on the host
actually running the functional simulation.  Attached to a
:class:`~repro.core.simulation.Simulation`, it observes every round:

* wall-clock per quantum (min/mean/max over the run);
* achieved simulation rate in MHz — target cycles per wall second, the
  number Figures 8/9 plot;
* per-model host-time shares — which blade or switch model the host
  actually spends its time ticking, the profile that tells you where a
  perf PR should aim.

When a :class:`~repro.obs.trace.ChromeTraceSink` is supplied, each
model tick also lands as a host-time span, so Perfetto shows the round
structure visually.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.obs.trace import TraceSink


@dataclass
class RateReport:
    """Measured rate and host-time profile over the observed window."""

    wall_seconds: float
    cycles: int
    rounds: int
    freq_hz: float
    model_host_seconds: Dict[str, float] = field(default_factory=dict)
    min_round_s: float = 0.0
    max_round_s: float = 0.0
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
            "min_round_s": self.min_round_s,
            "max_round_s": self.max_round_s,
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
    """Observes a :class:`Simulation`'s rounds and profiles host time.

    The orchestrator calls :meth:`record_model_tick` once per model per
    round and :meth:`record_round` once per round — only when a monitor
    is attached, so an unmonitored simulation's fast path is untouched.
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
        self._min_round_s = float("inf")
        self._max_round_s = 0.0

    def attach(self, simulation: Any) -> "RateMonitor":
        """Install on a simulation (its ``observer`` slot); returns self."""
        simulation.observer = self
        self.freq_hz = simulation.clock.freq_hz
        return self

    # -- orchestrator callbacks ----------------------------------------

    def record_model_tick(
        self, name: str, start_s: float, end_s: float,
        window_start: int, window_end: int,
    ) -> None:
        elapsed = end_s - start_s
        self.model_host_seconds[name] = (
            self.model_host_seconds.get(name, 0.0) + elapsed
        )
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.host_span(
                name, "sim.tick", start_s, end_s, track="model-ticks",
                args={"window": [window_start, window_end]},
            )

    def record_round(self, quantum: int, round_wall_s: float) -> None:
        self.rounds += 1
        self.cycles += quantum
        self.wall_seconds += round_wall_s
        if round_wall_s < self._min_round_s:
            self._min_round_s = round_wall_s
        if round_wall_s > self._max_round_s:
            self._max_round_s = round_wall_s

    # -- batched-engine aggregation --------------------------------------

    def absorb_tick_totals(
        self, names: Sequence[str], seconds: Sequence[float]
    ) -> None:
        """Fold one batched run's per-model tick totals in one call.

        The batched engine (:mod:`repro.perf.engine`) accumulates tick
        durations into one list slot per model instead of making a
        :meth:`record_model_tick` call per model per round, and flushes
        the totals here at end of run.  ``seconds`` is aligned with
        ``names``.
        """
        for name, elapsed in zip(names, seconds):
            self.model_host_seconds[name] = (
                self.model_host_seconds.get(name, 0.0) + elapsed
            )

    def absorb_round_times(
        self, quantum: int, round_seconds: Sequence[float], skipped: int = 0,
        wall_seconds: Optional[float] = None,
    ) -> None:
        """Fold a whole run's per-round wall times in one call.

        Equivalent to calling :meth:`record_round` once per entry:
        sum/min/max are taken once over the run instead of maintained
        per round.  ``skipped`` rounds are ones the batched
        engine proved idle and never ran: they count toward rounds and
        cycles but have no wall time, so they leave the min/max alone.
        ``wall_seconds``, when given, is the run's whole wall — the
        rounds plus the host time spent between them, such as skipping
        idle ones — and replaces the rounds' sum in the monitor's wall.
        """
        self.rounds += skipped
        self.cycles += skipped * quantum
        if wall_seconds is not None:
            self.wall_seconds += wall_seconds
        if not round_seconds:
            return
        self.rounds += len(round_seconds)
        self.cycles += len(round_seconds) * quantum
        if wall_seconds is None:
            self.wall_seconds += sum(round_seconds)
        fastest = min(round_seconds)
        slowest = max(round_seconds)
        if fastest < self._min_round_s:
            self._min_round_s = fastest
        if slowest > self._max_round_s:
            self._max_round_s = slowest

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
        simulated once no matter how many workers ticked them), and the
        mean round time feeds the min/max envelope.  The transport
        seconds are the workers' summed time inside send/recv calls
        (the per-round overhead the distributed benches report per
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
        mean_round_s = wall_seconds / rounds
        if mean_round_s < self._min_round_s:
            self._min_round_s = mean_round_s
        if mean_round_s > self._max_round_s:
            self._max_round_s = mean_round_s

    # -- reads ----------------------------------------------------------

    def report(self) -> RateReport:
        return RateReport(
            wall_seconds=self.wall_seconds,
            cycles=self.cycles,
            rounds=self.rounds,
            freq_hz=self.freq_hz,
            model_host_seconds=dict(self.model_host_seconds),
            # inf until some round was timed (none, or all skipped).
            min_round_s=(
                0.0 if self._min_round_s == float("inf")
                else self._min_round_s
            ),
            max_round_s=self._max_round_s,
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
