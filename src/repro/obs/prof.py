"""Distributed round-phase profiler: where a lockstep round's time goes.

The paper's simulation-rate argument (Section VI, Figure 9) is a
host-time budget: every lockstep round costs model compute plus the
token-transport hop, and the achievable rate is the quantum divided by
the slowest worker's round.  This module measures which phase of which
worker's round the time goes to:

* :class:`PhaseRecorder` — a preallocated per-worker ring buffer of
  per-round phase timings, where a distributed worker's "round" (one
  row) is one token exchange: the worker's exchange step closes a row
  and opens the next.  The step stamps phase boundaries
  (:meth:`~PhaseRecorder.mark`) as it passes them; one
  ``perf_counter`` read per boundary, a handful per row, so the
  profiler's own cost stays small against the round; the recorder
  calibrates that cost and :meth:`PhaseReport.profiling_overhead_ratio`
  reports it.  The ring retains the last
  ``capacity`` rounds sample-exact for histograms and trace rendering
  while running totals cover the whole run.
* :class:`ClockSync` — anchors each forked worker's monotonic clock to
  the parent's pre-fork epoch so every worker's trace events land on
  one merged timeline.  On Linux ``perf_counter`` is the system-wide
  ``CLOCK_MONOTONIC``, so the offset is zero and the measured
  fork latency is real elapsed time; on a platform where the child's
  clock reads *behind* the parent's epoch the sync re-anchors, keeping
  merged timestamps monotonic per track.
* :class:`WorkerProfile` — the picklable record a worker ships back:
  phase totals, the retained ring samples, per-channel transport
  counters, and the clock sync.  :meth:`WorkerProfile.trace_events`
  renders it as Chrome ``trace_event`` tracks under one pid per worker,
  mergeable into the manager's :class:`~repro.obs.trace.ChromeTraceSink`.
* :class:`PhaseReport` — the cross-worker aggregate: per-worker phase
  shares (summing to ~100% of measured round time by construction —
  ``idle`` is the unattributed remainder), per-phase histograms,
  critical-path attribution naming the worker and phase that bound the
  observed rounds, and the compute/transport/wait share reconciliation.

Phase vocabulary (one row of the ring per exchange):

``compute``
    the round loop between two exchange steps: model ticks, output
    relabelling, local queue traffic, active-set scheduling;
``coalesce``
    flattening an exchange's boundary windows into the one columnar
    payload per peer (:mod:`repro.dist.frame`): entry table, cycle
    column, and the single flit pickle;
``serialize``
    channel framing around the coalesced payload: header pack, CRCs,
    and sequence stamp;
``send``
    writing the encoded bytes to the pipe, net of ``coalesce`` and
    ``serialize``;
``recv_wait``
    blocked waiting for peer round messages — lockstep slack plus the
    channel's decode cost;
``gap``
    delivering received windows into local consuming queues and
    moving their push cursors over the rest of the exchange's span;
``idle``
    whatever the marks did not cover (hooks, bookkeeping) — the
    remainder that makes the shares sum to the measured round time.

Like the rest of :mod:`repro.obs`, nothing here imports other ``repro``
subpackages: the profiler duck-types the distributed result it reports
on, so any layer may depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: JSON artifact marker for exported phase reports.  v2 added the
#: ``coalesce`` phase (the per-peer columnar payload build) between
#: ``compute`` and ``serialize``; v3 dropped the ``transport`` name and
#: the modeled-rate reconciliation keys.
PROFILE_SCHEMA = "repro.obs.prof/v3"

#: Phase order is the wire/report order and the per-round ring layout.
PHASES: Tuple[str, ...] = (
    "compute", "coalesce", "serialize", "send", "recv_wait", "gap", "idle",
)
P_COMPUTE = 0
P_COALESCE = 1
P_SERIALIZE = 2
P_SEND = 3
P_RECV_WAIT = 4
P_GAP = 5
P_IDLE = 6

#: Phases that represent a worker *doing* something; a worker blocked in
#: ``recv_wait`` or ``idle`` is waiting on a peer, so it cannot be the
#: round's critical path.
BUSY_PHASES = (P_COMPUTE, P_COALESCE, P_SERIALIZE, P_SEND, P_GAP)

#: Chrome-trace pids 100, 101, ... host one worker each, clear of the
#: manager's TARGET_PID/HOST_PID (1/2).
WORKER_PID_BASE = 100


@dataclass
class ProfileConfig:
    """Knobs for a profiled distributed run."""

    #: Rounds the per-worker ring retains sample-exact (older rounds
    #: stay in the running totals only).
    ring_capacity: int = 2048
    #: Newest retained rounds rendered into Chrome trace tracks per
    #: worker; caps merged-trace size on long runs.
    trace_rounds: int = 1024

    def __post_init__(self) -> None:
        if self.ring_capacity < 1:
            raise ValueError(
                f"ring_capacity must be >= 1, got {self.ring_capacity}"
            )
        if self.trace_rounds < 0:
            raise ValueError(
                f"trace_rounds must be >= 0, got {self.trace_rounds}"
            )


@dataclass(frozen=True)
class ClockSync:
    """One worker's monotonic clock anchored to the parent's epoch.

    ``epoch_s`` is the parent's ``perf_counter`` stamped just before
    forking; ``entry_s`` is the worker's first reading after the fork.
    On a shared monotonic clock ``entry_s >= epoch_s`` and the offset is
    zero — ``fork_latency_s`` is then genuine elapsed fork time.  A
    child clock reading behind the epoch can only mean a per-process
    clock domain; re-anchoring it at the epoch keeps the merged
    timeline ordered.  The derivation is pure arithmetic over the two
    stamps, so synchronization is deterministic given its inputs.
    """

    epoch_s: float
    entry_s: float

    @property
    def offset_s(self) -> float:
        """Subtract from worker timestamps to get parent-clock time."""
        skew = self.entry_s - self.epoch_s
        return skew if skew < 0.0 else 0.0

    @property
    def fork_latency_s(self) -> float:
        """Elapsed parent time between the epoch stamp and worker entry."""
        skew = self.entry_s - self.epoch_s
        return skew if skew > 0.0 else 0.0

    def to_parent(self, worker_s: float) -> float:
        """Map a worker ``perf_counter`` reading onto the parent's clock."""
        return worker_s - self.offset_s

    def to_dict(self) -> Dict[str, float]:
        return {
            "epoch_s": self.epoch_s,
            "entry_s": self.entry_s,
            "offset_s": self.offset_s,
            "fork_latency_s": self.fork_latency_s,
        }


class PhaseRecorder:
    """Per-round phase timers in a preallocated ring buffer.

    The round loop calls :meth:`round_begin` at the top of each round
    and :meth:`mark` as it crosses each phase boundary; the time since
    the previous boundary is attributed to the named phase.  Phases may
    be marked more than once per round (one ``recv_wait`` mark per
    peer) — segments accumulate.  :meth:`accrue` moves already-counted
    time between phases, which is how the shm ring's staging loop
    splits ``serialize`` out of the enclosing ``send`` segment without
    the transport knowing about round structure.

    ``round_end`` closes the row: the un-marked remainder becomes
    ``idle`` and the row lands in the ring, overwriting the oldest
    round once ``capacity`` rounds are retained.  Totals accumulate
    over *all* rounds regardless of wraparound.

    The ring rows are plain Python lists: storing the closed
    accumulator list is a pointer write, cheap against the
    <5%-of-round-time overhead budget, and :meth:`chronological` only
    unrolls the ring.
    """

    __slots__ = (
        "capacity", "totals", "rounds",
        "_sample_ring", "_start_ring",
        "_accum", "_accrued", "_t0", "_last", "_marks", "_mark_cost_s",
    )

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        n = len(PHASES)
        #: Ring rows: seconds per phase for the retained rounds (closed
        #: accumulator lists, owned by the ring once stored).
        self._sample_ring: List[Optional[List[float]]] = [None] * capacity
        #: Ring of round-begin timestamps (worker-clock seconds).
        self._start_ring: List[float] = [0.0] * capacity
        #: Whole-run phase totals (never wrap).
        self.totals = [0.0] * n
        self.rounds = 0
        self._accum = [0.0] * n
        self._accrued = [0.0] * n
        self._t0 = 0.0
        self._last = 0.0
        self._marks = 0
        # Calibrate the cost of one boundary stamp so the profiler can
        # report its own measured overhead (see overhead_estimate_s).
        t0 = perf_counter()
        for _ in range(256):
            perf_counter()
        self._mark_cost_s = (perf_counter() - t0) / 256.0

    @property
    def wrapped(self) -> bool:
        return self.rounds > self.capacity

    @property
    def retained(self) -> int:
        return min(self.rounds, self.capacity)

    def round_begin(self) -> None:
        now = perf_counter()
        self._t0 = now
        self._last = now
        # Fresh lists instead of zeroing: the previous round's closed
        # accumulator is owned by the ring now, and a 7-element literal
        # allocates faster than a Python zeroing loop runs.
        self._accum = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        self._accrued = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def mark(self, phase: int) -> None:
        """Attribute the segment since the last boundary to ``phase``."""
        now = perf_counter()
        self._accum[phase] += now - self._last
        self._last = now
        self._marks += 1

    def accrue(self, phase: int, seconds: float) -> None:
        """Re-attribute ``seconds`` of an enclosing segment to ``phase``.

        Used by transport internals (the frame codec's coalescing loop
        and the shm ring's header framing): the time stays inside
        whatever segment the loop will mark, and ``round_end`` subtracts
        it from that segment's phase.  Accrued coalesce and serialize
        time is deducted from ``send``.
        """
        self._accrued[phase] += seconds
        self._marks += 1

    def round_end(self) -> None:
        """Close the row: idle is the unattributed remainder."""
        now = perf_counter()
        accum = self._accum
        total = now - self._t0
        coalesce = self._accrued[P_COALESCE]
        serialize = self._accrued[P_SERIALIZE]
        encode = coalesce + serialize
        if encode > 0.0:
            accum[P_COALESCE] += coalesce
            accum[P_SERIALIZE] += serialize
            # Encoding ran inside the send segment; keep send net of it.
            accum[P_SEND] = max(0.0, accum[P_SEND] - encode)
        attributed = (
            accum[P_COMPUTE] + accum[P_COALESCE] + accum[P_SERIALIZE]
            + accum[P_SEND] + accum[P_RECV_WAIT] + accum[P_GAP]
        )
        accum[P_IDLE] = max(0.0, total - attributed)
        slot = self.rounds % self.capacity
        self._sample_ring[slot] = accum
        self._start_ring[slot] = self._t0
        totals = self.totals
        totals[0] += accum[0]
        totals[1] += accum[1]
        totals[2] += accum[2]
        totals[3] += accum[3]
        totals[4] += accum[4]
        totals[5] += accum[5]
        totals[6] += accum[6]
        self.rounds += 1

    def chronological(self) -> Tuple[List[float], List[List[float]]]:
        """Retained ``(starts, samples)`` unrolled oldest-to-newest."""
        if not self.wrapped:
            retained = self.retained
            return self._start_ring[:retained], self._sample_ring[:retained]
        pivot = self.rounds % self.capacity
        return (
            self._start_ring[pivot:] + self._start_ring[:pivot],
            self._sample_ring[pivot:] + self._sample_ring[:pivot],
        )

    @property
    def overhead_estimate_s(self) -> float:
        """Measured cost of the recorder's own boundary stamps."""
        return self._marks * self._mark_cost_s


def _percentile(ordered: Sequence[float], pct: float) -> float:
    """Percentile of an ascending, non-empty list, interpolating linearly
    between the two closest ranks (Hyndman and Fan's type 7, the usual
    default of numeric libraries)."""
    rank = (len(ordered) - 1) * (pct / 100)
    low = int(rank)
    gamma = rank - low
    below = ordered[low]
    above = ordered[min(low + 1, len(ordered) - 1)]
    if gamma >= 0.5:
        return above - (above - below) * (1 - gamma)
    return below + (above - below) * gamma


@dataclass
class WorkerProfile:
    """One worker's shipped profile: totals, ring samples, counters."""

    worker_id: int
    phases: Tuple[str, ...]
    totals: Dict[str, float]
    rounds: int
    ring_capacity: int
    wrapped: bool
    #: Retained ring rows, chronological: one list of per-phase seconds
    #: per retained round.
    samples: List[List[float]]
    #: Round-begin stamps for the retained rows (worker clock).
    round_starts: List[float]
    clock: ClockSync
    #: Transport counters per directed channel this worker drove, keyed
    #: ``"src->dst"`` with a ``role`` of "send" or "recv".
    channel_counters: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Outbox coalescing stats per peer: entries drained / peak per exchange.
    outbox_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Measured cost of the profiler's own timestamp reads.
    overhead_estimate_s: float = 0.0

    @classmethod
    def from_recorder(
        cls,
        worker_id: int,
        recorder: PhaseRecorder,
        clock: ClockSync,
        channel_counters: Optional[Dict[str, Dict[str, Any]]] = None,
        outbox_stats: Optional[Dict[int, Dict[str, int]]] = None,
    ) -> "WorkerProfile":
        starts, samples = recorder.chronological()
        return cls(
            worker_id=worker_id,
            phases=PHASES,
            totals=dict(zip(PHASES, recorder.totals)),
            rounds=recorder.rounds,
            ring_capacity=recorder.capacity,
            wrapped=recorder.wrapped,
            samples=samples,
            round_starts=starts,
            clock=clock,
            channel_counters=dict(channel_counters or {}),
            outbox_stats=dict(outbox_stats or {}),
            overhead_estimate_s=recorder.overhead_estimate_s,
        )

    @property
    def wall_seconds(self) -> float:
        """Total attributed round time (phases sum to this)."""
        return sum(self.totals.values())

    def phase_shares(self) -> Dict[str, float]:
        """Fraction of measured round time per phase; sums to ~1.0."""
        total = self.wall_seconds
        if total <= 0.0:
            return {phase: 0.0 for phase in self.phases}
        return {
            phase: self.totals[phase] / total for phase in self.phases
        }

    def busy_seconds(self) -> float:
        return sum(self.totals[PHASES[i]] for i in BUSY_PHASES)

    def histogram(self, percentiles: Sequence[float] = (50, 90, 99)) -> (
        Dict[str, Dict[str, float]]
    ):
        """Per-phase round-time distribution over the retained samples."""
        out: Dict[str, Dict[str, float]] = {}
        if not self.samples:
            return out
        for index, phase in enumerate(self.phases):
            column = sorted(row[index] for row in self.samples)
            entry = {
                "mean_s": sum(column) / len(column),
                "max_s": column[-1],
            }
            for pct in percentiles:
                entry[f"p{pct:g}_s"] = _percentile(column, pct)
            out[phase] = entry
        return out

    def trace_events(self, max_rounds: int = 1024) -> List[Dict[str, Any]]:
        """Chrome trace events for this worker under its own pid.

        Two tracks: ``rounds`` (one span per retained round) and
        ``phases`` (the round rendered as consecutive phase segments in
        canonical order, so per-track timestamps stay monotonic).
        Timestamps are parent-clock microseconds via :class:`ClockSync`.
        """
        pid = WORKER_PID_BASE + self.worker_id
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"worker{self.worker_id}"}},
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": 1,
             "args": {"name": "rounds"}},
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": 2,
             "args": {"name": "phases"}},
        ]
        retained = len(self.samples)
        first = max(0, retained - max_rounds)
        first_round = self.rounds - retained + first
        to_parent = self.clock.to_parent
        for row in range(first, retained):
            start_us = to_parent(self.round_starts[row]) * 1e6
            durations = self.samples[row]
            round_us = sum(durations) * 1e6
            events.append({
                "name": f"round {first_round + row - first}",
                "cat": "dist.round", "ph": "X",
                "ts": start_us, "dur": round_us, "pid": pid, "tid": 1,
                "args": {"worker": self.worker_id},
            })
            offset_us = start_us
            for index, phase in enumerate(self.phases):
                dur_us = durations[index] * 1e6
                if dur_us <= 0.0:
                    continue
                events.append({
                    "name": phase, "cat": "dist.phase", "ph": "X",
                    "ts": offset_us, "dur": dur_us, "pid": pid, "tid": 2,
                    "args": {},
                })
                offset_us += dur_us
        return events

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "rounds": self.rounds,
            "ring_capacity": self.ring_capacity,
            "wrapped": self.wrapped,
            "retained_rounds": len(self.samples),
            "wall_seconds": self.wall_seconds,
            "phase_seconds": dict(self.totals),
            "phase_shares": self.phase_shares(),
            "histogram": self.histogram(),
            "clock": self.clock.to_dict(),
            "channel_counters": self.channel_counters,
            "outbox_stats": {
                str(peer): dict(stats)
                for peer, stats in sorted(self.outbox_stats.items())
            },
            "overhead_estimate_s": self.overhead_estimate_s,
        }


@dataclass
class PhaseReport:
    """Cross-worker aggregate of one profiled distributed run."""

    quantum: int
    rounds: int
    num_workers: int
    wall_seconds: float
    measured_rate_mhz: float
    profiles: List[WorkerProfile] = field(default_factory=list)

    @classmethod
    def from_result(cls, result: Any) -> "PhaseReport":
        """Build from a duck-typed DistributedRunResult with profiles."""
        profiles = [
            worker.profile for worker in result.workers
            if getattr(worker, "profile", None) is not None
        ]
        return cls(
            quantum=result.quantum,
            rounds=result.rounds,
            num_workers=result.num_workers,
            wall_seconds=result.wall_seconds,
            measured_rate_mhz=result.measured_rate_mhz(),
            profiles=sorted(profiles, key=lambda p: p.worker_id),
        )

    # -- attribution -----------------------------------------------------

    def critical_path(self) -> Dict[str, Any]:
        """Name the worker and phase bounding the observed rounds.

        In lockstep every worker's round wall clock tracks the slowest
        worker's (the others wait in ``recv_wait``), so the *bound* is
        the worker doing the most work, not the one with the longest
        wall time: per retained round, the bounding worker is the one
        with the most busy (compute/serialize/send/gap) seconds, and
        the named phase is the bounding worker's largest busy phase.
        """
        if not self.profiles:
            return {}
        retained = min(len(p.samples) for p in self.profiles)
        counts = {p.worker_id: 0 for p in self.profiles}
        if retained > 0:
            # Line up the common tail so per-round rows match across
            # workers (all rings advance one row per exchange); the
            # first worker with the most busy seconds bounds the round.
            busy = [
                [sum(row[i] for i in BUSY_PHASES)
                 for row in p.samples[-retained:]]
                for p in self.profiles
            ]
            for rounds in zip(*busy):
                bound = max(range(len(rounds)), key=rounds.__getitem__)
                counts[self.profiles[bound].worker_id] += 1
        critical = max(
            self.profiles,
            key=lambda p: (counts[p.worker_id], p.busy_seconds()),
        )
        phase = max(
            (PHASES[i] for i in BUSY_PHASES),
            key=lambda name: critical.totals[name],
        )
        busy_total = critical.busy_seconds()
        return {
            "worker": critical.worker_id,
            "phase": phase,
            "phase_seconds": critical.totals[phase],
            "phase_share_of_busy": (
                critical.totals[phase] / busy_total if busy_total else 0.0
            ),
            "rounds_bound": counts[critical.worker_id],
            "rounds_observed": retained,
        }

    def reconciliation(self) -> Dict[str, Any]:
        """The measured rate with round time attributed to phase shares.

        ``transport_share`` (coalesce + serialize + send + recv_wait
        over all workers) is the Figure-9 knob: it shrinks as the token
        batch grows, exactly the paper's batch/latency trade-off.
        """
        totals = {phase: 0.0 for phase in PHASES}
        for profile in self.profiles:
            for phase, seconds in profile.totals.items():
                totals[phase] += seconds
        attributed = sum(totals.values())
        transport = (
            totals["coalesce"] + totals["serialize"] + totals["send"]
            + totals["recv_wait"]
        )
        return {
            "measured_rate_mhz": self.measured_rate_mhz,
            "compute_share": (
                totals["compute"] / attributed if attributed else 0.0
            ),
            "transport_share": (
                transport / attributed if attributed else 0.0
            ),
            "wait_share": (
                totals["recv_wait"] / attributed if attributed else 0.0
            ),
        }

    def profiling_overhead_ratio(self) -> float:
        """Self-reported overhead: stamp cost over attributed time.

        A lower bound from the recorder's calibrated boundary-stamp
        cost: the stamps a run made times the measured cost of one.
        """
        attributed = sum(p.wall_seconds for p in self.profiles)
        if attributed <= 0.0:
            return 0.0
        overhead = sum(p.overhead_estimate_s for p in self.profiles)
        return overhead / attributed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA,
            "quantum": self.quantum,
            "rounds": self.rounds,
            "num_workers": self.num_workers,
            "wall_seconds": self.wall_seconds,
            "per_worker": {
                str(profile.worker_id): profile.to_dict()
                for profile in self.profiles
            },
            "critical_path": self.critical_path(),
            "reconciliation": self.reconciliation(),
            "profiling_overhead_ratio": self.profiling_overhead_ratio(),
        }

    def summary_lines(self) -> List[str]:
        """Human-readable report for the CLI ``profile`` verb."""
        lines = [
            f"phase profile: {self.num_workers} workers, {self.rounds} "
            f"rounds, {self.measured_rate_mhz:.3f} MHz measured",
        ]
        for profile in self.profiles:
            shares = profile.phase_shares()
            parts = ", ".join(
                f"{phase} {share * 100.0:.1f}%"
                for phase, share in shares.items()
                if share >= 0.005
            )
            lines.append(
                f"  worker {profile.worker_id}: "
                f"{profile.wall_seconds:.3f} s attributed ({parts})"
            )
        critical = self.critical_path()
        if critical:
            lines.append(
                f"critical path: worker {critical['worker']} "
                f"{critical['phase']} "
                f"({critical['phase_share_of_busy'] * 100.0:.1f}% of its "
                f"busy time; bounds {critical['rounds_bound']}/"
                f"{critical['rounds_observed']} observed rounds)"
            )
        lines.append(
            "profiler self-overhead: "
            f"{self.profiling_overhead_ratio() * 100.0:.2f}% of attributed "
            "time"
        )
        return lines
