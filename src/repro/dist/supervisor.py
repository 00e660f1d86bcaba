"""Liveness supervision for distributed runs: heartbeats and hang kills.

The crash path in :mod:`repro.dist.engine` only covers workers that
*die* — an ``("error", ...)`` report or a nonzero exit surfaces as
:class:`~repro.faults.plan.WorkerCrash` and checkpoint-restores.  A
worker that *hangs* (deadlocked ring recv, lost shm wakeup, livelocked
round loop) kept its process alive and its result pending, so the
parent's poll loop would wait forever.  This module closes that gap the
way the paper's manager supervises simulation hosts (Section III-C):
progress must be *observable*, and a host that stops progressing is
declared failed and recycled.

Two pieces:

:class:`HeartbeatBlock`
    A small pre-fork ``multiprocessing.shared_memory`` control block
    with one fixed slot per worker.  Each slot is a tiny single-writer
    ring of ``(round, phase, stamp)`` entries published through a
    monotonic sequence counter (payload-then-publish, same discipline
    as :class:`~repro.dist.shm.ShmRing` cursors): the worker writes the
    entry at ``seq % depth`` first and bumps ``seq`` after, so the
    parent always reads a complete beat at ``(seq - 1) % depth`` and
    the counter itself is the progress signal.  Workers beat at every
    exchange (entering send, entering recv, entering compute), so the parent can name the *phase* a hung worker died in.

:class:`Supervisor`
    The parent-side monitor, polled from the collection loop whenever
    the result queue is idle.  It tracks per-worker sequence advance
    against an adaptive deadline — a grace multiple of the observed
    per-round time (EMA over round advances), clamped below by a
    configurable floor so short rounds never false-positive — and
    returns a :class:`HangVerdict` for the first worker that blows it.
    The engine then escalates SIGTERM -> SIGKILL via :meth:`kill` and
    raises :class:`~repro.faults.plan.WorkerHang`, which the manager
    handles exactly like a crash: checkpoint-restore, one fewer worker.

A host without usable POSIX shared memory simply runs without the
block (``HeartbeatBlock.create`` raising ``OSError`` degrades
supervision to crash-only detection); the report records it disabled.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Set

from repro import ConfigError
from repro.dist.shm import HEARTBEAT_PREFIX

__all__ = [
    "HB_STARTUP",
    "HB_RECV",
    "HB_COMPUTE",
    "HB_SEND",
    "HB_DONE",
    "PHASE_NAMES",
    "Heartbeat",
    "HeartbeatBlock",
    "HeartbeatWriter",
    "SupervisorConfig",
    "HangVerdict",
    "Supervisor",
]

# Beat phases: where in the lockstep round the worker last checked in.
HB_STARTUP = 0  # forked, not yet in the round loop
HB_RECV = 1  # waiting on peer tokens
HB_COMPUTE = 2  # ticking models
HB_SEND = 3  # publishing boundary tokens
HB_DONE = 4  # round loop finished, result being shipped

PHASE_NAMES = {
    HB_STARTUP: "startup",
    HB_RECV: "recv",
    HB_COMPUTE: "compute",
    HB_SEND: "send",
    HB_DONE: "done",
}

#: Beats retained per worker slot.  The newest beat is all the monitor
#: needs; the short history exists for post-mortem diagnostics (what
#: phases led up to the hang) and must survive sequence wraparound
#: within the slot — see ``tests/test_supervisor.py``.
SLOT_DEPTH = 8

#: 8-byte words per worker slot: ``seq``, then ``SLOT_DEPTH`` each of
#: ``round`` (u64), ``phase`` (u64) and ``stamp`` (f64) entries.
_SLOT_WORDS = 1 + 3 * SLOT_DEPTH

# Heartbeat segments share a pid prefix with token rings but need a
# per-process serial too: a manager that restarts a run (checkpoint
# restore) creates a second block before the kernel has necessarily
# reaped the first name.
_block_serial = 0


@dataclass(frozen=True)
class Heartbeat:
    """One decoded beat: the worker's latest published progress."""

    worker_id: int
    seq: int
    round: int
    phase: int
    stamp_s: float

    @property
    def phase_name(self) -> str:
        return PHASE_NAMES.get(self.phase, f"phase{self.phase}")


class HeartbeatWriter:
    """A worker's handle for publishing beats into its own slot.

    Single writer per slot (the worker), single reader (the parent);
    the payload-then-publish order on ``seq`` is the only discipline
    needed.  ``beat`` sits inside the exchange step, so it is four
    ``memoryview`` stores and nothing else.
    """

    __slots__ = ("_block", "_worker_id")

    def __init__(self, block: "HeartbeatBlock", worker_id: int) -> None:
        # Hold the block, not a view: a cached view would pin the
        # mmap's exported-pointer count and make close() a BufferError
        # whenever a writer outlives the block.
        self._block = block
        self._worker_id = worker_id

    def beat(self, round_index: int, phase: int) -> None:
        block = self._block
        words = block._words
        base = self._worker_id * _SLOT_WORDS
        seq = words[base]
        entry = base + 1 + seq % SLOT_DEPTH
        words[entry] = round_index
        words[entry + SLOT_DEPTH] = phase
        block._stamps[entry + 2 * SLOT_DEPTH] = time.monotonic()
        words[base] = seq + 1  # publish after the entry landed


class HeartbeatBlock:
    """Pre-fork shared control block: one beat slot per worker."""

    def __init__(
        self, segment: shared_memory.SharedMemory, num_workers: int
    ) -> None:
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self.num_workers = num_workers
        self.name = segment.name
        # One slot of ``_SLOT_WORDS`` words per worker, read as u64
        # through ``_words`` and as f64 (stamps) through ``_stamps``.
        used = segment.buf[:8 * _SLOT_WORDS * num_workers]
        self._words = used.cast("Q")
        self._stamps = used.cast("d")

    @classmethod
    def create(cls, num_workers: int) -> "HeartbeatBlock":
        """Allocate a zeroed block (parent, before forking).

        Raises ``OSError`` when the host cannot provide POSIX shared
        memory; the run driver degrades to crash-only supervision.
        """
        global _block_serial
        _block_serial += 1
        name = f"{HEARTBEAT_PREFIX}{os.getpid()}-{_block_serial}"
        segment = shared_memory.SharedMemory(
            name=name,
            create=True,
            size=8 * _SLOT_WORDS * num_workers,
        )
        # Zero-filled on creation: seq == 0 means "no beat yet".
        return cls(segment, num_workers)

    def writer(self, worker_id: int) -> HeartbeatWriter:
        return HeartbeatWriter(self, worker_id)

    def _beat(self, worker_id: int, seq: int) -> Heartbeat:
        """Decode the slot entry that beat ``seq`` (>= 1) wrote."""
        words = self._words
        entry = worker_id * _SLOT_WORDS + 1 + (seq - 1) % SLOT_DEPTH
        return Heartbeat(
            worker_id=worker_id,
            seq=seq,
            round=words[entry],
            phase=words[entry + SLOT_DEPTH],
            stamp_s=self._stamps[entry + 2 * SLOT_DEPTH],
        )

    def read(self, worker_id: int) -> Optional[Heartbeat]:
        """The worker's newest published beat, or None before the first."""
        seq = self._words[worker_id * _SLOT_WORDS]
        return self._beat(worker_id, seq) if seq else None

    def history(self, worker_id: int) -> List[Heartbeat]:
        """Up to the last ``SLOT_DEPTH`` beats, oldest first."""
        seq = self._words[worker_id * _SLOT_WORDS]
        return [
            self._beat(worker_id, entry_seq)
            for entry_seq in range(max(seq - SLOT_DEPTH, 0) + 1, seq + 1)
        ]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (workers, on the way out)."""
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        # Views must die before the mmap closes (BufferError).
        self._words = None  # type: ignore[assignment]
        self._stamps = None  # type: ignore[assignment]
        segment.close()

    def destroy(self) -> None:
        """Close and unlink the segment (parent only; idempotent)."""
        segment = self._segment
        self.close()
        if segment is None:
            return
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


@dataclass
class SupervisorConfig:
    """Knobs for the hang detector.

    ``hang_timeout_s`` is the deadline *floor*: a worker is never
    declared hung before this many seconds of zero progress, no matter
    how fast rounds have been.  The effective deadline is
    ``max(floor, round_grace * observed_round_seconds)`` so slow
    topologies (dense windows, big quanta) get proportionally more
    rope.  ``kill_grace_s`` is how long SIGTERM gets before SIGKILL.
    """

    enabled: bool = True
    hang_timeout_s: float = 30.0
    round_grace: float = 16.0
    kill_grace_s: float = 2.0

    def __post_init__(self) -> None:
        if self.hang_timeout_s <= 0:
            raise ConfigError(
                f"hang_timeout_s must be positive, got {self.hang_timeout_s}"
            )
        if self.round_grace < 1.0:
            raise ConfigError(
                f"round_grace must be >= 1, got {self.round_grace}"
            )
        if self.kill_grace_s < 0:
            raise ConfigError(
                f"kill_grace_s must be >= 0, got {self.kill_grace_s}"
            )


@dataclass(frozen=True)
class HangVerdict:
    """A worker declared hung: who, where, and how long it sat."""

    worker_id: int
    idle_s: float
    deadline_s: float
    round: int
    phase: int
    seq: int

    def describe(self) -> str:
        phase = PHASE_NAMES.get(self.phase, f"phase{self.phase}")
        if self.seq == 0:
            where = "before its first heartbeat"
        else:
            where = f"in phase {phase!r} of round {self.round}"
        return (
            f"hung {where}: no progress for {self.idle_s:.1f}s "
            f"(deadline {self.deadline_s:.1f}s)"
        )


class Supervisor:
    """Parent-side liveness monitor over a :class:`HeartbeatBlock`.

    ``poll`` is called from the engine's collection loop on every idle
    queue timeout; it is cheap (one shared-memory read per live worker)
    and returns at most one :class:`HangVerdict` per call so the
    engine handles a single failure at a time, exactly as it does for
    crashes.
    """

    def __init__(
        self,
        block: Optional[HeartbeatBlock],
        num_workers: int,
        config: SupervisorConfig,
        stats: Optional[Any] = None,
    ) -> None:
        self.block = block
        self.num_workers = num_workers
        self.config = config
        self.stats = stats
        now = time.monotonic()
        self._last_seq = {wid: 0 for wid in range(num_workers)}
        self._last_round = {wid: -1 for wid in range(num_workers)}
        self._last_progress = {wid: now for wid in range(num_workers)}
        self._round_stamp = {wid: now for wid in range(num_workers)}
        self._round_ema: Dict[int, float] = {}
        self.polls = 0
        self.beats_seen = 0
        self.verdicts: List[HangVerdict] = []
        self.workers_killed = 0

    @property
    def enabled(self) -> bool:
        return self.config.enabled and self.block is not None

    def deadline_s(self) -> float:
        """Current adaptive deadline: grace x observed round time, floored."""
        floor = self.config.hang_timeout_s
        if not self._round_ema:
            return floor
        # The slowest worker's cadence sets the deadline: declaring the
        # straggler hung because its *peers* are fast would be wrong.
        return max(floor, self.config.round_grace * max(self._round_ema.values()))

    def poll(self, done: Set[int]) -> Optional[HangVerdict]:
        """Check every unfinished worker's progress; verdict on the first hang."""
        if not self.enabled:
            return None
        assert self.block is not None
        self.polls += 1
        now = time.monotonic()
        for worker_id in range(self.num_workers):
            if worker_id in done:
                continue
            beat = self.block.read(worker_id)
            seq = beat.seq if beat is not None else 0
            if seq > self._last_seq[worker_id]:
                self.beats_seen += seq - self._last_seq[worker_id]
                self._last_seq[worker_id] = seq
                self._last_progress[worker_id] = now
                assert beat is not None
                rounds_advanced = beat.round - self._last_round[worker_id]
                if self._last_round[worker_id] >= 0 and rounds_advanced > 0:
                    per_round = (
                        now - self._round_stamp[worker_id]
                    ) / rounds_advanced
                    previous = self._round_ema.get(worker_id)
                    self._round_ema[worker_id] = (
                        per_round
                        if previous is None
                        else 0.8 * previous + 0.2 * per_round
                    )
                if rounds_advanced > 0 or self._last_round[worker_id] < 0:
                    self._last_round[worker_id] = beat.round
                    self._round_stamp[worker_id] = now
                continue
            idle = now - self._last_progress[worker_id]
            deadline = self.deadline_s()
            if idle <= deadline:
                continue
            verdict = HangVerdict(
                worker_id=worker_id,
                idle_s=idle,
                deadline_s=deadline,
                round=beat.round if beat is not None else -1,
                phase=beat.phase if beat is not None else HB_STARTUP,
                seq=seq,
            )
            self.verdicts.append(verdict)
            if self.stats is not None:
                self.stats.hangs_detected += 1
            return verdict
        return None

    def settle(self) -> None:
        """Count every published beat, polled or not (the run joined)."""
        if self.enabled:
            beats = map(self.block.read, range(self.num_workers))
            self.beats_seen = sum(beat.seq for beat in beats if beat)

    def kill(self, process: Any) -> None:
        """Escalate a hung worker: SIGTERM, grace, SIGKILL, reap."""
        process.terminate()
        process.join(self.config.kill_grace_s)
        if process.is_alive():
            process.kill()
            process.join()
        self.workers_killed += 1
        if self.stats is not None:
            self.stats.workers_killed += 1

    def report(self) -> Dict[str, Any]:
        """Supervision summary for ``DistributedRunResult.supervision``."""
        return {
            "enabled": self.enabled,
            "polls": self.polls,
            "beats": self.beats_seen,
            "hangs": len(self.verdicts),
            "workers_killed": self.workers_killed,
            "deadline_s": self.deadline_s() if self.enabled else 0.0,
            "verdicts": [verdict.describe() for verdict in self.verdicts],
        }
