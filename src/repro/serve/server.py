"""The job server: manager-as-a-service (paper Section III-B3).

Upstream FireSim's manager is a batch tool — one invocation, one run.
:class:`JobServer` makes it a long-lived service the way the paper's
"simulation-cloud" framing implies: an asyncio event loop (running in a
daemon thread so synchronous callers and the CLI can drive it) owns a
job table, a :class:`~repro.serve.farm.ServeFarm` slot ledger, and a
:class:`~repro.serve.scheduler.Scheduler`; every started job runs in
a forked runner process (:func:`~repro.serve.job.run_job_child`) that
owns its process group — one runner per running job, reused across
jobs, retired after a failure or a kill — so tenants cannot perturb
each other's target-time determinism: the bit-equality tests in
``tests/test_serve.py`` hold the server to that, on fresh and on
reused runners alike.

Preemption is checkpoint-backed: a victim is *ordered* to stop, stops
at its next segment boundary, ships back a portable
``(cycle, digest)`` checkpoint, and re-enters the queue; when
rescheduled it replays to that cycle and the digest proves the resumed
run is the same run.  Graceful shutdown drains or checkpoints every
job, reaps every runner, and audits /dev/shm for leaked heartbeat
blocks.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import wait as wait_ready
from multiprocessing.util import Finalize, register_after_fork
from typing import Any, Dict, List, NamedTuple, Optional, Set

from repro import ReproError
from repro.dist.shm import leaked_segments
from repro.serve.farm import ServeFarm
from repro.serve.job import (
    JobRecord,
    JobSpec,
    JobState,
    TERMINAL_STATES,
    run_job_child,
)
from repro.serve.scheduler import AGING_EVERY, Scheduler


class ServeError(ReproError):
    """A server operation failed (unknown job, bad state, shut down)."""


class _Runner(NamedTuple):
    """A forked runner process and the server's end of its pipe."""

    process: Any
    pipe: Any


def _close_pipe(pipe: Any) -> None:
    pipe.close()


def _close_pipes(live: Dict[int, Any]) -> None:
    """EOF for the runners of a server nobody stopped, so they exit and
    multiprocessing's join of live children at interpreter exit ends."""
    for pipe in live.values():
        pipe.close()


class ServeStats:
    """Numeric counters exposed as ``serve.*`` gauges via telemetry."""

    def __init__(self) -> None:
        self.submitted = 0
        self.rejected = 0
        self.started = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.preemptions = 0
        self.resumes = 0
        self.queued = 0
        self.running = 0
        self.capacity_slots = 0
        self.used_slots = 0
        self.schedule_rounds = 0


class JobServer:
    """Long-lived multi-tenant run-farm service.

    Thread model: one asyncio loop in a daemon thread owns all mutable
    state (job table, farm ledger, in-flight sets, idle runners).  Each
    running job gets a pump in a worker thread (``asyncio.to_thread``)
    that blocks on its runner's pipe and process sentinel together; it
    only *reads* and reports back into the loop.  Commands to runners
    (run/preempt/cancel/exit) are sent from the loop thread — the
    ``multiprocessing.Pipe`` is full-duplex, and the two threads touch
    opposite directions only.  Joining a retired runner (and killing
    one that will not exit) runs in a worker thread too, so a dying
    process never stalls scheduling.

    Runners: a started job takes an idle runner, and a runner is forked
    only when none is idle, so there are never more runners than jobs
    that ran at once.  A runner whose job ends goes back to the idle
    set; after a ``failed`` terminal, a broken pipe or a kill it is
    retired instead, and the next job gets a fresh fork.  Nothing is
    forked before the first job, and shutdown retires every runner
    before the leak audit.  Completion is event-driven: :meth:`wait`
    awaits a per-job event set when the record turns terminal.
    """

    def __init__(
        self,
        farm: Optional[ServeFarm] = None,
        event_log: Optional[str] = None,
        aging_every: int = AGING_EVERY,
    ) -> None:
        self.farm = farm or ServeFarm()
        self.scheduler = Scheduler(aging_every=aging_every)
        self.stats = ServeStats()
        self.stats.capacity_slots = self.farm.capacity
        self.records: Dict[int, JobRecord] = {}
        self.events: List[Dict[str, Any]] = []
        self.event_log = event_log
        self.leaked: List[str] = []
        self._next_id = 1
        self._seq = 0
        self._event_seq = 0
        self._preempting: set = set()
        self._cancelling: set = set()
        self._settled: Dict[int, asyncio.Event] = {}
        self._running: Dict[int, _Runner] = {}
        self._idle: List[_Runner] = []
        # Server pipe ends of every live runner, by pid.
        self._live: Dict[int, Any] = {}
        # Priority 0: at interpreter exit, before multiprocessing joins
        # its live children.
        Finalize(self, _close_pipes, args=(self._live,), exitpriority=0)
        self._tasks: Set[asyncio.Task] = set()
        self._accepting = True
        self._no_new_starts = False
        self._shut_down = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._mp = multiprocessing.get_context("fork")

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "JobServer":
        """Run the event loop in a daemon thread; idempotent."""
        if self._thread is not None:
            return self
        ready = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            ready.set()
            loop.run_forever()
            # Drain callbacks scheduled during the final iteration.
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-serve", daemon=True
        )
        self._thread.start()
        ready.wait()
        self._emit("serving", farm=self.farm.describe())
        return self

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise ServeError("server not started")
        return self._loop

    def stop(self, drain: bool = False, timeout_s: float = 60.0) -> None:
        """Graceful shutdown from any thread: see :meth:`shutdown`."""
        if self._loop is None or self._shut_down:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.shutdown(drain=drain), self.loop
        )
        future.result(timeout=timeout_s)
        self.loop.call_soon_threadsafe(self.loop.stop)
        assert self._thread is not None
        self._thread.join(timeout=timeout_s)

    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM → graceful shutdown (the ``serve`` verb)."""

        def _handler(signum: int, frame: Any) -> None:
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    # -- events ---------------------------------------------------------

    def _emit(self, event: str, job_id: Optional[int] = None,
              **fields: Any) -> None:
        record: Dict[str, Any] = {
            "seq": self._event_seq,
            "ts": round(time.time(), 6),
            "event": event,
        }
        self._event_seq += 1
        if job_id is not None:
            record["job_id"] = job_id
        record.update(fields)
        self.events.append(record)
        if self.event_log:
            with open(self.event_log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def _sync_gauges(self) -> None:
        states = [r.state for r in self.records.values()]
        self.stats.queued = sum(1 for s in states if s == JobState.QUEUED)
        self.stats.running = sum(1 for s in states if s == JobState.RUNNING)
        self.stats.used_slots = self.farm.used

    # -- public API (coroutines on the server loop) ---------------------

    async def submit(self, spec_dict: Dict[str, Any]) -> int:
        """Validate, admit, and (maybe immediately) schedule a job."""
        if not self._accepting:
            raise ServeError("server is shutting down; not accepting jobs")
        spec = JobSpec.from_dict(spec_dict)
        slots = spec.fpga_slots()
        if slots > self.farm.capacity:
            self.stats.rejected += 1
            raise ServeError(
                f"job {spec.name!r} needs {slots} FPGA slots but the farm "
                f"has {self.farm.capacity}; it can never be scheduled"
            )
        job_id = self._next_id
        self._next_id += 1
        self._seq += 1
        record = JobRecord(
            job_id=job_id, spec=spec, submit_seq=self._seq,
        )
        record.cost = self.farm.job_cost(
            slots, spec.duration_ms / 3.6e6, spec.preemptible
        )
        self.records[job_id] = record
        self._settled[job_id] = asyncio.Event()
        self.stats.submitted += 1
        self._emit(
            "submitted", job_id, name=spec.name, slots=slots,
            priority=spec.priority, preemptible=spec.preemptible,
            pricing=record.cost["pricing"],
        )
        self._schedule()
        return job_id

    async def jobs(self) -> List[Dict[str, Any]]:
        listing = [
            record.to_dict()
            for record in sorted(
                self.records.values(), key=lambda r: r.job_id
            )
        ]
        return listing

    async def describe(self) -> Dict[str, Any]:
        self._sync_gauges()
        return {
            "farm": self.farm.describe(),
            "jobs": await self.jobs(),
            "stats": {
                key: value for key, value in vars(self.stats).items()
            },
        }

    async def cancel(self, job_id: int) -> Dict[str, Any]:
        record = self._record(job_id)
        if record.state in TERMINAL_STATES:
            raise ServeError(
                f"job {job_id} already {record.state.value}; nothing to "
                "cancel"
            )
        if record.state == JobState.RUNNING:
            # Order the runner to stop at its next boundary; the pump's
            # terminal message completes the cancellation.
            self._cancelling.add(job_id)
            self._send_command(job_id, "cancel")
        else:
            # Queued or preempted: never reaches a runner, settle now.
            self._settle(record, JobState.CANCELLED)
            self._emit("cancelled", job_id, where="queue")
            self._schedule()
        return {"job_id": job_id, "state": record.state.value}

    async def wait(self, job_id: int,
                   timeout_s: float = 120.0) -> Dict[str, Any]:
        """Block until a job reaches a terminal state; return its record."""
        record = self._record(job_id)
        try:
            await asyncio.wait_for(self._settled[job_id].wait(), timeout_s)
        except asyncio.TimeoutError:
            raise ServeError(
                f"timed out waiting for job {job_id} "
                f"(state {record.state.value})"
            ) from None
        return record.to_dict()

    async def shutdown(self, drain: bool = False,
                       timeout_s: float = 120.0) -> Dict[str, Any]:
        """Stop accepting, then drain or checkpoint/cancel everything.

        ``drain=True`` lets running *and queued* jobs finish;
        ``drain=False`` checkpoints running preemptible jobs (their
        state survives as portable checkpoints in the job table),
        cancels the rest, and cancels the queue.  Either way every
        runner is told to exit and reaped, and /dev/shm is audited for
        leaked heartbeat blocks before the ``shutdown`` event is
        logged.
        """
        if self._shut_down:
            return {"leaked_segments": list(self.leaked)}
        self._accepting = False
        if not drain:
            # Checkpointed victims must stay parked, not be rescheduled
            # by the very preemption that was meant to park them.
            self._no_new_starts = True
            for record in list(self.records.values()):
                if record.state == JobState.QUEUED:
                    self._settle(record, JobState.CANCELLED)
                    self._emit("cancelled", record.job_id, where="queue")
                elif record.state == JobState.RUNNING:
                    if record.spec.preemptible:
                        if record.job_id not in self._preempting:
                            self._preempting.add(record.job_id)
                            self._send_command(record.job_id, "preempt")
                    elif record.job_id not in self._cancelling:
                        self._cancelling.add(record.job_id)
                        self._send_command(record.job_id, "cancel")
        # Every job task ends by starting what the scheduler allows
        # next, so awaiting tasks until none is left drains the queue
        # too (without drain, nothing new starts).
        deadline = time.monotonic() + timeout_s
        while self._tasks:
            _, pending = await asyncio.wait(
                set(self._tasks),
                timeout=max(0.0, deadline - time.monotonic()),
            )
            if pending:
                self._emit("shutdown_timeout")
                for runner in list(self._running.values()):
                    self._kill(runner.process)
                await asyncio.wait(pending, timeout=10.0)
                break
        idle, self._idle = self._idle, []
        await asyncio.gather(*(self._retire(runner) for runner in idle))
        self.leaked = leaked_segments()
        self._shut_down = True
        self._sync_gauges()
        self._emit(
            "shutdown", drained=drain, leaked_segments=list(self.leaked),
        )
        return {"leaked_segments": list(self.leaked)}

    # -- internals (loop thread only) -----------------------------------

    def _record(self, job_id: int) -> JobRecord:
        try:
            return self.records[job_id]
        except KeyError:
            raise ServeError(f"unknown job id {job_id}") from None

    def _send_command(self, job_id: int, command: str) -> None:
        runner = self._running.get(job_id)
        if runner is None:
            return
        try:
            runner.pipe.send((command, job_id))
        except (OSError, ValueError):
            pass  # runner already exiting; the pump will report it

    def _settle(self, record: JobRecord, state: JobState) -> None:
        """Move a job to a terminal state, free its slots, wake waiters."""
        record.state = state
        self.farm.release(record.job_id)
        self._settled[record.job_id].set()
        if state == JobState.CANCELLED:
            self.stats.cancelled += 1
        elif state == JobState.FAILED:
            self.stats.failed += 1
        elif state == JobState.DONE:
            self.stats.completed += 1
        self._sync_gauges()

    def _schedule(self) -> None:
        """One scheduling round: age, plan, execute the plan."""
        if self._shut_down or self._no_new_starts:
            return
        self.stats.schedule_rounds += 1
        self.scheduler.age(self.records)
        plan = self.scheduler.plan(
            self.records, self.farm, frozenset(self._preempting)
        )
        for action in plan:
            record = self.records[action.job_id]
            if action.kind == "preempt":
                if record.state != JobState.RUNNING:
                    continue
                self._preempting.add(record.job_id)
                self._emit(
                    "preempting", record.job_id,
                    by="scheduler",
                )
                self._send_command(record.job_id, "preempt")
            elif record.state == JobState.QUEUED:
                self._start(record)
        self._sync_gauges()

    def _start(self, record: JobRecord) -> None:
        slots = record.spec.fpga_slots()
        self.farm.allocate(record.job_id, slots)
        record.state = JobState.RUNNING
        resumed = record.checkpoint is not None and \
            (record.checkpoint.get("cycle") or 0) > 0
        if resumed:
            self.stats.resumes += 1
        self.stats.started += 1
        runner = self._idle.pop() if self._idle else self._fork_runner()
        self._running[record.job_id] = runner
        self._emit(
            "started", record.job_id, slots=slots,
            resumed=resumed,
            resume_cycle=(record.checkpoint or {}).get("cycle", 0),
            runner=runner.process.pid,
        )
        task = self.loop.create_task(self._run_job(record, runner))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _fork_runner(self) -> _Runner:
        parent, child = self._mp.Pipe(duplex=True)
        # Forked processes (this runner, later ones) drop their copy of
        # the server's end, so closing it here is EOF to the runner.
        register_after_fork(parent, _close_pipe)
        process = self._mp.Process(
            target=run_job_child, args=(child,), name="serve-runner",
        )
        process.start()
        child.close()
        self._live[process.pid] = parent
        return _Runner(process, parent)

    async def _run_job(self, record: JobRecord, runner: _Runner) -> None:
        job_id = record.job_id
        try:
            runner.pipe.send(
                ("run", job_id, record.spec.to_dict(), record.checkpoint)
            )
        except (OSError, ValueError) as exc:
            terminal: tuple = ("failed", f"job pipe closed: {exc}")
        else:
            terminal = await asyncio.to_thread(self._pump, runner)
        finally:
            self._running.pop(job_id, None)
        self._on_terminal(record, terminal)
        # Back to the idle set *before* the next scheduling round, so
        # the job that round starts reuses this warm runner.
        reuse = terminal[0] != "failed" and runner.process.is_alive()
        if reuse:
            self._idle.append(runner)
        self._schedule()
        if not reuse:
            await self._retire(runner)

    @staticmethod
    def _pump(runner: _Runner) -> tuple:
        """Worker thread: block on the runner until the job's terminal.

        Only reads the pipe (commands go down from the loop thread); the
        process sentinel wakes it if the runner dies instead.
        """
        process, pipe = runner.process, runner.pipe
        try:
            while True:
                ready = wait_ready([pipe, process.sentinel])
                if pipe in ready:
                    # Drained before the sentinel: a runner may send
                    # its terminal message right before it dies.
                    message = pipe.recv()
                    if message[0] != "progress":
                        return message
                else:
                    return (
                        "failed",
                        f"job process exited without a result "
                        f"(exitcode {process.exitcode})",
                    )
        except (EOFError, OSError):
            return (
                "failed",
                f"job pipe closed without a result "
                f"(exitcode {process.exitcode})",
            )

    def _on_terminal(self, record: JobRecord, terminal: tuple) -> None:
        """Loop thread: apply a runner's terminal message."""
        job_id = record.job_id
        kind = terminal[0]
        was_cancelling = job_id in self._cancelling
        self._preempting.discard(job_id)
        self._cancelling.discard(job_id)
        if kind == "preempted" and was_cancelling:
            # Preempt order landed first, but the user asked to cancel:
            # honor the cancel; the checkpoint is discarded.
            kind = "cancelled"
            terminal = ("cancelled", terminal[1].get("cycle", 0))
        if kind == "done":
            record.result = terminal[1]
            record.checkpoint = None
            self._settle(record, JobState.DONE)
            self._emit("completed", job_id,
                       target_ms=terminal[1].get("target_ms"))
        elif kind == "preempted":
            checkpoint = terminal[1]
            record.checkpoint = checkpoint
            record.preemptions += 1
            self.stats.preemptions += 1
            self.farm.release(job_id)
            # Back into the queue, keeping its aging credit so repeated
            # preemption raises its effective priority (no starvation).
            record.state = JobState.QUEUED
            self._emit(
                "preempted", job_id,
                cycle=checkpoint.get("cycle"),
                digest=(checkpoint.get("digest") or "")[:16],
            )
            self._sync_gauges()
        elif kind == "cancelled":
            self._settle(record, JobState.CANCELLED)
            self._emit("cancelled", job_id, where="running",
                       cycle=terminal[1])
        else:
            record.error = str(terminal[1])
            self._settle(record, JobState.FAILED)
            self._emit("failed", job_id, error=record.error)

    async def _retire(self, runner: _Runner) -> None:
        """Tell a runner to exit and reap it off the loop thread."""
        try:
            runner.pipe.send(("exit",))
        except (OSError, ValueError):
            pass  # already gone
        await asyncio.to_thread(self._reap, runner.process)
        self._live.pop(runner.process.pid, None)
        runner.pipe.close()

    def _reap(self, process: Any) -> None:
        """Worker thread: join a retired runner, killing it if it lingers."""
        process.join(timeout=10.0)
        if process.is_alive():
            self._kill(process)
            process.join(timeout=10.0)

    @staticmethod
    def _kill(process: Any) -> None:
        """SIGTERM the runner's process group, then SIGKILL."""
        for signum in (signal.SIGTERM, signal.SIGKILL):
            if not process.is_alive():
                return
            try:
                os.killpg(process.pid, signum)
            except (ProcessLookupError, PermissionError):
                return
            process.join(timeout=5.0)
