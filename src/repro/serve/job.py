"""Job specs and the per-job child process for the job server.

A :class:`JobSpec` is everything the server needs to run one simulation
end to end — a :class:`~repro.manager.runspec.RunSpec` (topology,
workload, engine, transport, fault plan) plus a name and how to
schedule it — as a JSON-serializable value, so jobs can travel over the
CLI socket and be replayed from the event log.  The spec *is* the
rebuild recipe: a preempted job's portable checkpoint (cycle + digest)
plus its spec is enough for any process to resume it cycle-identically.

Each scheduled job runs in its **own process group**
(:func:`run_job_child`): a fork with ``os.setpgrp()`` whose life is one
manager lifecycle (:func:`run_job_inline`: buildafi → launchrunfarm →
infrasetup → runworkload).  The parent drives it over a full-duplex
pipe — ``preempt``/``cancel`` commands down, ``progress``/terminal
messages up — and the child polls for commands at segment boundaries
via :meth:`~repro.manager.manager.FireSimManager.runworkload_segmented`'s
control hook (serial jobs) or
:attr:`~repro.manager.manager.FireSimManager.abort_check` (distributed
jobs).  SIGTERM is mapped to a normal exception so ``finally`` blocks
run and /dev/shm segments are cleaned up even under escalation.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Optional

from repro import ConfigError, ReproError
from repro.dist.engine import RunAborted
from repro.manager.manager import (
    CONTROL_CANCEL,
    CONTROL_CONTINUE,
    CONTROL_PREEMPT,
    FireSimManager,
)
from repro.manager.runspec import RunSpec


class JobError(ReproError):
    """A job spec is invalid or a job operation cannot be honored."""


class JobState(str, Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States from which a job will never run again.
TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass(frozen=True)
class JobSpec(RunSpec):
    """One simulation job: a run recipe plus how to schedule it.

    ``priority`` ranks queued jobs (higher runs first); ``preemptible``
    jobs may be checkpoint-evicted by higher-priority work *and* are
    priced at spot rates by the cost optimizer — the same
    money-for-revocation trade as Section V-C's two pricing columns.
    """

    name: str = ""
    priority: int = 0
    preemptible: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("job name must be non-empty")
        super().__post_init__()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        try:
            return super().from_dict(payload)  # type: ignore[return-value]
        except ConfigError as exc:
            raise JobError(str(exc)) from exc

    # -- sizing ---------------------------------------------------------

    def fpga_slots(self) -> int:
        """FPGAs this job occupies while running — the scheduling unit.

        Supernode jobs pack four blades per FPGA, so they claim fewer
        slots for the same topology (the capacity story of Section
        VIII).
        """
        return math.ceil(
            self.num_servers() / self._host_config().fpga_config.blades_per_fpga
        )

    def segment_cycles(self) -> int:
        """Segment length for preemption polling: ~8 boundaries per job.

        Short enough that a preempt order lands quickly, long enough
        that checkpoint capture stays a small fraction of run time.
        """
        total = max(1, round(self.duration_ms / 1e3 * 3.2e9))
        return max(1, total // 8)


@dataclass
class JobRecord:
    """The server's bookkeeping for one submitted job."""

    job_id: int
    spec: JobSpec
    state: JobState = JobState.QUEUED
    submit_seq: int = 0
    rounds_waiting: int = 0
    preemptions: int = 0
    #: Portable checkpoint of a preempted job: {"cycle", "digest"}.
    checkpoint: Optional[Dict[str, Any]] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cost: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "name": self.spec.name,
            "state": self.state.value,
            "priority": self.spec.priority,
            "preemptible": self.spec.preemptible,
            "slots": self.spec.fpga_slots(),
            "preemptions": self.preemptions,
            "checkpoint": self.checkpoint,
            "result": self.result,
            "error": self.error,
            "cost": self.cost,
        }


# -- the child process ---------------------------------------------------


def _result_payload(manager: FireSimManager, result: Any) -> Dict[str, Any]:
    """JSON-ready result: workload outcome + per-node measurements."""
    payload: Dict[str, Any] = {
        "workload": result.workload_name,
        "target_ms": result.target_seconds * 1e3,
        "node_results": {
            str(index): {key: list(values) for key, values in results.items()}
            for index, results in result.node_results.items()
        },
    }
    distributed = manager.distributed_summary()
    if distributed is not None:
        payload["distributed"] = {
            "num_workers": distributed["num_workers"],
            "transport": distributed["transport"],
            "rounds": distributed["rounds"],
        }
    resilience = manager.resilience_summary()
    payload["resilience"] = {
        key: resilience[key]
        for key in ("checkpoints_taken", "restores", "recoveries", "giveups")
    }
    return payload


def run_job_inline(
    spec: JobSpec,
    resume: Optional[Dict[str, Any]] = None,
    control: Optional[Callable[[int, int], Optional[str]]] = None,
) -> Dict[str, Any]:
    """Run a job in this process: the one run sequence, and the oracle.

    Tests compare a server-scheduled job's payload against this —
    bit-identical node results prove multi-tenancy didn't perturb
    target time — and :func:`run_job_child` is this behind a pipe.
    ``control(cycle, total)`` may answer ``"preempt"`` or ``"cancel"``;
    the run then stops and ``{"status", "cycle", "digest"}`` comes back
    instead of a result payload.  ``resume`` is such a stopping point.

    A serial job is asked at every segment boundary and stops there.  A
    distributed job is one segment (worker state never returns to the
    parent mid-run, so only the pre-fork cycle is a sound checkpoint):
    it is asked at each liveness sweep, and stopping aborts the run.
    """
    manager = spec.build_manager()
    manager.buildafi()
    manager.launchrunfarm()
    sim = manager.infrasetup()
    workload = spec.build_workload(manager)
    start = resume["cycle"] if resume else 0
    digest = resume["digest"] if resume else None
    if spec.workers > 1:
        total = sim.simulation.clock.cycles(workload.duration_seconds)
        verdict: Optional[str] = None

        def abort_check() -> bool:
            nonlocal verdict
            verdict = control(start, total) if control else None
            return verdict in (CONTROL_PREEMPT, CONTROL_CANCEL)

        manager.abort_check = abort_check
        try:
            result = manager.runworkload(workload)
        except RunAborted:
            status = "preempted" if verdict == CONTROL_PREEMPT else "cancelled"
            return {"status": status, "cycle": start, "digest": digest}
        return _result_payload(manager, result)
    outcome = manager.runworkload_segmented(
        workload,
        segment_cycles=spec.segment_cycles(),
        control=control,
        resume_cycle=start,
        resume_digest=digest,
    )
    if outcome.status != "done":
        return {
            "status": outcome.status,
            "cycle": outcome.cycle,
            "digest": outcome.digest,
        }
    assert outcome.result is not None
    payload = _result_payload(manager, outcome.result)
    payload["final_digest"] = outcome.digest
    return payload


def run_job_child(
    spec_dict: Dict[str, Any],
    resume: Optional[Dict[str, Any]],
    conn: Any,
) -> None:
    """Entry point of the forked per-job process.

    Protocol (over the full-duplex ``multiprocessing.Pipe``):

    * child -> parent: ``("progress", cycle, total)`` whenever the run
      asks for orders; exactly one terminal message — ``("done",
      payload)``, ``("preempted", {"cycle", "digest"})``,
      ``("cancelled", cycle)``, or ``("failed", message)``.
    * parent -> child: ``("preempt",)`` / ``("cancel",)`` at any time;
      the child drains them non-blockingly at each segment boundary
      (serial) or liveness sweep (distributed).

    The child owns its process group (``os.setpgrp``) so the server can
    signal the whole job — including any distributed workers it forked
    — without touching siblings.  SIGTERM raises ``SystemExit`` so the
    engine's ``finally`` blocks still unlink /dev/shm rings.
    """
    os.setpgrp()

    def _terminate(signum: int, frame: Any) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # server handles Ctrl-C

    wanted = CONTROL_CONTINUE

    def control(cycle: int, total: int) -> str:
        nonlocal wanted
        conn.send(("progress", cycle, total))
        while conn.poll():
            message = conn.recv()
            # cancel outranks preempt; otherwise first order wins.
            if message and message[0] == "cancel":
                wanted = CONTROL_CANCEL
            elif message and message[0] == "preempt" \
                    and wanted == CONTROL_CONTINUE:
                wanted = CONTROL_PREEMPT
        return wanted

    try:
        outcome = run_job_inline(JobSpec.from_dict(spec_dict), resume, control)
        status = outcome.get("status", "done")
        if status == "preempted":
            conn.send(("preempted", {"cycle": outcome["cycle"],
                                     "digest": outcome["digest"]}))
        elif status == "cancelled":
            conn.send(("cancelled", outcome["cycle"]))
        else:
            conn.send(("done", outcome))
    except SystemExit:
        raise
    except ReproError as exc:
        conn.send(("failed", str(exc)))
    except Exception as exc:  # noqa: BLE001 - report, don't hang the server
        conn.send(("failed", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()
