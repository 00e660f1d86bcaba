"""repro.serve — the FireSim manager as a long-lived service.

The paper's manager (Section III-B3) drives one simulation per
invocation; real usage — and the paper's cost arithmetic over an
elastic spot-market fleet (Section V-C) — wants a *service*: many
tenants sharing one run farm, with the scheduler deciding who holds
FPGAs when.  This package provides that:

* :mod:`repro.serve.job` — JSON-serializable :class:`JobSpec` (topology
  + workload + engine/workers/fault-plan), the forked runner process
  (own process group, one running job at a time, reused across jobs,
  pipe-driven run/preempt/cancel), and the in-process serial oracle for
  bit-equality tests;
* :mod:`repro.serve.farm` — :class:`ServeFarm`, the FPGA-slot ledger
  over :func:`~repro.host.instances.fpga_slot_capacity`, which *never*
  oversubscribes, plus spot/on-demand job pricing;
* :mod:`repro.serve.scheduler` — pure priority scheduling with aging
  (no starvation) and checkpoint-backed preemption planning;
* :mod:`repro.serve.server` — :class:`JobServer`, the asyncio service:
  submit/cancel/wait/shutdown, one runner per running job (idle
  runners reused, a runner retired after a failure or a kill),
  event-driven completion, JSON-lines job-event log, ``serve.*``
  telemetry gauges, graceful drain + /dev/shm leak audit;
* :mod:`repro.serve.api` / :mod:`repro.serve.client` — newline-JSON
  unix-socket protocol and the matching in-process/socket clients the
  CLI verbs (``serve``, ``submit``, ``jobs``, ``cancel``) ride on.

The headline property, enforced by ``tests/test_serve.py``: jobs
sharing the farm are **bit-identical** to the same specs run serially,
standalone — including a job that was preempted mid-run and resumed
from its digest-verified replay checkpoint.
"""

from repro.serve.api import SocketEndpoint, handle_request
from repro.serve.client import InProcessClient, UnixSocketClient, connect
from repro.serve.farm import DEFAULT_FARM, FarmError, ServeFarm
from repro.serve.job import (
    JobError,
    JobRecord,
    JobSpec,
    JobState,
    TERMINAL_STATES,
    run_job_child,
    run_job_inline,
)
from repro.serve.scheduler import (
    AGING_EVERY,
    Action,
    Scheduler,
    effective_priority,
)
from repro.serve.server import JobServer, ServeError, ServeStats

__all__ = [
    "AGING_EVERY",
    "Action",
    "DEFAULT_FARM",
    "FarmError",
    "InProcessClient",
    "JobError",
    "JobRecord",
    "JobServer",
    "JobSpec",
    "JobState",
    "Scheduler",
    "ServeError",
    "ServeFarm",
    "ServeStats",
    "SocketEndpoint",
    "TERMINAL_STATES",
    "UnixSocketClient",
    "connect",
    "effective_priority",
    "handle_request",
    "run_job_child",
    "run_job_inline",
]
