"""repro.dist — partitioned multi-process execution of a simulation.

FireSim scales past one FPGA by mapping racks onto EC2 instances and
letting simulation *tokens* — not a global clock — keep the distributed
pieces cycle-exact (paper Sections III-B2 and III-C).  This package
reproduces that architecture with OS processes standing in for
instances:

* :mod:`repro.dist.partition` — shard the model/link graph by the
  manager's host placement (:class:`PartitionPlan`);
* :mod:`repro.dist.remote_link` — split boundary links into a local
  consuming queue plus a transport-fed producing side, preserving
  latency priming bit-for-bit;
* :mod:`repro.dist.worker` — the per-process shard round loop,
  lockstepped purely by token exchange;
* :mod:`repro.dist.shm` — the one channel between worker pairs, a
  pipe per directed pair (:class:`PipeChannel`);
* :mod:`repro.dist.supervisor` — liveness supervision: workers
  heartbeat into a pre-fork shared control block
  (:class:`HeartbeatBlock`) and the parent's :class:`Supervisor`
  detects and kills hung workers against an adaptive round deadline;
* :mod:`repro.dist.engine` — fork workers, watch for crashes and
  hangs, merge shard counters back (:func:`run_distributed`).

The headline property, enforced by ``tests/test_dist.py``: a
distributed run is *bit-identical* to the serial engine in cycle
timestamps, switch byte counters, and workload results, for any worker
count the topology supports.
"""

from repro.dist.engine import (
    DistributedRunResult,
    RunAborted,
    run_distributed,
)
from repro.dist.partition import (
    BoundaryLink,
    PartitionPlan,
    plan_from_assignment,
    plan_partitions,
)
from repro.dist.remote_link import (
    Outbox,
    RemoteAttachment,
    deliver,
)
from repro.dist.shm import PipeChannel, leaked_segments
from repro.dist.supervisor import (
    HeartbeatBlock,
    Supervisor,
    SupervisorConfig,
)
from repro.dist.worker import ShardContext, WorkerResult, run_shard

__all__ = [
    "BoundaryLink",
    "DistributedRunResult",
    "HeartbeatBlock",
    "Outbox",
    "PartitionPlan",
    "PipeChannel",
    "RemoteAttachment",
    "RunAborted",
    "ShardContext",
    "Supervisor",
    "SupervisorConfig",
    "WorkerResult",
    "deliver",
    "leaked_segments",
    "plan_from_assignment",
    "plan_partitions",
    "run_distributed",
    "run_shard",
]
