"""One run recipe: the manager's runtime description (Section III-B3).

The paper's manager reads one description of a run — topology, blade
type, link latency, workload, run-farm shape, all "configured at
runtime".  :class:`RunSpec` is that description as a frozen,
JSON-serializable value: ``firesim`` builds it from its flags, a served
job (:class:`~repro.serve.job.JobSpec`) is one plus scheduling fields,
and both become a topology, a manager and a workload through the same
three builders.  It is validated once, at construction, so a bad recipe
is a :class:`~repro.ConfigError` before anything is built or forked.
"""

from __future__ import annotations

import argparse
import inspect
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from repro import ConfigError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.manager.manager import FireSimManager, ManagerError
from repro.manager.mapper import HostConfig, SUPERNODE_HOST
from repro.manager.runfarm import RunFarmConfig
from repro.manager.topology import (
    SwitchNode,
    datacenter_tree,
    single_rack,
    two_tier,
)
from repro.manager.workload import WorkloadSpec
from repro.swmodel.apps.boot import make_linux_boot
from repro.swmodel.apps.ping import make_ping_client
from repro.tile.soc import NAMED_CONFIGS


@dataclass(frozen=True)
class RunSpec:
    """What to simulate and how to run it; one field per CLI flag.

    ``engine=None`` resolves to ``"batched"`` when ``workers > 1`` and
    ``"scalar"`` otherwise: the engines are bit-identical, distributed
    runs are gated against the serial batched rate, and serial runs
    keep the reference engine.  ``to_dict`` carries the resolved name.
    """

    topology: str = "single_rack"
    racks: int = 2
    servers_per_rack: int = 4
    server_type: str = "QuadCore"
    workload: str = "ping"
    duration_ms: float = 4.0
    ping_count: int = 10
    #: None on the way in only; ``__post_init__`` stores the resolved name.
    engine: str = None  # type: ignore[assignment]
    workers: int = 1
    transport: str = "pipe"
    link_latency_us: float = 2.0
    fpgas_per_instance: Optional[int] = None
    supernode: bool = False
    fault_plan: Optional[Dict[str, Any]] = None
    checkpoint_interval_ms: Optional[float] = None
    max_retries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.topology not in ("single_rack", "two_tier", "datacenter"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.racks < 1 or self.servers_per_rack < 1:
            raise ConfigError("topology dimensions must be >= 1")
        if self.server_type not in NAMED_CONFIGS:
            raise ConfigError(
                f"unknown server type {self.server_type!r}; "
                f"known: {sorted(NAMED_CONFIGS)}"
            )
        if self.workload not in ("ping", "boot"):
            raise ConfigError(f"unknown workload {self.workload!r}")
        if self.duration_ms <= 0:
            raise ConfigError(
                f"duration must be positive, got {self.duration_ms} ms"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.transport not in ("pipe", "shm"):
            raise ConfigError(f"unknown transport {self.transport!r}")
        if self.checkpoint_interval_ms is not None \
                and self.checkpoint_interval_ms <= 0:
            raise ConfigError("checkpoint interval must be positive")
        if self.engine is None:
            object.__setattr__(
                self, "engine", "batched" if self.workers > 1 else "scalar"
            )
        # The nested configs check engine name, host shape, retry budget
        # and fault plan themselves; building them surfaces that now.
        self._manager_options()
        if self.workload == "ping" and self.num_servers() < 2:
            raise ConfigError("ping needs at least two simulated nodes")

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSpec":
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}"
            )
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
            raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunSpec":
        """The recipe a ``firesim`` flag set describes.

        Fields and flags share names, except that ``--fault-plan`` names
        a file (the parsed plan travels in the recipe) and
        ``--checkpoint-interval`` drops the unit from its name.
        """
        values = {f.name: getattr(args, f.name, None) for f in fields(cls)}
        values["checkpoint_interval_ms"] = args.checkpoint_interval
        values["fault_plan"] = (
            FaultPlan.from_file(args.fault_plan).to_dict()
            if args.fault_plan else None
        )
        return cls(**values)

    # -- builders (the recipe is also the rebuild recipe) ---------------

    def build_topology(self) -> SwitchNode:
        if self.topology == "single_rack":
            return single_rack(self.servers_per_rack, self.server_type)
        if self.topology == "two_tier":
            return two_tier(
                self.racks, self.servers_per_rack, self.server_type
            )
        return datacenter_tree(
            servers_per_rack=self.servers_per_rack,
            server_type=self.server_type,
        )

    def num_servers(self) -> int:
        """Simulated server blades :meth:`build_topology` will contain.

        Arithmetic, not a build: the scheduler sizes every queued job on
        every pass, and building would advance the switch-id counter
        that names a run's switches.
        """
        if self.topology == "single_rack":
            return self.servers_per_rack
        if self.topology == "two_tier":
            return self.racks * self.servers_per_rack
        shape = inspect.signature(datacenter_tree).parameters
        return (
            shape["num_aggregation"].default
            * shape["racks_per_aggregation"].default
            * self.servers_per_rack
        )

    def _host_config(self) -> HostConfig:
        host = SUPERNODE_HOST if self.supernode else HostConfig()
        if self.fpgas_per_instance is not None:
            host = replace(host, fpgas_per_instance=self.fpgas_per_instance)
        return host

    def _manager_options(self) -> Dict[str, Any]:
        run_config = RunFarmConfig(
            link_latency_cycles=max(1, round(self.link_latency_us * 3200)),
            engine=self.engine,
        )
        return {
            "run_config": run_config,
            "host_config": self._host_config(),
            "fault_plan": (
                FaultPlan.from_dict(self.fault_plan)
                if self.fault_plan is not None else None
            ),
            "retry_policy": (
                RetryPolicy(max_retries=self.max_retries)
                if self.max_retries is not None else None
            ),
            "checkpoint_interval_cycles": (
                max(1, round(
                    self.checkpoint_interval_ms / 1e3 * run_config.freq_hz
                ))
                if self.checkpoint_interval_ms is not None else None
            ),
            "workers": self.workers,
            "transport": self.transport,
        }

    def build_manager(self, **host_timeouts: Any) -> FireSimManager:
        """A manager for this recipe.

        ``host_timeouts`` (``transport_timeout_s``, ``hang_timeout_s``)
        are watchdog settings of the process that runs the simulation,
        not of what is simulated, so the recipe does not carry them.
        """
        return FireSimManager(
            self.build_topology(), **self._manager_options(), **host_timeouts
        )

    def build_workload(self, manager: FireSimManager) -> WorkloadSpec:
        sim = manager.running
        if sim is None:
            raise ManagerError("infrasetup must run before runworkload")
        workload = WorkloadSpec(
            self.workload, duration_seconds=self.duration_ms / 1000.0
        )
        if self.workload == "ping":
            target = sim.blade(1).mac
            count = self.ping_count
            workload.add_job(
                0,
                "ping",
                lambda blade: blade.spawn(
                    "ping",
                    make_ping_client(target, count=count,
                                     interval_cycles=200_000),
                ),
            )
        else:
            for index in sorted(sim.blades):
                workload.add_job(
                    index,
                    f"boot{index}",
                    lambda blade: blade.spawn("init", make_linux_boot()),
                )
        return workload
