"""Workload descriptions and result collection (Section III-B3).

The FireSim manager lets users describe *jobs* that run automatically on
simulated cluster nodes, then collects result files and measurements for
analysis outside the simulation — this is how the paper's experiments
(SPECint runs, the memcached/mutilate sweeps) are packaged as reusable
workload descriptions.

A :class:`WorkloadSpec` is a named set of :class:`Job` entries; each job
attaches software to one node (spawning threads or installing bare-metal
handlers).  ``run_workload`` deploys the jobs, advances target time, and
returns the collected per-node measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro import ConfigError
from repro.manager.runfarm import RunningSimulation
from repro.swmodel.server import ServerBlade

#: A job's setup hook: receives the blade it was assigned to.
JobSetup = Callable[[ServerBlade], None]


@dataclass(frozen=True)
class Job:
    """One node's software assignment.

    Attributes:
        node_index: which simulated node runs this job.
        name: job label (shows up in collected results).
        setup: called with the node's blade at deploy time; spawns
            threads / installs handlers / configures the NIC.
    """

    node_index: int
    name: str
    setup: JobSetup


@dataclass
class WorkloadSpec:
    """A named collection of jobs plus a run duration."""

    name: str
    jobs: List[Job] = field(default_factory=list)
    duration_seconds: float = 0.01

    def add_job(self, node_index: int, name: str, setup: JobSetup) -> "WorkloadSpec":
        self.jobs.append(Job(node_index, name, setup))
        return self

    def validate_against(self, sim: RunningSimulation) -> None:
        for job in self.jobs:
            if job.node_index not in sim.blades:
                raise ConfigError(
                    f"workload {self.name!r}: job {job.name!r} targets "
                    f"nonexistent node {job.node_index}"
                )

    def deploy(self, sim: RunningSimulation) -> None:
        """Check every job's node exists, then set each job up on it."""
        self.validate_against(sim)
        for job in self.jobs:
            job.setup(sim.blade(job.node_index))


@dataclass
class WorkloadResult:
    """Everything collected after a workload run."""

    workload_name: str
    target_seconds: float
    node_results: Dict[int, Dict[str, list]]

    @classmethod
    def collect(
        cls, workload: WorkloadSpec, sim: RunningSimulation
    ) -> "WorkloadResult":
        """What ``workload`` left on ``sim``'s nodes, as of now."""
        return cls(
            workload_name=workload.name,
            target_seconds=sim.simulation.current_time_s,
            node_results=sim.collect_results(),
        )

    def results_for(self, node_index: int) -> Dict[str, list]:
        return self.node_results.get(node_index, {})

    def merged(self, key: str) -> list:
        """Concatenate one result key across all nodes."""
        merged: list = []
        for results in self.node_results.values():
            merged.extend(results.get(key, []))
        return merged


def run_workload(
    sim: RunningSimulation, workload: WorkloadSpec
) -> WorkloadResult:
    """Deploy a workload's jobs, run it, and collect results."""
    workload.deploy(sim)
    sim.run_seconds(workload.duration_seconds)
    return WorkloadResult.collect(workload, sim)
