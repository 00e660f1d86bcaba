"""Partitioning a model/link graph into per-worker shards.

FireSim distributes a cluster simulation by *host*: each EC2 instance
runs the server simulations and switch models mapped onto it, and only
cross-host links exchange token batches over a host transport (paper
Section III-B2/III-C).  This module reproduces that decomposition for
the multi-process engine:

* a :class:`PartitionPlan` assigns every model (by its stable
  :meth:`~repro.core.simulation.Simulation.partition_key`) to one worker
  index;
* :func:`plan_partitions` derives the assignment from the
  :mod:`repro.manager.mapper` deployment, so worker shards mirror the
  paper's instance mapping — a ToR and its rack's blades land in one
  worker, aggregation/root switches in others;
* :meth:`PartitionPlan.boundaries` names the links whose endpoints live
  in different workers; only these move tokens over a
  :class:`~repro.dist.shm.PipeChannel`, everything else stays an ordinary
  in-process :class:`~repro.core.channel.Link`.

Determinism: the assignment is a pure function of the topology and the
worker count.  Hosts are ordered (F1 instances by physical id, then M4
instances by index) and chunked contiguously, with chunk boundaries
placed to balance modeled host load (a switch model's tick is several
times a blade's), so the same target and ``num_workers`` always produce
byte-identical plans — the property the equivalence and resume
guarantees stand on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import ConfigError
from repro.core.simulation import Simulation


@dataclass(frozen=True)
class BoundaryLink:
    """One link whose two sides live in different workers."""

    link_index: int  # index into Simulation.links
    name: str
    latency: int
    worker_a: int  # worker owning the side-"a" model
    worker_b: int  # worker owning the side-"b" model


@dataclass(frozen=True)
class PartitionPlan:
    """An assignment of every model to one of ``num_workers`` shards."""

    num_workers: int
    assignment: Mapping[str, int]  # partition_key -> worker index
    #: Host strings backing each worker (informational; empty for plans
    #: built from an explicit assignment).
    worker_hosts: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigError(
                f"need at least 1 worker, got {self.num_workers}"
            )
        for name, worker in self.assignment.items():
            if not 0 <= worker < self.num_workers:
                raise ConfigError(
                    f"model {name!r} assigned to worker {worker}, outside "
                    f"0..{self.num_workers - 1}"
                )
        used = {worker for worker in self.assignment.values()}
        missing = sorted(set(range(self.num_workers)) - used)
        if missing:
            raise ConfigError(
                f"workers {missing} have no models; use fewer workers"
            )

    # -- queries ---------------------------------------------------------

    def partition_of(self, key: str) -> int:
        try:
            return self.assignment[key]
        except KeyError:
            raise ConfigError(
                f"model {key!r} is not covered by this partition plan"
            ) from None

    def models_for(self, simulation: Simulation, worker: int) -> List[Any]:
        """The worker's shard, in the simulation's global model order.

        Keeping the global relative order means each worker ticks its
        models in exactly the sequence the serial engine would have, so
        per-model host-side state (RNG draws, sequence counters) evolves
        identically.
        """
        return [
            model
            for model in simulation.models
            if self.partition_of(simulation.partition_key(model)) == worker
        ]

    def validate_against(self, simulation: Simulation) -> None:
        """Every model must be assigned; fail with the full list if not."""
        unassigned = [
            key
            for key in simulation.partition_keys()
            if key not in self.assignment
        ]
        if unassigned:
            raise ConfigError(
                f"partition plan does not cover models {unassigned}; "
                "replan after changing the simulation"
            )

    def boundaries(self, simulation: Simulation) -> List[BoundaryLink]:
        """Links crossing worker boundaries, in link creation order."""
        out: List[BoundaryLink] = []
        for index, (link, (model_a, _), (model_b, _)) in enumerate(
            simulation.link_attachments()
        ):
            worker_a = self.partition_of(simulation.partition_key(model_a))
            worker_b = self.partition_of(simulation.partition_key(model_b))
            if worker_a != worker_b:
                out.append(
                    BoundaryLink(
                        link_index=index,
                        name=link.name,
                        latency=link.latency,
                        worker_a=worker_a,
                        worker_b=worker_b,
                    )
                )
        return out

    def boundary_latency_floor(self, simulation: Simulation) -> Optional[int]:
        """Smallest boundary-link latency, or None without boundaries.

        This is the partition's token-exchange bound: link priming puts
        ``latency`` tokens in flight per boundary direction, so workers
        can batch up to this many cycles between exchanges without ever
        outrunning a peer (paper Fig 9 — batch size is capped by link
        latency).  The adaptive round quantum in
        :func:`repro.dist.engine.run_distributed` derives from it.
        """
        return min(
            (boundary.latency for boundary in self.boundaries(simulation)),
            default=None,
        )

    def describe(
        self, simulation: Optional[Simulation] = None
    ) -> Dict[str, Any]:
        """A JSON-friendly summary for ``status`` output and telemetry."""
        shards: List[Dict[str, Any]] = []
        for worker in range(self.num_workers):
            models = sorted(
                name for name, w in self.assignment.items() if w == worker
            )
            entry: Dict[str, Any] = {"worker": worker, "models": models}
            if worker < len(self.worker_hosts):
                entry["hosts"] = list(self.worker_hosts[worker])
            shards.append(entry)
        summary: Dict[str, Any] = {
            "num_workers": self.num_workers,
            "shards": shards,
        }
        if simulation is not None:
            boundaries = self.boundaries(simulation)
            summary["boundary_links"] = [b.name for b in boundaries]
        return summary


#: Relative per-round host cost of ticking one model, used to place
#: chunk boundaries.  Measured on the reference container: a
#: SwitchModel's tick (per-port arbitration and byte accounting) costs
#: roughly 3.5x an idle ServerBlade's; rounded up for headroom.  These
#: are *balance hints* only — correctness never depends on them.
_SWITCH_TICK_WEIGHT = 4
_BLADE_TICK_WEIGHT = 1


def _chunk_weighted(
    items: Sequence[str], weights: Sequence[int], bins: int
) -> List[Tuple[str, ...]]:
    """Split contiguously into ``bins`` non-empty chunks of even weight.

    Greedy scan: each bin keeps absorbing the next item while that
    strictly improves its distance to the ideal share of the remaining
    weight, always leaving at least one item for every later bin.
    Deterministic — a pure function of the ordered items and weights.
    """
    out: List[Tuple[str, ...]] = []
    cursor = 0
    remaining_weight = float(sum(weights))
    for index in range(bins):
        bins_left = bins - index
        max_take = len(items) - cursor - (bins_left - 1)
        target = remaining_weight / bins_left
        take = 1
        acc = float(weights[cursor])
        while take < max_take:
            candidate = acc + weights[cursor + take]
            if abs(candidate - target) < abs(acc - target):
                acc = candidate
                take += 1
            else:
                break
        out.append(tuple(items[cursor : cursor + take]))
        cursor += take
        remaining_weight -= acc
    return out


def plan_partitions(
    running: Any,
    deployment: Any,
    num_workers: int,
) -> PartitionPlan:
    """Derive a partition plan from the mapper's host placement.

    ``running`` is a :class:`~repro.manager.runfarm.RunningSimulation`
    and ``deployment`` the :class:`~repro.manager.mapper.Deployment`
    produced by ``map_topology`` for the same topology.  Each host the
    mapper used (F1 instances in physical-id order, then M4 instances)
    becomes one *shard*; shards are chunked contiguously across
    ``num_workers`` workers, with boundaries placed so chunks carry
    roughly even modeled tick load (switch-hosting M4s weigh more than
    blade-hosting F1s).  Requesting more workers than there are shards
    is a configuration error — there is nothing left to split.
    """
    if num_workers < 1:
        raise ConfigError(f"need at least 1 worker, got {num_workers}")

    # Model name -> host string, mirroring the mapper's placement.  The
    # mapper iterates servers in the same deterministic order elaborate()
    # used to number blades, so positional correspondence is exact.
    host_of_model: Dict[str, str] = {}
    for position, placement in enumerate(deployment.server_placements):
        host_of_model[f"node{position}"] = f"f1:{placement.instance_index}"
    for placement in deployment.switch_placements:
        host_of_model[f"switch{placement.switch.switch_id}"] = placement.host

    hosts = list(deployment.partition_hosts())
    if num_workers > len(hosts):
        raise ConfigError(
            f"topology maps onto {len(hosts)} partitionable shard(s) "
            f"({', '.join(hosts)}), fewer than the {num_workers} requested "
            "workers; reduce --workers or grow the topology"
        )
    weight_of_host: Dict[str, int] = {host: 0 for host in hosts}
    for key, host in host_of_model.items():
        weight_of_host[host] += (
            _SWITCH_TICK_WEIGHT
            if key.startswith("switch")
            else _BLADE_TICK_WEIGHT
        )
    worker_hosts = _chunk_weighted(
        hosts, [weight_of_host[host] for host in hosts], num_workers
    )
    worker_of_host = {
        host: worker
        for worker, chunk in enumerate(worker_hosts)
        for host in chunk
    }

    simulation = running.simulation
    assignment: Dict[str, int] = {}
    for key in simulation.partition_keys():
        host = host_of_model.get(key)
        if host is None:
            raise ConfigError(
                f"model {key!r} has no host placement; the deployment does "
                "not match this simulation"
            )
        assignment[key] = worker_of_host[host]
    plan = PartitionPlan(
        num_workers=num_workers,
        assignment=assignment,
        worker_hosts=worker_hosts,
    )
    plan.validate_against(simulation)
    return plan


def plan_from_assignment(
    assignment: Mapping[str, int], num_workers: Optional[int] = None
) -> PartitionPlan:
    """A plan from an explicit ``model name -> worker`` mapping.

    For hand-built simulations (spliced tracers, custom models) that
    never went through the mapper.
    """
    if not assignment:
        raise ConfigError("assignment must cover at least one model")
    workers = (
        num_workers
        if num_workers is not None
        else max(assignment.values()) + 1
    )
    return PartitionPlan(num_workers=workers, assignment=dict(assignment))
