"""The shared run farm the job server schedules onto.

One fixed fleet of EC2 instances (``{instance type name: count}``) whose
FPGAs are the capacity unit: :func:`~repro.host.instances.fpga_slot_capacity`
turns the fleet into a slot count, the scheduler allocates job slots
against it, and the ledger asserts the invariant the whole subsystem
exists to keep — **never oversubscribe an FPGA**.  Each job is also
priced on its slice of the farm via
:func:`~repro.host.costs.job_cost_estimate`, spot for preemptible jobs
and on-demand otherwise (Section V-C's two pricing columns).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro import ReproError
from repro.host.costs import job_cost_estimate
from repro.host.instances import fpga_slot_capacity

#: Default shared farm: two f1.16xlarge = 16 FPGA slots.
DEFAULT_FARM = {"f1.16xlarge": 2}


class FarmError(ReproError):
    """An allocation would violate the farm's capacity invariant."""


class ServeFarm:
    """Slot ledger for one shared fleet.

    Not thread-safe on its own — the server mutates it only from the
    event loop.  ``allocate``/``release`` keep ``{job_id: slots}`` and
    raise :class:`FarmError` rather than ever letting the sum exceed
    capacity.
    """

    def __init__(
        self, instance_counts: Mapping[str, int] | None = None
    ) -> None:
        self.instance_counts: Dict[str, int] = dict(
            instance_counts or DEFAULT_FARM
        )
        # Capacity counts FPGAs; supernode jobs pack more blades per
        # slot, which JobSpec.fpga_slots() already accounts for.
        self.capacity = fpga_slot_capacity(self.instance_counts)
        if self.capacity < 1:
            raise FarmError(
                f"farm {self.instance_counts} has no FPGA slots; "
                "a run farm needs at least one F1 instance"
            )
        self._allocations: Dict[int, int] = {}

    @property
    def used(self) -> int:
        return sum(self._allocations.values())

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def allocate(self, job_id: int, slots: int) -> None:
        if slots < 1:
            raise FarmError(f"job {job_id} requested {slots} slots")
        if job_id in self._allocations:
            raise FarmError(f"job {job_id} already holds slots")
        if slots > self.free:
            raise FarmError(
                f"allocating {slots} slots for job {job_id} would "
                f"oversubscribe the farm ({self.used}/{self.capacity} used)"
            )
        self._allocations[job_id] = slots

    def release(self, job_id: int) -> int:
        """Return a job's slots to the pool; 0 if it held none."""
        return self._allocations.pop(job_id, 0)

    def job_cost(self, slots: int, hours: float,
                 preemptible: bool) -> Dict[str, Any]:
        """Price a job's slice of the farm (slot-proportional)."""
        share = slots / self.capacity
        estimate = job_cost_estimate(
            self.instance_counts, hours, preemptible
        )
        return {
            "pricing": estimate["pricing"],
            "hourly_rate": estimate["hourly_rate"] * share,
            "estimated_cost": estimate["estimated_cost"] * share,
            "savings_vs_on_demand": estimate["savings_vs_on_demand"] * share,
        }

    def describe(self) -> Dict[str, Any]:
        return {
            "instances": dict(self.instance_counts),
            "capacity_slots": self.capacity,
            "used_slots": self.used,
            "free_slots": self.free,
            "allocations": dict(self._allocations),
        }
