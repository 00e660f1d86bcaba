"""Deployment cost model (Sections II and V-C).

Computes per-hour simulation cost under the two EC2 pricing models the
paper uses (longest-stable spot, and on-demand), plus the retail value of
the FPGAs being harnessed.  For the 1024-node datacenter simulation
(32 f1.16xlarge + 5 m4.16xlarge) this reproduces the headline numbers:
~$100/hour spot, ~$440/hour on-demand, ~$12.8M of FPGAs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.host.instances import FPGA_RETAIL_PRICE, InstanceType, instance_type


@dataclass(frozen=True)
class CostReport:
    """Per-hour cost and FPGA value of a deployment."""

    instance_counts: Mapping[str, int]
    spot_per_hour: float
    on_demand_per_hour: float
    total_fpgas: int
    fpga_retail_value: float

    def __str__(self) -> str:
        lines = ["Deployment cost report:"]
        for name, count in sorted(self.instance_counts.items()):
            lines.append(f"  {count:4d} x {name}")
        lines.append(f"  spot:       ${self.spot_per_hour:,.2f}/hour")
        lines.append(f"  on-demand:  ${self.on_demand_per_hour:,.2f}/hour")
        lines.append(
            f"  harnessing {self.total_fpgas} FPGAs "
            f"(~${self.fpga_retail_value/1e6:.1f}M retail)"
        )
        return "\n".join(lines)


def cost_report(instance_counts: Mapping[str, int]) -> CostReport:
    """Price a deployment given ``{instance type name: count}``."""
    spot = 0.0
    on_demand = 0.0
    fpgas = 0
    for name, count in instance_counts.items():
        if count < 0:
            raise ValueError(f"negative count for {name}")
        itype = instance_type(name)
        spot += itype.price_spot * count
        on_demand += itype.price_on_demand * count
        fpgas += itype.fpgas * count
    return CostReport(
        instance_counts=dict(instance_counts),
        spot_per_hour=spot,
        on_demand_per_hour=on_demand,
        total_fpgas=fpgas,
        fpga_retail_value=fpgas * FPGA_RETAIL_PRICE,
    )


def pricing_for_job(preemptible: bool) -> str:
    """The cheapest pricing model a job's eviction tolerance allows.

    Section V-C's cost arithmetic has two columns because the two
    pricing models trade money for a revocation guarantee: spot
    capacity is ~4x cheaper but can be reclaimed by the market, so only
    jobs that tolerate preemption (the manager checkpoints and resumes
    them) may use it; a job that must not be evicted needs on-demand
    capacity.  The job server's cost optimizer maps ``preemptible``
    straight onto that choice.
    """
    return "spot" if preemptible else "on-demand"


def hourly_rate(instance_counts: Mapping[str, int], pricing: str) -> float:
    """$/hour for a fleet under one pricing model."""
    report = cost_report(instance_counts)
    if pricing == "spot":
        return report.spot_per_hour
    if pricing == "on-demand":
        return report.on_demand_per_hour
    raise ValueError(f"unknown pricing model {pricing!r}")


def job_cost_estimate(
    instance_counts: Mapping[str, int],
    hours: float,
    preemptible: bool,
) -> Dict[str, Any]:
    """Price one job for the scheduler: pricing choice, rate, total.

    Returns a JSON-ready dict so the job server can attach it to job
    records and the ``jobs`` CLI verb can print it:
    ``{"pricing", "hourly_rate", "estimated_cost", "savings_vs_on_demand"}``.
    ``savings_vs_on_demand`` is what choosing spot saved (0.0 for
    on-demand jobs) — the number the optimizer exists to maximize.
    """
    if hours < 0:
        raise ValueError(f"hours must be >= 0, got {hours}")
    pricing = pricing_for_job(preemptible)
    rate = hourly_rate(instance_counts, pricing)
    on_demand = hourly_rate(instance_counts, "on-demand")
    return {
        "pricing": pricing,
        "hourly_rate": rate,
        "estimated_cost": rate * hours,
        "savings_vs_on_demand": (on_demand - rate) * hours,
    }
