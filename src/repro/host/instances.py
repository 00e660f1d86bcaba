"""EC2 instance types used by FireSim deployments (Section II).

FireSim uses ``f1.2xlarge``/``f1.16xlarge`` (FPGA hosts for simulated
server blades + their ToR switch models) and ``m4.16xlarge`` ("standard"
instances with 25 Gbit/s networking for aggregation and root switch
models).  Prices are the public EC2 figures the paper's cost arithmetic
is based on: the 1024-node simulation costs ~$100/hour at longest-stable
spot prices and ~$440/hour on-demand (Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro import ConfigError


@dataclass(frozen=True)
class InstanceType:
    """One EC2 instance type's shape and pricing.

    Attributes:
        name: EC2 API name.
        vcpus / dram_gb / network_gbps: host resources (Section II).
        fpgas: Xilinx VU9P FPGAs attached over PCIe.
        fpga_dram_gb: DRAM on each FPGA board (64 GB across 4 channels).
        price_on_demand / price_spot: $/hour (spot = longest stable
        recent price, the paper's methodology).
    """

    name: str
    vcpus: int
    dram_gb: int
    network_gbps: float
    fpgas: int
    fpga_dram_gb: int
    price_on_demand: float
    price_spot: float

    def __post_init__(self) -> None:
        if self.vcpus < 1 or self.dram_gb < 1:
            raise ValueError(f"implausible instance shape for {self.name}")
        if self.price_spot > self.price_on_demand:
            raise ValueError(
                f"{self.name}: spot price above on-demand is not stable"
            )


F1_2XLARGE = InstanceType(
    name="f1.2xlarge",
    vcpus=8,
    dram_gb=122,
    network_gbps=10.0,
    fpgas=1,
    fpga_dram_gb=64,
    price_on_demand=1.65,
    price_spot=0.55,
)

F1_16XLARGE = InstanceType(
    name="f1.16xlarge",
    vcpus=64,
    dram_gb=976,
    network_gbps=25.0,
    fpgas=8,
    fpga_dram_gb=64,
    price_on_demand=13.20,
    price_spot=3.00,
)

M4_16XLARGE = InstanceType(
    name="m4.16xlarge",
    vcpus=64,
    dram_gb=256,
    network_gbps=25.0,
    fpgas=0,
    fpga_dram_gb=0,
    price_on_demand=3.20,
    price_spot=0.80,
)

INSTANCE_TYPES: Dict[str, InstanceType] = {
    t.name: t for t in (F1_2XLARGE, F1_16XLARGE, M4_16XLARGE)
}

#: Publicly listed retail price of one VU9P-class FPGA (Section V-C uses
#: ~$50K each to arrive at the "$12.8M worth of FPGAs" figure).
FPGA_RETAIL_PRICE = 50_000.0


def instance_type(name: str) -> InstanceType:
    try:
        return INSTANCE_TYPES[name]
    except KeyError:
        raise ConfigError(
            f"unknown instance type {name!r}; known: {sorted(INSTANCE_TYPES)}"
        ) from None


def fpga_slot_capacity(
    instance_counts: Mapping[str, int], blades_per_fpga: int = 1
) -> int:
    """Simulated-blade slots a fleet offers (the run-farm capacity unit).

    Each FPGA hosts ``blades_per_fpga`` simulated server blades (1
    standard, up to 4 with supernode packing), so a fleet of
    ``{instance type name: count}`` provides ``sum(fpgas) *
    blades_per_fpga`` schedulable blade slots.  The job scheduler
    (:mod:`repro.serve`) allocates against this number and must never
    exceed it — an oversubscribed FPGA slot has no physical meaning.
    """
    if blades_per_fpga < 1:
        raise ValueError(
            f"blades_per_fpga must be >= 1, got {blades_per_fpga}"
        )
    fpgas = 0
    for name, count in instance_counts.items():
        if count < 0:
            raise ConfigError(f"negative count for {name}")
        fpgas += instance_type(name).fpgas * count
    return fpgas * blades_per_fpga
