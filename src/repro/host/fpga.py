"""FPGA resource accounting and the "supernode" packing (Section III-A5).

The basic target design uses 32.6% of the FPGA's LUTs and one of four
memory channels; only 14.4% of the FPGA is the custom server-blade RTL
(the rest is the shell, DRAM model, and simulation endpoints).  The
supernode configuration packs four simulated nodes per FPGA, raising
blade LUT utilization to ~57.7% and total utilization to ~76%, quartering
the cost of large simulations at the price of multiplexing four nodes'
token traffic over one PCIe link.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fractions measured in Section III-A5.
SHELL_AND_SUPPORT_FRACTION = 0.182  # shell + DRAM model + endpoints
BLADE_RTL_FRACTION = 0.144  # one server blade's RTL

#: F1 FPGA boards carry 64 GB of DRAM over 4 channels.
FPGA_DRAM_CHANNELS = 4
FPGA_DRAM_GB = 64


@dataclass(frozen=True)
class FPGAConfig:
    """How one FPGA is populated with simulated nodes."""

    blades_per_fpga: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.blades_per_fpga <= FPGA_DRAM_CHANNELS:
            raise ValueError(
                "each simulated node needs its own FPGA DRAM channel: "
                f"1..{FPGA_DRAM_CHANNELS} blades per FPGA, got "
                f"{self.blades_per_fpga}"
            )

    @property
    def blade_lut_fraction(self) -> float:
        """LUT fraction consumed by server-blade RTL alone."""
        return BLADE_RTL_FRACTION * self.blades_per_fpga

    @property
    def total_lut_fraction(self) -> float:
        """Total FPGA LUT utilization including shell and support logic."""
        return SHELL_AND_SUPPORT_FRACTION + self.blade_lut_fraction

    @property
    def dram_channels_used(self) -> int:
        return self.blades_per_fpga

    def validate_fits(self) -> None:
        """Raise if the configuration exceeds the FPGA's resources."""
        if self.total_lut_fraction > 1.0:
            raise ValueError(
                f"{self.blades_per_fpga} blades need "
                f"{self.total_lut_fraction:.1%} of the FPGA's LUTs"
            )


#: The paper's two configurations.
STANDARD_FPGA = FPGAConfig(blades_per_fpga=1)
SUPERNODE_FPGA = FPGAConfig(blades_per_fpga=4)
