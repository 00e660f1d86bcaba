"""Server SoC assembly: the Rocket Chip configurations of Table I.

A blade is generated from a :class:`RocketChipConfig` — the reproduction
of the paper's Rocket Chip generator usage: 1–4 Rocket cores at 3.2 GHz,
16 KiB L1I/L1D, 256 KiB shared L2, 16 GiB DDR3 (timing model) and a 200
Gbit/s NIC, plus optional RoCC accelerators (Tables I and II).
``build()`` elaborates the timing structures shared by the cores and the
NIC.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.clock import TargetClock
from repro.tile.accelerators import ACCELERATOR_TYPES, RoCCAccelerator, build_accelerator
from repro.tile.caches import (
    CacheConfig,
    CacheModel,
    L1D_CONFIG,
    L1I_CONFIG,
    L2_CONFIG,
    MemoryHierarchy,
)
from repro.tile.dram import DRAMConfig, DRAMModel
from repro.tile.rocket import RocketCore
from repro.tile.tilelink import TileLinkBus


@dataclass(frozen=True)
class RocketChipConfig:
    """One server blade configuration (Table I).

    Attributes:
        name: configuration name used by the manager (e.g. "QuadCore").
        num_cores: 1 to 4 Rocket cores.
        freq_hz: target clock (Table I: 3.2 GHz).
        l1i / l1d / l2: cache geometries.
        dram: DRAM capacity/timing (Table I: 16 GiB DDR3).
        nic_bandwidth_bps: top-level NIC link rate (200 Gbit/s nominal).
        accelerators: RoCC accelerator names from Table II.
    """

    name: str = "QuadCore"
    num_cores: int = 4
    freq_hz: float = 3.2e9
    l1i: CacheConfig = field(default_factory=lambda: L1I_CONFIG)
    l1d: CacheConfig = field(default_factory=lambda: L1D_CONFIG)
    l2: CacheConfig = field(default_factory=lambda: L2_CONFIG)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    nic_bandwidth_bps: float = 200e9
    accelerators: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.num_cores <= 4:
            raise ValueError(
                f"Rocket Chip blades carry 1 to 4 cores, got {self.num_cores}"
            )
        if self.freq_hz <= 0:
            raise ValueError("target frequency must be positive")
        for accel in self.accelerators:
            if accel not in ACCELERATOR_TYPES:
                raise ValueError(
                    f"unknown accelerator {accel!r}; "
                    f"known: {sorted(ACCELERATOR_TYPES)}"
                )

    @property
    def clock(self) -> TargetClock:
        return TargetClock(self.freq_hz)

    def build(self, seed: int = 0) -> "SoC":
        return SoC(self, seed=seed)


class SoC:
    """An elaborated server SoC: cores + caches + DRAM + interconnect."""

    def __init__(self, config: RocketChipConfig, seed: int = 0) -> None:
        self.config = config
        self.clock = config.clock
        self.dram = DRAMModel(config.dram, clock=self.clock)
        self.l2 = CacheModel("l2", config.l2)
        self.bus = TileLinkBus("sbus")
        self.cores: List[RocketCore] = []
        self.l1ds: List[CacheModel] = []
        for core_id in range(config.num_cores):
            l1d = CacheModel(f"l1d{core_id}", config.l1d)
            hierarchy = MemoryHierarchy(l1d, self.l2, self.dram)
            self.cores.append(RocketCore(core_id, hierarchy, seed=seed))
            self.l1ds.append(l1d)
        self.accelerators: Dict[str, RoCCAccelerator] = {
            name: build_accelerator(name) for name in config.accelerators
        }
        # The NIC DMAs through the shared L2 on TileLink
        # (Section III-A2); they use this hierarchy view (no L1).
        self.dma_hierarchy = MemoryHierarchy(
            CacheModel("dma-l1-bypass", CacheConfig(64 * 4, 1, 0)),
            self.l2,
            self.dram,
            bus=self.bus,
        )

    @property
    def num_cores(self) -> int:
        return self.config.num_cores

    def accelerator(self, name: str) -> RoCCAccelerator:
        try:
            return self.accelerators[name]
        except KeyError:
            raise LookupError(
                f"blade {self.config.name!r} has no accelerator {name!r}"
            ) from None


#: Named blade configurations selectable from manager topologies (Fig. 4
#: instantiates ``ServerNode("QuadCore")``).
NAMED_CONFIGS: Dict[str, RocketChipConfig] = {
    "QuadCore": RocketChipConfig(name="QuadCore", num_cores=4),
    "DualCore": RocketChipConfig(name="DualCore", num_cores=2),
    "SingleCore": RocketChipConfig(name="SingleCore", num_cores=1),
    "QuadCoreHwacha": RocketChipConfig(
        name="QuadCoreHwacha", num_cores=4, accelerators=("hwacha",)
    ),
    "QuadCorePFA": RocketChipConfig(
        name="QuadCorePFA", num_cores=4, accelerators=("pfa",)
    ),
}


def config_by_name(name: str) -> RocketChipConfig:
    """Look up a named blade configuration (manager topologies use this)."""
    try:
        return NAMED_CONFIGS[name]
    except KeyError:
        raise ValueError(
            f"unknown server configuration {name!r}; "
            f"known: {sorted(NAMED_CONFIGS)}"
        ) from None
