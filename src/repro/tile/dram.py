"""DDR3 DRAM timing model.

The paper attaches a synthesizable DRAM timing model (from MIDAS [30]) to
each FPGA's on-board DRAM, parameterized to model DDR3 (Section III-A4,
Table I: 16 GiB DDR3 per blade).  This module reproduces that timing model
at the same granularity: open-row per-bank state, bank timing constraints
(tRCD/tCAS/tRP/tRAS), and channel data-bus occupancy.

The model is *timing only*: callers present ``(cycle, address, is_write)``
and receive the completion cycle; data contents live elsewhere (functional
models).  All parameters are expressed in target-clock cycles, derived
from nanosecond DDR3-1600-style timings at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.clock import DEFAULT_CLOCK, TargetClock


@dataclass(frozen=True)
class DDR3Timings:
    """DDR3 timing parameters, in nanoseconds (DDR3-1600 CL11-ish)."""

    t_cas_ns: float = 13.75  # column access (CAS) latency
    t_rcd_ns: float = 13.75  # row-to-column delay (activate -> access)
    t_rp_ns: float = 13.75  # row precharge
    t_ras_ns: float = 35.0  # minimum row-active time
    burst_ns: float = 5.0  # one 64-byte burst on the data bus


@dataclass(frozen=True)
class DRAMConfig:
    """Geometry + timing of one memory channel group.

    Attributes:
        capacity_bytes: total capacity (Table I: 16 GiB per server).
        num_channels: independent channels (F1 FPGAs have 4 on-board).
        banks_per_channel: DDR3 has 8 banks per rank.
        row_bytes: bytes per row (page) per bank.
        timings: DDR3 timing set.
    """

    capacity_bytes: int = 16 * 1024**3
    num_channels: int = 1
    banks_per_channel: int = 8
    row_bytes: int = 8192
    timings: DDR3Timings = field(default_factory=DDR3Timings)


class _Bank:
    __slots__ = ("open_row", "busy_until", "active_since")

    def __init__(self) -> None:
        self.open_row = -1
        self.busy_until = 0
        self.active_since = 0


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0


class DRAMModel:
    """Cycle-stamped DDR3 access timing.

    ``access(cycle, addr, is_write)`` returns the cycle at which the 64-byte
    burst completes.  Requests to the same bank serialize on the bank's
    ``busy_until``; the channel data bus serializes bursts.
    """

    def __init__(
        self,
        config: DRAMConfig | None = None,
        clock: TargetClock = DEFAULT_CLOCK,
    ) -> None:
        self.config = config or DRAMConfig()
        self.clock = clock
        t = self.config.timings
        self._t_cas = clock.cycles(t.t_cas_ns * 1e-9)
        self._t_rcd = clock.cycles(t.t_rcd_ns * 1e-9)
        self._t_rp = clock.cycles(t.t_rp_ns * 1e-9)
        self._t_ras = clock.cycles(t.t_ras_ns * 1e-9)
        self._t_burst = max(1, clock.cycles(t.burst_ns * 1e-9))
        self._banks: List[List[_Bank]] = [
            [_Bank() for _ in range(self.config.banks_per_channel)]
            for _ in range(self.config.num_channels)
        ]
        self._bus_free: List[int] = [0] * self.config.num_channels
        self.stats = DRAMStats()

    # -- address mapping -------------------------------------------------

    def _map(self, addr: int) -> tuple[int, int, int]:
        """Map an address to (channel, bank, row).

        Channel interleave on 64-byte granularity, then bank, then row —
        a common open-page-friendly mapping.
        """
        if addr < 0:
            raise ValueError(f"address must be >= 0, got {addr}")
        block = addr // 64
        channel = block % self.config.num_channels
        block //= self.config.num_channels
        bank = block % self.config.banks_per_channel
        block //= self.config.banks_per_channel
        row = block // (self.config.row_bytes // 64)
        return channel, bank, row

    # -- access ----------------------------------------------------------

    def access(self, cycle: int, addr: int, is_write: bool = False) -> int:
        """Issue one 64-byte access; returns its completion cycle."""
        channel, bank_index, row = self._map(addr)
        bank = self._banks[channel][bank_index]
        start = max(cycle, bank.busy_until)

        if bank.open_row == row:
            self.stats.row_hits += 1
            access_done = start + self._t_cas
        elif bank.open_row == -1:
            self.stats.row_misses += 1
            access_done = start + self._t_rcd + self._t_cas
            bank.active_since = start
        else:
            self.stats.row_conflicts += 1
            # Respect tRAS before precharging the currently open row.
            precharge_at = max(start, bank.active_since + self._t_ras)
            access_done = precharge_at + self._t_rp + self._t_rcd + self._t_cas
            bank.active_since = precharge_at + self._t_rp
        bank.open_row = row

        # Serialize the burst on the channel data bus.
        burst_start = max(access_done, self._bus_free[channel])
        completion = burst_start + self._t_burst
        self._bus_free[channel] = completion
        bank.busy_until = completion

        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        return completion

    @property
    def idle_latency_cycles(self) -> int:
        """Latency of an isolated row-miss access (common-case estimate)."""
        return self._t_rcd + self._t_cas + self._t_burst
