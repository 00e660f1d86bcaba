"""Block device controller (Section III-A3).

The paper adds a block device controller to the server blades so custom
Linux distributions with large root filesystems can boot.  The controller
contains a *frontend* that interfaces with the CPU over MMIO and one or
more *trackers* that move data between memory and the block device:

* To start a transfer the CPU reads the *allocation register*, which
  dispatches a request to a free tracker and returns its ID.
* When the transfer completes, the tracker notifies the frontend, which
  records the tracker ID in the *completion queue* and raises an
  interrupt; the CPU matches the ID against the one it received.
* The device is organized in 512-byte sectors; transfers are multiples of
  512 bytes and must be sector-aligned on the device (memory addresses
  need not be aligned).

The device itself is a software functional + timing model (Table I lists
"Disk — Software Model"); per-sector latency parameters approximate a
modest SSD.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.tile.caches import MemoryHierarchy

SECTOR_BYTES = 512

InterruptCallback = Callable[[int, int], None]  # (cycle, tracker_id)


@dataclass(frozen=True)
class BlockDeviceConfig:
    """Capacity and timing of the simulated disk.

    Attributes:
        capacity_sectors: device size in 512-byte sectors.
        num_trackers: concurrent outstanding transfers supported.
        request_latency_cycles: fixed per-request device latency.
        sector_cycles: additional device occupancy per sector moved.
    """

    capacity_sectors: int = 32 * 1024 * 1024  # 16 GiB
    num_trackers: int = 4
    request_latency_cycles: int = 32_000  # ~10 us at 3.2 GHz
    sector_cycles: int = 640  # ~0.2 us per 512 B (~2.4 GB/s streaming)


@dataclass
class BlockRequest:
    """One queued transfer (is_write: memory -> device)."""

    sector: int
    num_sectors: int
    mem_addr: int
    is_write: bool


@dataclass
class BlockDeviceStats:
    reads: int = 0
    writes: int = 0
    sectors_moved: int = 0


class BlockDeviceController:
    """Frontend + trackers + functional sector store."""

    def __init__(
        self,
        name: str,
        dma: MemoryHierarchy,
        config: Optional[BlockDeviceConfig] = None,
    ) -> None:
        self.name = name
        self.dma = dma
        self.config = config or BlockDeviceConfig()
        self._tracker_free_cycle: List[int] = [0] * self.config.num_trackers
        self._next_tracker = 0
        #: Functional store: sector index -> opaque contents.
        self.sectors: Dict[int, bytes] = {}
        #: Completion queue of (cycle, tracker_id) the CPU pops.
        self.completion_queue: Deque[tuple[int, int]] = deque()
        self.interrupt_handler: Optional[InterruptCallback] = None
        self.stats = BlockDeviceStats()

    def _check_request(self, request: BlockRequest) -> None:
        if request.num_sectors <= 0:
            raise ValueError("transfer must cover at least one sector")
        if request.sector < 0 or (
            request.sector + request.num_sectors > self.config.capacity_sectors
        ):
            raise ValueError(
                f"sectors [{request.sector}, "
                f"{request.sector + request.num_sectors}) out of range"
            )

    def allocate(self, cycle: int, request: BlockRequest) -> int:
        """The CPU reads the allocation register: dispatch and return ID.

        The returned tracker ID later appears in the completion queue.
        """
        self._check_request(request)
        tracker_id = self._pick_tracker()
        start = max(cycle, self._tracker_free_cycle[tracker_id])
        device_time = (
            self.config.request_latency_cycles
            + request.num_sectors * self.config.sector_cycles
        )
        transfer_bytes = request.num_sectors * SECTOR_BYTES
        if request.is_write:
            dma_done = self.dma.dma_access(
                start, request.mem_addr, transfer_bytes, is_write=False
            )
            completion = dma_done + device_time
            self.stats.writes += 1
        else:
            completion = self.dma.dma_access(
                start + device_time, request.mem_addr, transfer_bytes, is_write=True
            )
            self.stats.reads += 1
        self.stats.sectors_moved += request.num_sectors
        self._tracker_free_cycle[tracker_id] = completion
        self.completion_queue.append((completion, tracker_id))
        if self.interrupt_handler is not None:
            self.interrupt_handler(completion, tracker_id)
        return tracker_id

    def _pick_tracker(self) -> int:
        """Round-robin over trackers, preferring the earliest-free one."""
        best = min(
            range(self.config.num_trackers),
            key=lambda t: (self._tracker_free_cycle[t], t),
        )
        return best

    # -- functional data path (used by filesystem-level tests) -------------

    def write_sectors(self, sector: int, data: bytes) -> None:
        """Functionally store data (sector-aligned, multiple of 512 B)."""
        if len(data) % SECTOR_BYTES != 0:
            raise ValueError(
                f"data length {len(data)} is not a multiple of {SECTOR_BYTES}"
            )
        for i in range(len(data) // SECTOR_BYTES):
            chunk = data[i * SECTOR_BYTES : (i + 1) * SECTOR_BYTES]
            self.sectors[sector + i] = chunk

    def read_sectors(self, sector: int, num_sectors: int) -> bytes:
        """Functionally read sectors (zero-filled where never written)."""
        parts = []
        for i in range(num_sectors):
            parts.append(self.sectors.get(sector + i, b"\x00" * SECTOR_BYTES))
        return b"".join(parts)
