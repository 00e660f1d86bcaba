"""TileLink-style on-chip interconnect occupancy model.

The Rocket Chip SoC connects the cores and the NIC to the shared L2 over
the TileLink2 interconnect (Section III-A2).  For timing
purposes what matters is arbitration and beat occupancy: the data path is
64 bits wide, so a burst of ``n`` bytes occupies ``ceil(n/8)`` beats, and
concurrent masters serialize on the shared bus.

:class:`TileLinkBus` tracks bus occupancy across cycle-stamped requests;
each master acquires the bus for its beats and observes queueing delay
under contention.
"""

from __future__ import annotations

from dataclasses import dataclass

BEAT_BYTES = 8


@dataclass
class TileLinkStats:
    requests: int = 0
    beats: int = 0
    stall_cycles: int = 0


class TileLinkBus:
    """A single shared 64-bit interconnect segment."""

    def __init__(self, name: str = "tilelink") -> None:
        self.name = name
        self._busy_until = 0
        self.stats = TileLinkStats()

    def acquire(self, cycle: int, size_bytes: int, count: int = 1) -> int:
        """Occupy the bus for ``count`` bursts; returns the last completion.

        A request arriving while the bus is busy stalls until it frees,
        which is the contention behaviour the NIC's reservation buffer is
        designed to absorb (Section III-A2).  The ``count`` bursts are
        all requested at ``cycle`` and run back to back, so burst ``i``
        (from 0) stalls ``start - cycle + i * beats`` cycles: the same
        state and stats as ``count`` single-burst calls.
        """
        if size_bytes <= 0 or count <= 0:
            raise ValueError(
                f"size and count must be positive, got {size_bytes}, {count}"
            )
        beats = -(-size_bytes // BEAT_BYTES)
        start = max(cycle, self._busy_until)
        stats = self.stats
        stats.stall_cycles += count * (start - cycle) + beats * count * (count - 1) // 2
        completion = start + count * beats
        self._busy_until = completion
        stats.requests += count
        stats.beats += count * beats
        return completion

    @property
    def busy_until(self) -> int:
        return self._busy_until
