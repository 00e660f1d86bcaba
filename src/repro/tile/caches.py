"""Cache timing models: L1I / L1D / shared L2 (Table I).

The paper's server blade carries 16 KiB L1I, 16 KiB L1D and a 256 KiB
shared L2, all implemented in RTL.  Here each cache is a set-associative
LRU timing model with writeback/write-allocate semantics; a
:class:`MemoryHierarchy` chains L1 -> L2 -> DRAM and returns whole-access
latencies in target cycles.

These models serve two purposes: they time the NIC's DMA traffic into the
shared L2 (the NIC connects directly to the on-chip interconnect,
Section III-A2), and they provide the cache-pollution behaviour that the
Page-Fault Accelerator case study depends on (Section VI).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.tile.dram import DRAMModel

LINE_BYTES = 64


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    ways: int
    hit_latency_cycles: int
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"{self.size_bytes}B cache not divisible into "
                f"{self.ways} ways of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


# Table I geometries.
L1I_CONFIG = CacheConfig(size_bytes=16 * 1024, ways=4, hit_latency_cycles=1)
L1D_CONFIG = CacheConfig(size_bytes=16 * 1024, ways=4, hit_latency_cycles=2)
L2_CONFIG = CacheConfig(size_bytes=256 * 1024, ways=8, hit_latency_cycles=12)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class CacheModel:
    """A set-associative LRU cache timing model (one level)."""

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
        # Geometry read on every lookup (num_sets is a computed property).
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        # Per-set OrderedDict of tag -> dirty flag; order is LRU (oldest first).
        self._sets: List[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        self.stats = CacheStats()

    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr // self._line_bytes
        return line % self._num_sets, line // self._num_sets

    def lookup(self, addr: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """Access the cache; returns (hit, writeback_line_addr_or_None).

        On a miss the line is allocated (write-allocate) and the evicted
        victim's address is returned if it was dirty (writeback).
        """
        set_index, tag = self._locate(addr)
        cache_set = self._sets[set_index]
        if tag in cache_set:
            self.stats.hits += 1
            cache_set.move_to_end(tag)
            if is_write:
                cache_set[tag] = True
            return True, None
        self.stats.misses += 1
        writeback = None
        if len(cache_set) >= self.config.ways:
            victim_tag, dirty = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
                victim_line = victim_tag * self._num_sets + set_index
                writeback = victim_line * self._line_bytes
        cache_set[tag] = is_write
        return False, writeback

    def invalidate_all(self) -> int:
        """Flush the cache (e.g. on context pollution); returns lines dropped."""
        dropped = sum(len(s) for s in self._sets)
        for s in self._sets:
            s.clear()
        return dropped

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)


class MemoryHierarchy:
    """L1D -> L2 -> DRAM timing chain for one core's data accesses.

    The shared L2 and the DRAM model are passed in so multiple cores (and
    the NIC, which reads/writes the shared L2 directly) contend on the
    same structures.
    """

    def __init__(
        self,
        l1d: CacheModel,
        l2: CacheModel,
        dram: DRAMModel,
        bus: Optional["TileLinkBus"] = None,
    ) -> None:
        self.l1d = l1d
        self.l2 = l2
        self.dram = dram
        self.bus = bus

    def access(self, cycle: int, addr: int, is_write: bool = False) -> int:
        """One load/store; returns total latency in cycles."""
        latency = self.l1d.config.hit_latency_cycles
        hit, writeback = self.l1d.lookup(addr, is_write)
        if hit:
            return latency
        if writeback is not None:
            # Writebacks are buffered; charge the L2 lookup only.
            self.l2.lookup(writeback, True)
        latency += self.l2.config.hit_latency_cycles
        l2_hit, l2_writeback = self.l2.lookup(addr, is_write)
        if l2_hit:
            return latency
        if l2_writeback is not None:
            self.dram.access(cycle + latency, l2_writeback, True)
        completion = self.dram.access(cycle + latency, addr, False)
        return (completion - cycle) if completion > cycle else latency

    def dma_access(self, cycle: int, addr: int, size: int, is_write: bool) -> int:
        """NIC/blockdev DMA through the shared L2 (Section III-A2).

        Returns the completion cycle.  DMA bypasses the L1s, and — because
        the NIC reader issues reads ahead and the reservation buffer
        re-orders completions (Section III-A2) — the transfer is
        bandwidth-limited, not latency-chained: every line is issued at the
        request cycle and the lines pipeline on the TileLink bus (L2 hits)
        or the DRAM channel bus (L2 misses).
        """
        l2 = self.l2
        line = l2.config.line_bytes
        start_line = addr // line
        end_line = (addr + max(size, 1) - 1) // line
        # Hot DMA path: every attribute used per line is hoisted once
        # per transfer.
        l2_lookup = l2.lookup
        hit_latency = l2.config.hit_latency_cycles
        bus = self.bus
        bus_acquire = bus.acquire if bus is not None else None
        dram_access = self.dram.access
        completion = cycle
        for line_index in range(start_line, end_line + 1):
            line_addr = line_index * line
            hit, writeback = l2_lookup(line_addr, is_write)
            if hit:
                if bus_acquire is not None:
                    done = bus_acquire(cycle, line)
                else:
                    done = completion + hit_latency
            else:
                if writeback is not None:
                    dram_access(cycle, writeback, True)
                done = dram_access(cycle, line_addr, is_write)
            if done > completion:
                completion = done
        return completion
