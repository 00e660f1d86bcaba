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

A DMA transfer costs what it interacts with: one in-order pass of the L2
over its line range, one closed-form bus reservation for all of its L2
hits, and one DRAM access per miss or dirty victim.  A steady stream
re-reads (send) or re-writes (receive) one fixed buffer, so a cache
remembers its last range: repeating it, when that cannot change a line's
LRU position or dirty bit, costs one hit count and no walk (see
:meth:`CacheModel.access_lines`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
        for name in ("size_bytes", "ways", "line_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.hit_latency_cycles < 0:
            raise ValueError(
                f"hit_latency_cycles must be >= 0, got "
                f"{self.hit_latency_cycles}"
            )
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
        # (first_line, count, all_dirty) of the last access_lines range
        # while its lines are each their own set's MRU line, else None.
        self._last_range: Optional[Tuple[int, int, bool]] = None

    def lookup(self, addr: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """Access the cache; returns (hit, writeback_line_addr_or_None).

        On a miss the line is allocated (write-allocate) and the evicted
        victim's address is returned if it was dirty (writeback).
        """
        misses = self.access_lines(addr // self._line_bytes, 1, is_write)
        return (False, misses[0][1]) if misses else (True, None)

    def access_lines(
        self, first_line: int, count: int, is_write: bool
    ) -> List[Tuple[int, Optional[int]]]:
        """Access ``count`` consecutive lines from line number ``first_line``.

        The lines are accessed in order, each exactly as :meth:`lookup`
        would (LRU touch and dirty mark on a hit, write-allocate with
        victim eviction on a miss).  Returns the misses in order as
        ``(position in the range, writeback_line_addr_or_None)``.

        A range of at most ``num_sets`` lines puts each line in its own
        set, as that set's MRU line, and is remembered until the next
        call or :meth:`invalidate_all`.  Repeating it exactly is then
        all hits whose LRU touches are no-ops; with ``is_write`` false,
        or with every line already dirty, the dirty marks are no-ops too,
        so only the hit count moves and no line is walked.
        """
        last = self._last_range
        if (
            last is not None
            and last[0] == first_line
            and last[1] == count
            and (last[2] or not is_write)
        ):
            self.stats.hits += count
            return []
        num_sets = self._num_sets
        line_bytes = self._line_bytes
        ways = self.config.ways
        sets = self._sets
        misses: List[Tuple[int, Optional[int]]] = []
        evictions = writebacks = 0
        for position in range(count):
            line = first_line + position
            set_index = line % num_sets
            tag = line // num_sets
            cache_set = sets[set_index]
            if tag in cache_set:
                cache_set.move_to_end(tag)
                if is_write:
                    cache_set[tag] = True
                continue
            writeback = None
            if len(cache_set) >= ways:
                victim_tag, dirty = cache_set.popitem(last=False)
                evictions += 1
                if dirty:
                    writebacks += 1
                    writeback = (victim_tag * num_sets + set_index) * line_bytes
            cache_set[tag] = is_write
            misses.append((position, writeback))
        stats = self.stats
        stats.hits += count - len(misses)
        stats.misses += len(misses)
        stats.evictions += evictions
        stats.writebacks += writebacks
        # A read's hits keep their old dirty bits, so only a write is
        # known to leave the whole range dirty.
        self._last_range = (
            (first_line, count, is_write) if count <= num_sets else None
        )
        return misses

    def invalidate_all(self) -> int:
        """Flush the cache (e.g. on context pollution); returns lines dropped."""
        self._last_range = None
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
        """NIC DMA through the shared L2 (Section III-A2).

        Returns the completion cycle.  DMA bypasses the L1s, and — because
        the NIC reader issues reads ahead and the reservation buffer
        re-orders completions (Section III-A2) — the transfer is
        bandwidth-limited, not latency-chained: every line is issued at the
        request cycle and the lines pipeline on the TileLink bus (L2 hits)
        or the DRAM channel bus (L2 misses).

        The transfer costs one L2 pass (:meth:`CacheModel.access_lines`),
        one bus reservation for all of its hits
        (:meth:`TileLinkBus.acquire` with a count) and one DRAM access per
        victim writeback or miss, in line order.  That equals a per-line
        lookup-then-burst loop because the bus, the L2 and the DRAM hold
        disjoint state and every hit's burst starts where the previous
        one ended.  Without a bus a hit takes the L2 hit latency after the
        completion so far, so hits and misses fold in line order.

        A transfer that repeats the L2's last range (a stream's fixed
        send or receive buffer) is all hits, and the pass returns no
        misses without walking the range: its lines are still their
        sets' MRU lines and, for a write, already dirty, so the walk
        would change nothing but the hit count.  The bus still reserves
        every line.
        """
        l2 = self.l2
        line = l2.config.line_bytes
        first_line = addr // line
        count = (addr + max(size, 1) - 1) // line - first_line + 1
        misses = l2.access_lines(first_line, count, is_write)
        bus = self.bus
        # With a bus, hits add nothing to the fold: they reserve the bus
        # once, after it.
        hit_latency = 0 if bus is not None else l2.config.hit_latency_cycles
        dram_access = self.dram.access
        completion = cycle
        next_position = 0
        for position, writeback in misses:
            completion += (position - next_position) * hit_latency
            next_position = position + 1
            if writeback is not None:
                dram_access(cycle, writeback, True)
            done = dram_access(cycle, (first_line + position) * line, is_write)
            if done > completion:
                completion = done
        completion += (count - next_position) * hit_latency
        hits = count - len(misses)
        if bus is not None and hits:
            done = bus.acquire(cycle, line, hits)
            if done > completion:
                completion = done
        return completion
