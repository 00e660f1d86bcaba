"""Network Interface Controller model (Section III-A2, Figure 3).

The NIC is integrated on-die and connects to the Rocket Chip's TileLink
interconnect, reading and writing packet data directly in the shared L2.
It is split into three blocks, all modeled here:

* **Controller** — send/receive request queues and completion queues,
  exposed to the CPU as MMIO registers, plus an interrupt line asserted
  while a completion queue is occupied.
* **Send path** — *reader* (issues memory reads for packet data),
  *reservation buffer* (absorbs out-of-order memory responses; modeled by
  the bandwidth-limited pipelined DMA in
  :meth:`repro.tile.caches.MemoryHierarchy.dma_access`), *aligner* (fixed
  shift latency), and *rate limiter* (token bucket,
  :class:`~repro.nic.ratelimit.TokenBucketLimiter`).
* **Receive path** — *packet buffer* (drops at full-packet granularity
  when out of space, so the OS never sees partial packets) and *writer*
  (DMA into receive buffers posted by the driver; completion + interrupt
  after all writes retire).

The NIC's top-level interface is FAME-1 decoupled: the owning server
blade feeds it one window of input tokens per tick and collects one
window of output tokens (Section III-A2, last paragraph).

Both directions speak two window formats through the same entry points.
The scalar engine hands :meth:`NIC.fill_tx` a ``TokenBatch`` to fill and
:meth:`NIC.receive_tokens` one to walk, flit by flit — the executable
spec.  The batched engine calls ``fill_tx(window)`` and gets the same
traffic back as :class:`~repro.perf.stream.ColumnarBatch` rows, one per
rate-limiter burst (one
:meth:`~repro.nic.ratelimit.TokenBucketLimiter.send_bursts` call per
frame per window), or None for an idle window (the blade leaves its
port out), and feeds ``receive_tokens`` rows as they left the switch:
only a ``last`` bit rides the link (Section III-B2), so a frame is
received at the final flit of its completing row and no flit is ever
built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional

from repro.core.token import Flit, TokenBatch, TokenWindow
from repro.nic.ratelimit import TokenBucketLimiter
from repro.net.ethernet import EthernetFrame
from repro.perf.stream import ColumnarBatch
from repro.tile.caches import MemoryHierarchy

#: Interrupt kinds delivered to the driver.
IRQ_RX = "rx"
IRQ_TX = "tx"

InterruptHandler = Callable[[int, str, Optional[EthernetFrame]], None]


@dataclass(frozen=True)
class NICConfig:
    """NIC microarchitectural parameters.

    Attributes:
        packet_buffer_bytes: receive-side packet buffer capacity; packets
            are dropped whole when it is full (Section III-A2).
        controller_latency_cycles: MMIO request-to-reader handoff latency.
        aligner_latency_cycles: shift latency of the aligner stage.
        reader_overhead_cycles: per-packet send-path overhead (descriptor
            fetch, completion writeback); together with the DMA bandwidth
            this bounds a single NIC at ~100 Gbit/s for MTU frames, the
            paper's measured bare-metal limit (Section IV-C).
        writer_latency_cycles: receive-path fixed latency before DMA.
        rx_descriptors: receive buffers the driver posts initially.
    """

    packet_buffer_bytes: int = 64 * 1024
    controller_latency_cycles: int = 8
    aligner_latency_cycles: int = 4
    reader_overhead_cycles: int = 190
    writer_latency_cycles: int = 8
    rx_descriptors: int = 128


@dataclass
class NICStats:
    tx_frames: int = 0
    rx_frames: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0
    rx_dropped_frames: int = 0
    rx_dropped_bytes: int = 0


@dataclass
class _TxPacket:
    frame: EthernetFrame
    ready_cycle: int
    flits_emitted: int = 0


@dataclass
class _RxPacket:
    frame: EthernetFrame
    arrival_cycle: int


class NIC:
    """The server blade's integrated 200 Gbit/s Ethernet NIC."""

    def __init__(
        self,
        name: str,
        dma: MemoryHierarchy,
        config: Optional[NICConfig] = None,
    ) -> None:
        self.name = name
        self.dma = dma
        self.config = config or NICConfig()
        self.limiter = TokenBucketLimiter(1, 1)  # unlimited by default
        self.stats = NICStats()
        self.interrupt_handler: Optional[InterruptHandler] = None

        # Send path state.
        self._tx_queue: Deque[_TxPacket] = deque()
        self._reader_free_cycle = 0
        self._emit_cursor = 0

        # Receive path state.
        self._rx_buffer_occupancy = 0
        self._rx_waiting: Deque[_RxPacket] = deque()
        self._rx_descriptors = self.config.rx_descriptors
        self._writer_free_cycle = 0
        #: (completion_cycle, frame) entries the driver pops on interrupt
        #: (:meth:`repro.swmodel.kernel.Kernel._nic_interrupt`); a bare
        #: NIC with no handler keeps them for inspection.
        self.rx_completions: Deque[tuple[int, EthernetFrame]] = deque()
        self.tx_completions: Deque[tuple[int, EthernetFrame]] = deque()

    # -- runtime configuration ----------------------------------------------

    def set_bandwidth(self, k: int, p: int) -> None:
        """Reconfigure the token-bucket rate limiter at runtime."""
        self.limiter.set_rate(k, p)

    # -- controller: CPU-facing queues ---------------------------------------

    def post_send(self, cycle: int, frame: EthernetFrame, buffer_addr: int = 0x9000_0000) -> None:
        """CPU writes (address, length) to the send request queue.

        The reader then DMAs the packet out of memory; the packet becomes
        eligible for transmission once its data has traversed the
        reservation buffer and aligner.
        """
        issue = cycle + self.config.controller_latency_cycles
        dma_start = max(issue, self._reader_free_cycle)
        dma_done = self.dma.dma_access(
            dma_start, buffer_addr, frame.size_bytes, is_write=False
        )
        self._reader_free_cycle = dma_done + self.config.reader_overhead_cycles
        ready = dma_done + self.config.aligner_latency_cycles
        self._tx_queue.append(_TxPacket(frame, ready))
        self.tx_completions.append((dma_done, frame))
        if self.interrupt_handler is not None:
            self.interrupt_handler(dma_done, IRQ_TX, frame)

    def post_recv_descriptors(self, cycle: int, count: int) -> None:
        """CPU posts receive buffer addresses to the receive request queue."""
        if count < 0:
            raise ValueError(f"descriptor count must be >= 0, got {count}")
        self._rx_descriptors += count
        self._drain_rx_waiting(cycle)

    # -- FAME-1 token interface (called by the owning blade) ---------------

    def fill_tx(
        self, window: TokenWindow, batch: Optional[TokenBatch] = None
    ) -> Any:
        """Emit send-path flits into the blade's output token window.

        With a ``batch`` the flits are added to it one by one; without,
        the window's traffic is returned as burst rows (None when
        nothing was sent).
        """
        if batch is None:
            return self._fill_tx_rows(window)
        cursor = max(self._emit_cursor, window.start)
        while self._tx_queue:
            packet = self._tx_queue[0]
            total = packet.frame.flit_count
            start = max(cursor, packet.ready_cycle)
            if start >= window.end:
                break
            flit_cycle = start
            while packet.flits_emitted < total:
                send_at = self.limiter.next_send_cycle(flit_cycle)
                if send_at >= window.end:
                    cursor = send_at
                    self._emit_cursor = cursor
                    return
                if packet.flits_emitted == 0 and packet.frame.sent_cycle is None:
                    packet.frame.sent_cycle = send_at
                batch.add(
                    send_at,
                    Flit(
                        data=packet.frame,
                        last=packet.flits_emitted == total - 1,
                        index=packet.flits_emitted,
                    ),
                )
                self.limiter.consume(send_at)
                packet.flits_emitted += 1
                flit_cycle = send_at + 1
            cursor = flit_cycle
            self._tx_queue.popleft()
            self.stats.tx_frames += 1
            self.stats.tx_bytes += packet.frame.size_bytes
        self._emit_cursor = cursor

    def _fill_tx_rows(self, window: TokenWindow) -> Any:
        """The per-flit loop of :meth:`fill_tx`, one frame at a time.

        Same queue walk, cursor rule and side effects; the limiter's
        closed form admits all of a frame's bursts in the window in one
        call, and each burst is one ``(frame, first_cycle, count,
        first_index, total)`` row.
        """
        end = window.end
        send_bursts = self.limiter.send_bursts
        rows: List[tuple] = []
        cursor = max(self._emit_cursor, window.start)
        while self._tx_queue:
            packet = self._tx_queue[0]
            frame = packet.frame
            total = frame.flit_count
            flit_cycle = max(cursor, packet.ready_cycle)
            if flit_cycle >= end:
                break
            emitted = packet.flits_emitted
            bursts, cursor = send_bursts(flit_cycle, total - emitted, end)
            if bursts:
                if emitted == 0 and frame.sent_cycle is None:
                    frame.sent_cycle = bursts[0][0]
                for first, count in bursts:
                    rows.append((frame, first, count, emitted, total))
                    emitted += count
                packet.flits_emitted = emitted
            if emitted < total:
                break  # the next flit goes at cursor, in a later window
            self._tx_queue.popleft()
            self.stats.tx_frames += 1
            self.stats.tx_bytes += frame.size_bytes
        self._emit_cursor = cursor
        if not rows:
            return None
        return ColumnarBatch(window.start, window.length, 1, rows)

    def receive_tokens(self, batch: Any) -> None:
        """Consume one window of input tokens (receive path ingress)."""
        if type(batch) is ColumnarBatch:
            stride = batch.stride
            for frame, first, count, index, total in batch.rows:
                if index + count == total:
                    self._rx_packet(first + (count - 1) * stride, frame)
            return
        for cycle, flit in batch.iter_flits():
            if flit.last:
                self._rx_packet(cycle, flit.data)

    # -- receive path ----------------------------------------------------

    def _rx_packet(self, cycle: int, frame: EthernetFrame) -> None:
        if (
            self._rx_buffer_occupancy + frame.size_bytes
            > self.config.packet_buffer_bytes
        ):
            # Cannot backpressure Ethernet: drop the whole packet so the
            # OS never sees an incomplete one (Section III-A2).
            self.stats.rx_dropped_frames += 1
            self.stats.rx_dropped_bytes += frame.size_bytes
            return
        self._rx_buffer_occupancy += frame.size_bytes
        self._rx_waiting.append(_RxPacket(frame, cycle))
        self._drain_rx_waiting(cycle)

    def _drain_rx_waiting(self, cycle: int) -> None:
        while self._rx_waiting and self._rx_descriptors > 0:
            packet = self._rx_waiting.popleft()
            self._rx_descriptors -= 1
            start = max(
                packet.arrival_cycle + self.config.writer_latency_cycles,
                self._writer_free_cycle,
                cycle,
            )
            done = self.dma.dma_access(
                start, 0xA000_0000, packet.frame.size_bytes, is_write=True
            )
            self._writer_free_cycle = done
            self._rx_buffer_occupancy -= packet.frame.size_bytes
            self.rx_completions.append((done, packet.frame))
            self.stats.rx_frames += 1
            self.stats.rx_bytes += packet.frame.size_bytes
            if self.interrupt_handler is not None:
                self.interrupt_handler(done, IRQ_RX, packet.frame)

    # -- inspection --------------------------------------------------------

    def register_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Register tx/rx/drop counters under ``nic.<name>.*``."""
        registry.register_source(prefix or f"nic.{self.name}", self.stats)

    @property
    def tx_backlog(self) -> int:
        """Frames queued in the send path, including the one in flight."""
        return len(self._tx_queue)

    @property
    def rx_buffer_occupancy(self) -> int:
        return self._rx_buffer_occupancy
