"""Cycle-by-cycle switch model.

Reproduces the paper's C++ switch model (Section III-B1) as a
:class:`~repro.core.fame.Fame1Model`:

* **Ingress**: each port buffers arriving tokens into full packets.  A
  completed packet is timestamped with the arrival cycle of its *last*
  token plus a configurable minimum switching latency, then placed in an
  input packet queue.
* **Global switching step**: all input packets available in the round are
  taken in timestamp order (the paper's priority queue; here one sort)
  and appended to the appropriate output-port buffers using a static
  MAC address table (datacenter topologies are relatively fixed).
  Broadcast frames are duplicated to every port except the ingress port.
* **Egress**: per port, packets are "released" into simulation tokens when
  their release timestamp is ≤ global simulation time and there is space
  in the output token stream (one flit per cycle per port, scaled by the
  port's configured bandwidth).  Because the output token budget per round
  is finite, congestion is modeled automatically.  Dropping due to buffer
  sizing is modeled by an upper bound on the delay between a packet's
  release timestamp and the cycle it would actually start transmitting.

The switching algorithm and the Ethernet assumption are not fundamental:
users can subclass and override :meth:`route` (or the ingress/egress
hooks) to model new switch designs, just as FireSim users plug in their
own C++ switching logic.

The model owns the only copy of switch state — per-egress-port packet
rows, pacing cursors, per-ingress-port partial reassembly, the sequence
counter.  The phases below are the readable per-packet spec over it;
:class:`repro.perf.switch.ColumnarSwitch` calls the spec's switching
step and drain walker itself, with packet-segment rows in place of
flits at both ends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.fame import Fame1Model
from repro.core.token import Flit, TokenBatch, TokenWindow
from repro.net.ethernet import BROADCAST_MAC, EthernetFrame
from repro.obs.trace import get_trace_sink


@dataclass
class SwitchConfig:
    """Runtime-configurable switch parameters (Section III-B1).

    Attributes:
        num_ports: number of switch ports.
        min_latency_cycles: minimum port-to-port switching latency added
            to every packet's timestamp (the evaluation uses 10 cycles).
        cycles_per_flit: egress pacing; 1 means full link rate (200 Gbit/s
            at 3.2 GHz with 64-bit flits), 2 means half rate, etc.
        buffer_flits: bound on how far (in flits ≈ cycles) a packet may
            lag behind its release timestamp before it is dropped — the
            output-buffer sizing model.
    """

    num_ports: int
    min_latency_cycles: int = 10
    cycles_per_flit: int = 1
    buffer_flits: int = 16384

    def __post_init__(self) -> None:
        if self.num_ports < 1:
            raise ValueError(f"switch needs >= 1 port, got {self.num_ports}")
        if self.min_latency_cycles < 0:
            raise ValueError("min switching latency must be >= 0")
        if self.cycles_per_flit < 1:
            raise ValueError("cycles_per_flit must be >= 1")
        if self.buffer_flits < 1:
            raise ValueError("buffer_flits must be >= 1")


@dataclass
class SwitchStats:
    """Counters a switch maintains (also feed the Figure 6 bandwidth probe).

    Byte conservation holds per switch for unicast traffic:
    ``bytes_in == bytes_out + bytes_dropped + queued bytes`` (broadcast
    frames are counted once on ingress but duplicated on egress).
    """

    packets_in: int = 0
    packets_out: int = 0
    packets_dropped: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    bytes_dropped: int = 0
    broadcasts: int = 0


class SwitchModel(Fame1Model):
    """Store-and-forward Ethernet switch as a FAME-1 decoupled model."""

    def __init__(
        self,
        name: str,
        config: SwitchConfig,
        mac_table: Optional[Dict[int, int]] = None,
        default_port: Optional[int] = None,
    ) -> None:
        ports = [f"port{i}" for i in range(config.num_ports)]
        super().__init__(name, ports)
        self.config = config
        # Idle-token elision is only sound while every tick phase is the
        # stock implementation (an all-idle window provably changes no
        # state); subclasses with custom phases always get a full tick.
        cls = type(self)
        self._idle_safe = (
            cls._tick is SwitchModel._tick
            and cls._ingress is SwitchModel._ingress
            and cls._ingress_flits is SwitchModel._ingress_flits
            and cls._switching_step is SwitchModel._switching_step
            and cls._egress is SwitchModel._egress
            and cls._drain_port is SwitchModel._drain_port
            and cls._drain_segments is SwitchModel._drain_segments
        )
        #: Static MAC -> output-port-index table (Section III-B3: populated
        #: automatically by the manager from the topology).  Consulted
        #: per packet, so edits take effect on the next switching step.
        self.mac_table: Dict[int, int] = dict(mac_table or {})
        #: Port used for MACs missing from the table (the uplink in a tree
        #: topology); None means unknown unicast frames are dropped.
        self.default_port = default_port
        # Next sequence number: orders packets that share a release cycle.
        self._seq = 0
        # Per-ingress-port partial reassembly: (frame, flits seen so far).
        self._partial: List[Tuple[Optional[EthernetFrame], int]] = [
            (None, 0) for _ in range(config.num_ports)
        ]
        # Per-egress-port packet buffers of ``(release, seq, frame)``
        # rows, sorted on ``(release, seq)``: an arrival releases after
        # everything buffered (its last flit lands in the current window,
        # theirs in earlier ones), so enqueue is a plain append.  Only
        # the head row can be partly emitted (``_head_emitted``, the
        # drain's window straddler).  Cycles and sequence numbers are
        # Python ints: they reach flit dicts, logs and ``repr()`` digests.
        # ``any(self._out_rows)`` tests every port without a Python call.
        self._out_rows: List[Deque[Tuple[int, int, EthernetFrame]]] = [
            deque() for _ in range(config.num_ports)
        ]
        self._head_emitted: List[int] = [0] * config.num_ports
        # Per-egress-port next cycle at which a flit may be emitted.
        self._port_next_free: List[int] = [0] * config.num_ports
        self.stats = SwitchStats()
        #: Optional egress log of ``(cycle, bytes)`` used by bandwidth
        #: probes (Figure 6); enable with :meth:`enable_bandwidth_probe`.
        self.egress_log: Optional[List[Tuple[int, int]]] = None

    # -- configuration hooks ----------------------------------------------

    @property
    def columnar_safe(self) -> bool:
        """Whether the columnar fast path may tick this switch.

        The row step in :mod:`repro.perf.switch` reproduces the *stock*
        phases bit-for-bit; any subclass override (custom routing,
        custom phases, custom idle handling) must fall back to the
        scalar tick.
        """
        cls = type(self)
        return (
            self._idle_safe
            and cls.route is SwitchModel.route
            and cls.idle_horizon is SwitchModel.idle_horizon
        )

    def enable_bandwidth_probe(self) -> None:
        """Record per-packet egress completions for bandwidth-vs-time plots."""
        self.egress_log = []

    def route(self, frame: EthernetFrame, ingress_port: int) -> List[int]:
        """Output port indices for a frame.  Subclass to change switching."""
        if frame.dst == BROADCAST_MAC:
            self.stats.broadcasts += 1
            return [
                p for p in range(self.config.num_ports) if p != ingress_port
            ]
        port = self.mac_table.get(frame.dst, self.default_port)
        if port is None:
            return []
        return [port]

    # -- FAME-1 tick ---------------------------------------------------

    def _tick(
        self, window: TokenWindow, inputs: Dict[str, TokenBatch]
    ) -> Dict[str, TokenBatch]:
        arrivals = self._ingress(inputs)
        self._switching_step(arrivals)
        return self._egress(window)

    def idle_horizon(self) -> Optional[int]:
        """A drained switch only acts on arrival: no spontaneous wake.

        With zero valid input tokens and every output queue empty, a
        stock switch tick is a no-op: ingress assembles nothing,
        switching routes nothing, egress drains nothing (pacing cursors
        are only advanced while emitting).  Queued packets — including
        window straddlers — force the full tick so congestion and drop
        modelling stay cycle-exact.
        """
        if not self._idle_safe or any(self._out_rows):
            return self.current_cycle
        return None

    # -- phases ---------------------------------------------------------

    def _ingress(
        self, inputs: Dict[str, TokenBatch]
    ) -> List[Tuple[int, int, EthernetFrame]]:
        """Assemble packets; returns (timestamp, ingress_port, frame)."""
        completed: List[Tuple[int, int, EthernetFrame]] = []
        for port_index in range(self.config.num_ports):
            self._ingress_flits(
                port_index, inputs[f"port{port_index}"], completed
            )
        return completed

    def _ingress_flits(
        self,
        port_index: int,
        batch: TokenBatch,
        completed: List[Tuple[int, int, EthernetFrame]],
    ) -> None:
        """One ingress port's window: append each packet it completes."""
        frame, seen = self._partial[port_index]
        for cycle, flit in batch.iter_flits():
            frame = flit.data
            if flit.last:
                timestamp = cycle + self.config.min_latency_cycles
                completed.append((timestamp, port_index, frame))
                self.stats.packets_in += 1
                self.stats.bytes_in += frame.size_bytes
                frame, seen = None, 0
            else:
                seen += 1
        self._partial[port_index] = (frame, seen)

    def _switching_step(
        self, arrivals: List[Tuple[int, int, EthernetFrame]]
    ) -> None:
        """Sort this round's packets by timestamp and route to outputs."""
        # The sink and its enabled flag are stable within a phase —
        # check once here, not once per packet.
        sink = get_trace_sink()
        sink_on = sink.enabled
        # Timestamps are unique per ingress port (one flit per cycle),
        # so (timestamp, port) is a total order.
        for timestamp, ingress_port, frame in sorted(
            arrivals, key=lambda arrival: arrival[:2]
        ):
            out_ports = self.route(frame, ingress_port)
            if not out_ports and frame.dst != BROADCAST_MAC:
                # Unroutable unicast: no table entry and no default port
                # (e.g. the destination host was quarantined and remapped).
                # Count it as a drop so byte conservation
                # (bytes_in == bytes_out + bytes_dropped + queued) holds.
                self.stats.packets_dropped += 1
                self.stats.bytes_dropped += frame.size_bytes
                if sink_on:
                    sink.target_instant(
                        "drop", "switch", timestamp, track=self.name,
                        args={"frame": frame.frame_id,
                              "in_port": ingress_port,
                              "reason": "unroutable"},
                    )
                continue
            for out_port in out_ports:
                self._out_rows[out_port].append((timestamp, self._seq, frame))
                self._seq += 1
                if sink_on:
                    sink.target_instant(
                        "enqueue", "switch", timestamp, track=self.name,
                        args={"frame": frame.frame_id,
                              "in_port": ingress_port,
                              "out_port": out_port},
                    )

    def _egress(self, window: TokenWindow) -> Dict[str, TokenBatch]:
        # One sink fetch per phase, shared by every port drain.
        sink = get_trace_sink()
        outputs: Dict[str, TokenBatch] = {}
        for port_index in range(self.config.num_ports):
            outputs[f"port{port_index}"] = self._drain_port(
                port_index, window, sink
            )
        return outputs

    def _drain_port(
        self, port_index: int, window: TokenWindow, sink=None
    ) -> TokenBatch:
        """One egress port's output window, as flits."""
        batch = TokenBatch(window.start, window.length)
        if sink is None:
            sink = get_trace_sink()
        pace = self.config.cycles_per_flit
        # Every emitted cycle is in-window and unique (the cursor only
        # moves forward, one flit per pace step), so assign into the
        # flit dict directly rather than through add()'s validation.
        flits = batch.flits
        for frame, cycle, count, first, total in self._drain_segments(
            port_index, window, sink
        ):
            for index in range(first, first + count):
                flits[cycle] = Flit(
                    data=frame, last=index == total - 1, index=index
                )
                cycle += pace
        return batch

    def _drain_segments(
        self, port_index: int, window: TokenWindow, sink
    ) -> List[Tuple[EthernetFrame, int, int, int, int]]:
        """Drain one egress port for one window, a packet at a time.

        Applies pacing, the buffer-bound drop and the window straddle
        with all their side effects — queue pops, pacing cursor, stats,
        trace events, egress log — and returns what went on the wire as
        ``(frame, first_cycle, count, first_index, total)`` segments in
        emission order: one per packet, flits ``pace`` cycles apart.
        ``_drain_port`` turns them into flits; the batched engine's
        ``ColumnarSwitch.step`` packs them into rows.
        """
        segments: List[Tuple[EthernetFrame, int, int, int, int]] = []
        rows = self._out_rows[port_index]
        emitted = self._head_emitted
        pace = self.config.cycles_per_flit
        sink_on = sink.enabled
        window_end = window.end
        cursor = max(self._port_next_free[port_index], window.start)
        while rows and cursor < window_end:
            release_cycle, _, frame = rows[0]
            start = max(cursor, release_cycle)
            if start >= window_end:
                break
            index = emitted[port_index]
            if index == 0:
                # Buffer-occupancy drop model: a packet that cannot begin
                # transmission within the buffer bound is dropped.
                lag = start - release_cycle
                if lag > self.config.buffer_flits:
                    rows.popleft()
                    self.stats.packets_dropped += 1
                    self.stats.bytes_dropped += frame.size_bytes
                    if sink_on:
                        sink.target_instant(
                            "drop", "switch", start, track=self.name,
                            args={"frame": frame.frame_id,
                                  "port": port_index, "lag": lag},
                        )
                    continue
            total = frame.flit_count
            # As many of the remaining flits as fit before the window
            # ends, one every ``pace`` cycles.
            count = min(total - index, (window_end - start - 1) // pace + 1)
            segments.append((frame, start, count, index, total))
            cursor = start + count * pace
            self._port_next_free[port_index] = cursor
            if index + count == total:
                rows.popleft()
                emitted[port_index] = 0
                self.stats.packets_out += 1
                self.stats.bytes_out += frame.size_bytes
                if sink_on:
                    sink.target_span(
                        "dequeue", "switch", release_cycle,
                        cursor - pace, track=self.name,
                        args={"frame": frame.frame_id,
                              "port": port_index},
                    )
                if self.egress_log is not None:
                    self.egress_log.append((cursor - pace, frame.size_bytes))
            else:
                # Packet straddles the window; resume next round.
                emitted[port_index] = index + count
                break
        return segments

    # -- inspection -------------------------------------------------------

    def queued_packets(self) -> int:
        """Packets currently buffered across all output ports."""
        return sum(map(len, self._out_rows))

    def queued_bytes(self) -> int:
        """Bytes buffered across all output ports (straddlers count whole)."""
        return sum(
            frame.size_bytes
            for rows in self._out_rows
            for _, _, frame in rows
        )

    def register_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Register this switch's counters under ``switch.<name>.*``."""
        registry.register_source(prefix or f"switch.{self.name}", self.stats)
