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

The model owns the only copy of switch state — per-egress-port
:class:`_ColQueue` columns, pacing cursors, per-ingress-port partial
reassembly, the sequence counter.  The phases below are the readable
per-packet spec over it; :class:`repro.perf.switch.ColumnarSwitch` runs
the same phases a window at a time over the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

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


class _ColQueue:
    """One egress port's packet buffer as growable parallel columns.

    Rows are kept sorted by ``(release, seq)``.  New arrivals always
    release strictly after everything buffered (their last flit lands
    in the current window, every buffered packet's landed in an earlier
    one), so enqueue is a plain append and the sort order is an
    invariant, not a cost.  Only the head row can be partially emitted
    (``head_emitted``): the drain loop's window straddler.

    The scalar spec works the queue one packet at a time through
    :meth:`push`/:meth:`peek`/:meth:`pop`, which deal in Python ``int``
    only — no ``numpy.int64`` may reach flit-dict keys, ``egress_log``,
    trace args or ``repr()`` digests.  :mod:`repro.perf.switch` works
    the same columns a window at a time.
    """

    __slots__ = (
        "release", "seq", "frame", "size", "total",
        "head", "tail", "head_emitted",
    )

    def __init__(self) -> None:
        self.release = np.empty(16, dtype=np.int64)
        self.seq = np.empty(16, dtype=np.int64)
        self.frame = np.empty(16, dtype=object)
        self.size = np.empty(16, dtype=np.int64)
        self.total = np.empty(16, dtype=np.int64)
        self.head = 0
        self.tail = 0
        self.head_emitted = 0

    def __len__(self) -> int:
        return self.tail - self.head

    def _reserve(self, extra: int) -> None:
        capacity = self.release.shape[0]
        used = self.tail - self.head
        if self.tail + extra <= capacity and self.head < capacity // 2:
            return
        new_capacity = max(capacity, 16)
        while new_capacity < (used + extra) * 2:
            new_capacity *= 2
        for name in ("release", "seq", "frame", "size", "total"):
            old = getattr(self, name)
            grown = np.empty(new_capacity, dtype=old.dtype)
            grown[:used] = old[self.head:self.tail]
            setattr(self, name, grown)
        self.head = 0
        self.tail = used

    def append(
        self,
        release: np.ndarray,
        seq: np.ndarray,
        frames: np.ndarray,
        size: np.ndarray,
        total: np.ndarray,
    ) -> None:
        n = len(release)
        self._reserve(n)
        tail = self.tail
        self.release[tail:tail + n] = release
        self.seq[tail:tail + n] = seq
        self.frame[tail:tail + n] = frames
        self.size[tail:tail + n] = size
        self.total[tail:tail + n] = total
        self.tail = tail + n

    def remove_at(self, index: int) -> None:
        """Drop the row at absolute ``index`` (buffer-bound drops)."""
        for name in ("release", "seq", "frame", "size", "total"):
            column = getattr(self, name)
            column[index:self.tail - 1] = column[index + 1:self.tail]
        self.tail -= 1

    def push(self, release: int, seq: int, frame: EthernetFrame) -> None:
        """Enqueue one packet behind everything buffered."""
        self._reserve(1)
        tail = self.tail
        self.release[tail] = release
        self.seq[tail] = seq
        self.frame[tail] = frame
        self.size[tail] = frame.size_bytes
        self.total[tail] = frame.flit_count
        self.tail = tail + 1

    def peek(self) -> Tuple[int, EthernetFrame]:
        """The head packet's release cycle and frame."""
        return int(self.release[self.head]), self.frame[self.head]

    def pop(self) -> None:
        """Discard the head packet (fully emitted, or dropped)."""
        self.head += 1
        self.head_emitted = 0
        if self.head == self.tail:
            self.head = self.tail = 0


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
            and cls._switching_step is SwitchModel._switching_step
            and cls._egress is SwitchModel._egress
            and cls._drain_port is SwitchModel._drain_port
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
        # Per-egress-port packet buffers, sorted on (release, seq).
        self._out_queues: List[_ColQueue] = [
            _ColQueue() for _ in range(config.num_ports)
        ]
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

        The vectorized step in :mod:`repro.perf.switch` reproduces the
        *stock* phases bit-for-bit; any subclass override (custom
        routing, custom phases, custom idle handling) must fall back to
        the scalar tick.
        """
        cls = type(self)
        return (
            self._idle_safe
            and cls.route is SwitchModel.route
            and cls.idle_outputs is SwitchModel.idle_outputs
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

    def idle_outputs(
        self, window: TokenWindow
    ) -> Optional[Dict[str, TokenBatch]]:
        """All-empty outputs when nothing is buffered (batched engine).

        With zero valid input tokens and every output queue empty, a
        stock switch tick is a no-op: ingress assembles nothing,
        switching routes nothing, egress drains nothing (pacing cursors
        are only advanced while emitting).  Queued packets — including
        window straddlers — force the full tick so congestion and drop
        modelling stay cycle-exact.
        """
        if not self._idle_safe or any(self._out_queues):
            return None
        return {port: window.new_batch() for port in self.ports}

    def idle_horizon(self) -> Optional[int]:
        """A drained switch only acts on arrival: no spontaneous wake.

        (See :meth:`Fame1Model.idle_outputs` for the protocol.)
        """
        if not self._idle_safe or any(self._out_queues):
            return self.current_cycle
        return None

    # -- phases ---------------------------------------------------------

    def _ingress(
        self, inputs: Dict[str, TokenBatch]
    ) -> List[Tuple[int, int, EthernetFrame]]:
        """Assemble packets; returns (timestamp, ingress_port, frame)."""
        completed: List[Tuple[int, int, EthernetFrame]] = []
        for port_index in range(self.config.num_ports):
            batch = inputs[f"port{port_index}"]
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
        return completed

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
                self._out_queues[out_port].push(timestamp, self._seq, frame)
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
        batch = window.new_batch()
        queue = self._out_queues[port_index]
        pace = self.config.cycles_per_flit
        if sink is None:
            sink = get_trace_sink()
        sink_on = sink.enabled
        window_end = window.end
        cursor = max(self._port_next_free[port_index], window.start)
        while queue and cursor < window_end:
            release_cycle, frame = queue.peek()
            start = max(cursor, release_cycle)
            if start >= window_end:
                break
            if queue.head_emitted == 0:
                # Buffer-occupancy drop model: a packet that cannot begin
                # transmission within the buffer bound is dropped.
                lag = start - release_cycle
                if lag > self.config.buffer_flits:
                    queue.pop()
                    self.stats.packets_dropped += 1
                    self.stats.bytes_dropped += frame.size_bytes
                    if sink_on:
                        sink.target_instant(
                            "drop", "switch", start, track=self.name,
                            args={"frame": frame.frame_id,
                                  "port": port_index, "lag": lag},
                        )
                    continue
            total_flits = frame.flit_count
            index = queue.head_emitted
            remaining = total_flits - index
            cycle = start
            if start + (remaining - 1) * pace < window_end:
                # The window fully contains the rest of the packet:
                # every emitted cycle is provably in-window and unique
                # (cursor only moves forward, one flit per pace step),
                # so skip add()'s per-flit validation and assign into
                # the batch's flit dict directly.
                flits = batch.flits
                last_index = total_flits - 1
                for _ in range(remaining):
                    flits[cycle] = Flit(
                        data=frame, last=index == last_index, index=index
                    )
                    index += 1
                    cycle += pace
            else:
                while index < total_flits and cycle < window_end:
                    batch.add(
                        cycle,
                        Flit(
                            data=frame,
                            last=index == total_flits - 1,
                            index=index,
                        ),
                    )
                    index += 1
                    cycle += pace
            cursor = cycle
            self._port_next_free[port_index] = cycle
            if index == total_flits:
                queue.pop()
                self.stats.packets_out += 1
                self.stats.bytes_out += frame.size_bytes
                if sink_on:
                    sink.target_span(
                        "dequeue", "switch", release_cycle,
                        cycle - pace, track=self.name,
                        args={"frame": frame.frame_id,
                              "port": port_index},
                    )
                if self.egress_log is not None:
                    self.egress_log.append((cycle - pace, frame.size_bytes))
            else:
                # Packet straddles the window; resume next round.
                queue.head_emitted = index
                break
        return batch

    # -- inspection -------------------------------------------------------

    def queued_packets(self) -> int:
        """Packets currently buffered across all output ports."""
        return sum(len(q) for q in self._out_queues)

    def queued_bytes(self) -> int:
        """Bytes buffered across all output ports (straddlers count whole)."""
        return sum(
            int(queue.size[queue.head:queue.tail].sum())
            for queue in self._out_queues
        )

    def register_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Register this switch's counters under ``switch.<name>.*``."""
        registry.register_source(prefix or f"switch.{self.name}", self.stats)
