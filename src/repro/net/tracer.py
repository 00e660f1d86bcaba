"""Network tracing and latency probes.

FireSim users "collect performance data that is cycle-exact"; beyond the
application-level measurements, the platform exposes link-level
visibility: a :class:`LinkTracer` is a FAME-1 pass-through model
spliced into a link that records every packet crossing it with
cycle-exact first/last-flit timestamps (a pcap with cycle timestamps).
Two tracers' records, matched by frame id, give per-packet one-way
latencies across any switch fabric.

A tracer adds **zero target-time distortion**: the two links replacing
the original must carry half its latency each, keeping end-to-end cycle
arithmetic identical — `splice_tracer` handles that and refuses odd
latencies rather than silently skewing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.fame import Fame1Model
from repro.core.simulation import Simulation
from repro.core.token import TokenBatch, TokenWindow
from repro.net.ethernet import EthernetFrame
from repro.obs.trace import get_trace_sink


@dataclass
class PacketRecord:
    """One packet crossing a tracer in one direction."""

    frame_id: int
    src: int
    dst: int
    size_bytes: int
    direction: str  # "a_to_b" or "b_to_a"
    first_flit_cycle: int
    last_flit_cycle: int


class LinkTracer(Fame1Model):
    """A transparent bump-in-the-wire packet recorder."""

    def __init__(self, name: str) -> None:
        super().__init__(name, ["a", "b"])
        self.records: List[PacketRecord] = []
        self._partial: Dict[str, Tuple[int, int]] = {}  # port -> (first, frame)

    def _forward(
        self, window: TokenWindow, batch: TokenBatch, in_port: str, direction: str
    ) -> TokenBatch:
        out = TokenBatch(window.start, window.length)
        for cycle, flit in batch.iter_flits():
            out.add(cycle, flit)
            key = in_port
            if key not in self._partial:
                self._partial[key] = (cycle, id(flit.data))
            if flit.last:
                first_cycle, _ = self._partial.pop(key)
                frame = flit.data
                if isinstance(frame, EthernetFrame):
                    self.records.append(
                        PacketRecord(
                            frame_id=frame.frame_id,
                            src=frame.src,
                            dst=frame.dst,
                            size_bytes=frame.size_bytes,
                            direction=direction,
                            first_flit_cycle=first_cycle,
                            last_flit_cycle=cycle,
                        )
                    )
                    sink = get_trace_sink()
                    if sink.enabled:
                        sink.target_span(
                            direction, "net", first_cycle, cycle,
                            track=f"tracer.{self.name}",
                            args={"frame": frame.frame_id,
                                  "bytes": frame.size_bytes},
                        )
        return out

    def _tick(self, window, inputs):
        return {
            "b": self._forward(window, inputs["a"], "a", "a_to_b"),
            "a": self._forward(window, inputs["b"], "b", "b_to_a"),
        }

    def idle_horizon(self) -> Optional[int]:
        """A tracer never acts without input.

        Forwarding two empty windows touches neither the packet log nor
        the partial-packet state, so quiet rounds need no tick;
        subclasses with custom forwarding tick every round.
        """
        if (
            type(self)._tick is not LinkTracer._tick
            or type(self)._forward is not LinkTracer._forward
        ):
            return self.current_cycle
        return None

    def packets(self, direction: Optional[str] = None) -> List[PacketRecord]:
        if direction is None:
            return list(self.records)
        return [r for r in self.records if r.direction == direction]


def splice_tracer(
    sim: Simulation,
    model_a: Fame1Model,
    port_a: str,
    model_b: Fame1Model,
    port_b: str,
    latency_cycles: int,
    name: str = "tracer",
) -> LinkTracer:
    """Connect two ports through a tracer without changing total latency.

    The tracer takes the place of a direct ``latency_cycles`` link by
    splitting it into two half-latency hops.  Odd latencies are rejected
    (splitting them would skew cycle arithmetic by one).
    """
    if latency_cycles % 2 != 0:
        raise ValueError(
            f"cannot splice a tracer into an odd link latency "
            f"({latency_cycles}); use an even latency"
        )
    half = latency_cycles // 2
    tracer = LinkTracer(name)
    sim.add_model(tracer)
    sim.connect(model_a, port_a, tracer, "a", half)
    sim.connect(tracer, "b", model_b, port_b, half)
    return tracer
