"""Host-platform token transports.

FireSim moves token batches over three physical transports (Section
III-B2):

* **PCIe (EDMA)** between the FPGA and the simulation controller on the
  host CPU of an F1 instance;
* **shared memory** between a simulation controller and a co-located
  switch model (zero-copy);
* **TCP sockets** between switch models / controllers on different hosts.

In this reproduction, the *functional* token exchange happens in-process
(the :class:`~repro.core.simulation.Simulation` orchestrator) or, between
:mod:`repro.dist` worker processes, over the pipe channels of
:mod:`repro.dist.shm`.  These classes carry only the modeled
*performance* characteristics of each F1 transport: the host latency
and bandwidth that determine how fast a round of the distributed
simulation can complete.  They are consumed by
:mod:`repro.host.perfmodel` to produce the simulation-rate curves of
Figures 8 and 9, and by the manager when it maps links onto hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List

from repro import ConfigError
from repro.core import units


class TransportKind(Enum):
    """The physical transports of Section III-B2."""

    PCIE = "pcie"
    SHARED_MEMORY = "shm"
    SOCKET = "socket"
    LOOPBACK = "loopback"  # endpoints inside the same FPGA (supernode)


@dataclass(frozen=True)
class TransportSpec:
    """Performance envelope of one host transport hop.

    Attributes:
        kind: which physical transport this is.
        one_way_latency_s: fixed host latency to initiate one batch move.
        bandwidth_bytes_per_s: sustained copy bandwidth for batch payloads.
    """

    kind: TransportKind
    one_way_latency_s: float
    bandwidth_bytes_per_s: float

    def batch_move_time_s(self, batch_bytes: int) -> float:
        """Wall-clock host time to move one token batch across this hop."""
        if batch_bytes < 0:
            raise ValueError(f"batch bytes must be >= 0, got {batch_bytes}")
        return self.one_way_latency_s + batch_bytes / self.bandwidth_bytes_per_s


# Calibrated envelopes for the EC2 F1 host platform.  Latencies are the
# dominant term for low-latency target links (Section III-B2: "Since
# latency is the dominant factor, we also do not employ any form of token
# compression").
PCIE_EDMA = TransportSpec(
    kind=TransportKind.PCIE,
    one_way_latency_s=12e-6,
    bandwidth_bytes_per_s=3.0e9,
)

SHM = TransportSpec(
    kind=TransportKind.SHARED_MEMORY,
    one_way_latency_s=1.5e-6,
    bandwidth_bytes_per_s=8.0e9,
)

TCP_SOCKET = TransportSpec(
    kind=TransportKind.SOCKET,
    one_way_latency_s=55e-6,
    bandwidth_bytes_per_s=25e9 / 8,  # 25 Gbit/s instance networking
)

LOOPBACK = TransportSpec(
    kind=TransportKind.LOOPBACK,
    one_way_latency_s=0.0,
    bandwidth_bytes_per_s=float("inf"),
)


@dataclass
class HeartbeatMonitor:
    """Liveness tracking for socket-transport peers.

    Simulation controllers on different hosts exchange token batches
    over TCP; a host that stops answering is indistinguishable from one
    that is merely slow until enough heartbeat intervals pass.  The
    monitor counts consecutive misses per host and declares a host dead
    after ``misses_to_dead`` of them, at which point the manager
    quarantines it and remaps its blades.

    Attributes:
        spec: the transport the heartbeats travel over (sets the floor
            on detection latency).
        interval_s: heartbeat period.
        misses_to_dead: consecutive missed beats before a host is
            declared dead.
    """

    spec: TransportSpec = TCP_SOCKET
    interval_s: float = 1.0
    misses_to_dead: int = 3
    _misses: Dict[str, int] = field(default_factory=dict, repr=False)
    dead: List[str] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigError(
                f"heartbeat interval must be > 0, got {self.interval_s}"
            )
        if self.misses_to_dead < 1:
            raise ConfigError(
                f"misses_to_dead must be >= 1, got {self.misses_to_dead}"
            )

    def beat(self, host: str) -> None:
        """A heartbeat arrived; the host's consecutive-miss count resets."""
        self._misses.pop(host, None)

    def miss(self, host: str) -> bool:
        """One heartbeat interval passed silently; True if host now dead."""
        if host in self.dead:
            return True
        count = self._misses.get(host, 0) + 1
        self._misses[host] = count
        if count >= self.misses_to_dead:
            self.dead.append(host)
            return True
        return False

    def misses(self, host: str) -> int:
        return self._misses.get(host, 0)

    def is_dead(self, host: str) -> bool:
        return host in self.dead

    @property
    def detection_latency_s(self) -> float:
        """Worst-case time from silent death to declared-dead.

        A host can die right after a beat, so detection takes the full
        ``misses_to_dead`` intervals plus one heartbeat's transport time.
        """
        return (
            self.misses_to_dead * self.interval_s
            + self.spec.one_way_latency_s
        )


def tokens_to_bytes(token_count: int, flit_bytes: int = units.FLIT_BYTES) -> int:
    """Host bytes occupied by a batch of tokens.

    Each token moves its 64-bit payload plus one metadata byte (valid +
    last bits, padded); FireSim does not compress empty tokens, so a batch
    always occupies ``latency`` tokens regardless of traffic.
    """
    if token_count < 0:
        raise ValueError(f"token count must be >= 0, got {token_count}")
    return token_count * (flit_bytes + 1)
