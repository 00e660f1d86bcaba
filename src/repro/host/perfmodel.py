"""Host performance model: simulation rate vs scale and batch size.

Without an F1 fleet we cannot *measure* wall-clock simulation rate, so —
per the substitution rules in DESIGN.md — this module models it.  The
model follows the structure of the distributed simulation (Section
III-B2):

* simulation advances in rounds of one link latency ``l`` (FireSim
  always sets the token batch size to the target link latency);
* because exactly ``l`` tokens are in flight per link direction, batch
  production and consumption alternate: a round's wall-clock time is the
  *serial chain* of moving one batch through the platform — FPGA
  computes ``l`` target cycles, PCIe/EDMA moves the batch out and back
  (x4 payload for supernodes), shared memory hops to the local switch,
  the switch ticks ``l`` tokens per port (OpenMP-parallel across ports
  up to the host's thread budget, plus per-port sync), and inter-host
  switch links add TCP socket hops;
* simulation rate is ``l / round_time``, capped by the FPGA simulation
  clock.

This reproduces the paper's two shapes: rate falls with scale (bigger
switches, host-Ethernet crossings — Figure 8) and rises with target link
latency as fixed per-round costs amortize over bigger batches, then
saturates (Figure 9).  Token movement is workload-independent because
FireSim does not compress empty tokens (Section V-A).

Calibration anchor: the 1024-node supernode datacenter simulates at
3.42 MHz (Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.clock import DEFAULT_CLOCK, TargetClock
from repro.net.transport import (
    PCIE_EDMA,
    SHM,
    TCP_SOCKET,
    TransportSpec,
    tokens_to_bytes,
)


@dataclass(frozen=True)
class HostPerfConfig:
    """Calibration constants for the host platform.

    Attributes:
        fpga_sim_hz: maximum simulation clock of one FAME-1 node on the
            FPGA ("10s to 100s of MHz", Section I).
        switch_token_ns: host-CPU time to tick one token through one
            switch port in the C++ model.
        switch_threads: host threads available to one switch model's
            OpenMP port loops.
        port_sync_us: per-port per-round thread coordination cost.
        pcie / shm / socket: transport envelopes (Section III-B2).
    """

    fpga_sim_hz: float = 40e6
    switch_token_ns: float = 30.0
    switch_threads: int = 16
    port_sync_us: float = 29.5
    pcie: TransportSpec = PCIE_EDMA
    shm: TransportSpec = SHM
    socket: TransportSpec = TCP_SOCKET


@dataclass(frozen=True)
class SwitchPlacement:
    """One switch model's share of the host platform.

    Attributes:
        ports: total ports on the switch.
        ports_over_socket: how many ports reach their peer over host
            Ethernet (TCP) rather than shared memory/PCIe.
    """

    ports: int
    ports_over_socket: int = 0

    def __post_init__(self) -> None:
        if self.ports < 1:
            raise ValueError("switch needs at least one port")
        if not 0 <= self.ports_over_socket <= self.ports:
            raise ValueError("socket port count out of range")


@dataclass(frozen=True)
class RateEstimate:
    """Predicted simulation rate and its bottleneck."""

    rate_hz: float
    bottleneck: str
    stage_times_s: Dict[str, float]

    @property
    def rate_mhz(self) -> float:
        return self.rate_hz / 1e6

    def slowdown_vs_target(self, target_hz: float) -> float:
        """How many times slower than the target machine (e.g. 3.2 GHz)."""
        return target_hz / self.rate_hz

    def prediction_error(self, measured_hz: float) -> float:
        """Signed relative error of this prediction vs a measured rate.

        ``measured_hz`` typically comes from a live
        :class:`repro.obs.rate.RateMonitor` report; positive means the
        model over-predicted.
        """
        if measured_hz <= 0.0:
            raise ValueError("measured rate must be positive")
        return (self.rate_hz - measured_hz) / measured_hz


class SimulationRateModel:
    """Analytic round-time model of the distributed token simulation."""

    def __init__(
        self,
        config: Optional[HostPerfConfig] = None,
        clock: TargetClock = DEFAULT_CLOCK,
    ) -> None:
        self.config = config or HostPerfConfig()
        self.clock = clock

    # -- core ----------------------------------------------------------

    def _switch_chain_s(self, l: int, placement: SwitchPlacement) -> float:
        """One switch's share of the round: port ticking + socket hops."""
        cfg = self.config
        parallelism = min(placement.ports, cfg.switch_threads)
        tick = l * placement.ports * cfg.switch_token_ns * 1e-9 / parallelism
        sync = placement.ports * cfg.port_sync_us * 1e-6
        chain = tick + sync
        if placement.ports_over_socket:
            batch_bytes = tokens_to_bytes(l)
            chain += 2 * cfg.socket.batch_move_time_s(
                batch_bytes * placement.ports_over_socket
            )
        return chain

    def estimate(
        self,
        link_latency_cycles: int,
        switches: Sequence[SwitchPlacement],
        blades_per_fpga: int = 1,
    ) -> RateEstimate:
        """Steady-state simulation rate for one mapped target design."""
        if link_latency_cycles < 1:
            raise ValueError("link latency must be >= 1 cycle")
        cfg = self.config
        l = link_latency_cycles
        batch_bytes = tokens_to_bytes(l)
        stages: Dict[str, float] = {
            "fpga": l / cfg.fpga_sim_hz,
            "pcie": 2 * cfg.pcie.batch_move_time_s(batch_bytes * blades_per_fpga),
            "shm": 2 * cfg.shm.batch_move_time_s(batch_bytes),
        }
        if switches:
            chains = {
                f"switch{i}": self._switch_chain_s(l, p)
                for i, p in enumerate(switches)
            }
            worst = max(chains, key=lambda k: chains[k])
            stages[worst] = chains[worst]
        round_time = sum(stages.values())
        bottleneck = max(stages, key=lambda k: stages[k])
        rate = min(l / round_time, cfg.fpga_sim_hz)
        return RateEstimate(
            rate_hz=rate, bottleneck=bottleneck, stage_times_s=stages
        )

    # -- convenience topologies ---------------------------------------

    def cluster_rate(
        self,
        num_nodes: int,
        link_latency_cycles: int = 6400,
        supernode: bool = False,
    ) -> RateEstimate:
        """Rate for a cluster mapped the way the manager maps it.

        Nodes fill racks of one f1.16xlarge each (8 nodes standard, 32
        supernode) with the ToR model on the rack's host; racks beyond
        eight per aggregation group add aggregation switches, and
        multiple groups add a root switch, all on m4 hosts (Figure 10).
        """
        if num_nodes < 1:
            raise ValueError("need at least one node")
        blades = 4 if supernode else 1
        per_rack = 8 * blades
        racks = -(-num_nodes // per_rack)
        switches: List[SwitchPlacement] = []
        if num_nodes == 1:
            # A single node has no network simulation at all: the rate is
            # FPGA- and PCIe-bound ("10s to 100s of MHz").
            pass
        elif racks == 1:
            switches.append(SwitchPlacement(ports=min(num_nodes, per_rack)))
        else:
            agg_groups = -(-racks // 8)
            for _ in range(racks):
                switches.append(
                    SwitchPlacement(ports=per_rack + 1, ports_over_socket=1)
                )
            if agg_groups == 1:
                switches.append(
                    SwitchPlacement(ports=racks, ports_over_socket=racks)
                )
            else:
                for _ in range(agg_groups):
                    switches.append(
                        SwitchPlacement(ports=8 + 1, ports_over_socket=9)
                    )
                switches.append(
                    SwitchPlacement(
                        ports=agg_groups, ports_over_socket=agg_groups
                    )
                )
        return self.estimate(link_latency_cycles, switches, blades_per_fpga=blades)

    def datacenter_rate(
        self,
        num_racks: int = 32,
        nodes_per_rack: int = 32,
        racks_per_aggregation: int = 8,
        link_latency_cycles: int = 6400,
        supernode: bool = True,
    ) -> RateEstimate:
        """Rate for the Figure 10 tree (ToR / aggregation / root)."""
        if num_racks % racks_per_aggregation != 0:
            raise ValueError("racks must divide evenly into agg switches")
        num_agg = num_racks // racks_per_aggregation
        switches: List[SwitchPlacement] = []
        for _ in range(num_racks):
            switches.append(
                SwitchPlacement(ports=nodes_per_rack + 1, ports_over_socket=1)
            )
        for _ in range(num_agg):
            switches.append(
                SwitchPlacement(
                    ports=racks_per_aggregation + 1,
                    ports_over_socket=racks_per_aggregation + 1,
                )
            )
        switches.append(
            SwitchPlacement(ports=num_agg, ports_over_socket=num_agg)
        )
        return self.estimate(
            link_latency_cycles,
            switches,
            blades_per_fpga=4 if supernode else 1,
        )


def exchange_quantum(
    latency_floor: Optional[int], quantum: int
) -> int:
    """Largest exchange window the token protocol permits, in cycles.

    The distributed engine exchanges boundary tokens every
    ``round_quantum`` cycles; correctness requires that window to stay
    within the partition's boundary link-latency floor (link priming
    keeps exactly ``latency`` tokens in flight per direction, so a
    worker may run at most that far ahead of an unheard-from peer).
    Figure 9's lever is maximizing the batch under that cap: this
    returns the largest multiple of ``quantum`` that fits under
    ``latency_floor``, or ``quantum`` itself when there is no floor
    (no boundaries) or no headroom.
    """
    if quantum < 1:
        raise ValueError(f"quantum must be positive, got {quantum}")
    if latency_floor is None or latency_floor <= quantum:
        return quantum
    return (latency_floor // quantum) * quantum
