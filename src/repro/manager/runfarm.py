"""Run farm: elaborating a topology into a live simulation.

This is the manager step that, on real FireSim, flashes FPGAs and starts
switch models and simulation controllers (Section III-B3).  Here it
elaborates the *functional* cycle-exact simulation:

* every :class:`~repro.manager.topology.ServerNode` becomes a
  :class:`~repro.swmodel.server.ServerBlade` with an automatically
  assigned node index, MAC, and IP address;
* every :class:`~repro.manager.topology.SwitchNode` becomes a
  :class:`~repro.net.switch.SwitchModel` whose static MAC table is
  populated from the topology (each downlink port maps to the MACs in
  that subtree; unknown MACs go to the uplink port);
* links are created with the runtime-configured latency — changing
  latency, bandwidth, or blade selection requires no "resynthesis",
  mirroring the real flow where only RTL changes rebuild FPGA images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import ConfigError
from repro.core.clock import TargetClock
from repro.core.simulation import ENGINES, Simulation
from repro.manager.topology import ServerNode, SwitchNode, validate_topology
from repro.net.ethernet import mac_address
from repro.net.switch import SwitchConfig, SwitchModel
from repro.swmodel.netstack import NetStackCosts
from repro.swmodel.sched import SchedulerConfig
from repro.swmodel.server import ServerBlade


@dataclass(frozen=True)
class RunFarmConfig:
    """Runtime-configurable network and software parameters.

    All of these can change between runs without rebuilding anything
    (Section I: "network latency, bandwidth, network topology, and blade
    selection can all be configured at runtime").
    """

    link_latency_cycles: int = 6400  # 2 us at 3.2 GHz
    #: Latency for blade <-> switch links only; None (default) uses
    #: ``link_latency_cycles`` everywhere.  Setting these apart makes
    #: the topology latency-heterogeneous, which in a distributed run
    #: exercises the adaptive round quantum: the exchange window is
    #: derived from the partition's *smallest* boundary-link latency,
    #: so short server links with long switch trunks still batch
    #: correctly (paper Fig 9).
    server_link_latency_cycles: Optional[int] = None
    switch_latency_cycles: int = 10
    switch_buffer_flits: int = 16384
    freq_hz: float = 3.2e9
    net_costs: Optional[NetStackCosts] = None
    sched_config: Optional[SchedulerConfig] = None
    #: Round-loop implementation: "scalar" (the reference oracle) or
    #: "batched" (:mod:`repro.perf` — bit-identical, faster on the
    #: host).  Living here means checkpoint-restore re-elaborations
    #: resume with the same engine automatically.
    engine: str = "scalar"

    def __post_init__(self) -> None:
        if self.link_latency_cycles < 1:
            raise ConfigError("link latency must be >= 1 cycle")
        if (
            self.server_link_latency_cycles is not None
            and self.server_link_latency_cycles < 1
        ):
            raise ConfigError("server link latency must be >= 1 cycle")
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )


class RunningSimulation:
    """A deployed target cluster: the user-facing handle.

    Exposes the blades (to attach workloads — the moral equivalent of
    SSHing into simulated nodes), the switches (for counters/probes),
    and the underlying :class:`~repro.core.simulation.Simulation`.
    """

    def __init__(
        self,
        simulation: Simulation,
        blades: Dict[int, ServerBlade],
        switches: Dict[int, SwitchModel],
        root: SwitchNode,
        config: RunFarmConfig,
    ) -> None:
        self.simulation = simulation
        self.blades = blades
        self.switches = switches
        self.root = root
        self.config = config

    def blade(self, node_index: int) -> ServerBlade:
        try:
            return self.blades[node_index]
        except KeyError:
            raise LookupError(f"no simulated node {node_index}") from None

    def switch(self, switch_id: int) -> SwitchModel:
        try:
            return self.switches[switch_id]
        except KeyError:
            raise LookupError(f"no simulated switch {switch_id}") from None

    @property
    def num_nodes(self) -> int:
        return len(self.blades)

    def run_seconds(self, seconds: float) -> None:
        self.simulation.run_seconds(seconds)

    def run_cycles(self, cycles: int) -> None:
        self.simulation.run_cycles(cycles)

    def collect_results(self) -> Dict[int, Dict[str, list]]:
        """Per-node measurement stores (the manager's result collection)."""
        return {
            index: dict(blade.results) for index, blade in self.blades.items()
        }


def elaborate(
    root: SwitchNode, config: Optional[RunFarmConfig] = None
) -> RunningSimulation:
    """Build the cycle-exact simulation for a topology."""
    config = config or RunFarmConfig()
    validate_topology(root)
    clock = TargetClock(config.freq_hz)
    simulation = Simulation(clock=clock, engine=config.engine)

    # Assign node indices / MACs / IPs deterministically.
    servers = list(root.iter_servers())
    blades: Dict[int, ServerBlade] = {}
    for index, server in enumerate(servers):
        server.node_index = index
        server.mac = mac_address(index)
        server.ip = f"10.{(index >> 16) & 0xFF}.{(index >> 8) & 0xFF}.{index & 0xFF}"
        blade = ServerBlade(
            name=f"node{index}",
            config=server.server_type,
            mac=server.mac,
            node_index=index,
            net_costs=config.net_costs,
            sched_config=config.sched_config,
            seed=index,
        )
        blades[index] = blade

    for blade in blades.values():
        simulation.add_model(blade)

    # Build switches with static MAC tables from the topology.
    switches: Dict[int, SwitchModel] = {}
    for switch in root.iter_switches():
        mac_table: Dict[int, int] = {}
        for port, child in enumerate(switch.downlinks):
            if isinstance(child, ServerNode):
                mac_table[child.mac] = port
            else:
                for server in child.iter_servers():
                    mac_table[server.mac] = port
        default_port = (
            len(switch.downlinks) if switch.uplink is not None else None
        )
        model = SwitchModel(
            name=f"switch{switch.switch_id}",
            config=SwitchConfig(
                num_ports=switch.num_ports,
                min_latency_cycles=config.switch_latency_cycles,
                buffer_flits=config.switch_buffer_flits,
            ),
            mac_table=mac_table,
            default_port=default_port,
        )
        simulation.add_model(model)
        switches[switch.switch_id] = model

    # Wire the links.
    server_latency = (
        config.server_link_latency_cycles
        if config.server_link_latency_cycles is not None
        else config.link_latency_cycles
    )
    for switch in root.iter_switches():
        model = switches[switch.switch_id]
        for port, child in enumerate(switch.downlinks):
            if isinstance(child, ServerNode):
                simulation.connect(
                    blades[child.node_index],
                    "net",
                    model,
                    f"port{port}",
                    server_latency,
                )
            else:
                child_model = switches[child.switch_id]
                uplink_port = len(child.downlinks)
                simulation.connect(
                    child_model,
                    f"port{uplink_port}",
                    model,
                    f"port{port}",
                    config.link_latency_cycles,
                )

    return RunningSimulation(simulation, blades, switches, root, config)
