"""FireSim reproduction: cycle-exact scale-out system simulation.

A pure-Python reproduction of *FireSim: FPGA-Accelerated Cycle-Exact
Scale-Out System Simulation in the Public Cloud* (Karandikar et al.,
ISCA 2018).  See DESIGN.md for the system inventory and the hardware
substitutions, and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import FireSimManager, two_tier

    manager = FireSimManager(two_tier(num_racks=2, servers_per_rack=4))
    manager.buildafi()
    manager.launchrunfarm()
    sim = manager.infrasetup()
    # attach workloads to sim.blade(i), then manager.runworkload(...)

The public API re-exports the pieces most users need; subpackages hold
the full system:

* :mod:`repro.core` — tokens, links, FAME-1 models, the orchestrator;
* :mod:`repro.net` — Ethernet, the switch model, host transports;
* :mod:`repro.tile` — Rocket Chip SoC timing models (Table I/II);
* :mod:`repro.nic` / :mod:`repro.blockdev` — the custom peripherals;
* :mod:`repro.swmodel` — kernel/scheduler/netstack + applications;
* :mod:`repro.pfa` — the Page-Fault Accelerator case study;
* :mod:`repro.host` — EC2 F1 platform, cost, and performance models;
* :mod:`repro.manager` — topology DSL, mapper, build/run farms;
* :mod:`repro.experiments` — one module per paper table/figure.
"""

class ReproError(Exception):
    """Base for every user-facing error raised by the reproduction.

    Catching ``ReproError`` is enough to handle any failure the system
    reports deliberately — configuration mistakes, lifecycle misuse,
    injected faults, checkpoint mismatches.  Defined before the imports
    below so submodules may ``from repro import ReproError`` while this
    package is still initializing.
    """


class ConfigError(ReproError, ValueError):
    """A user-supplied configuration is invalid.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working while new code can catch :class:`ReproError`.
    """


from repro.core.clock import DEFAULT_CLOCK, TargetClock
from repro.core.fame import Fame1Model, Fame5Multiplexer
from repro.core.simulation import Simulation
from repro.core.token import Flit, TokenBatch, TokenWindow
from repro.core.channel import TokenStarvationError
from repro.faults.checkpoint import (
    ReplayCheckpoint,
    SimulationSnapshot,
    state_digest,
)
from repro.faults.plan import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceStats,
)
from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.faults.watchdog import TokenWatchdog
from repro.host.costs import cost_report
from repro.host.perfmodel import SimulationRateModel
from repro.manager.manager import FireSimManager
from repro.manager.runfarm import RunFarmConfig, RunningSimulation, elaborate
from repro.manager.runspec import RunSpec
from repro.manager.topology import (
    ServerNode,
    SwitchNode,
    datacenter_tree,
    single_rack,
    two_tier,
)
from repro.manager.workload import Job, WorkloadSpec, run_workload
from repro.net.ethernet import EthernetFrame, mac_address
from repro.net.switch import SwitchConfig, SwitchModel
from repro.nic.nic import NIC, NICConfig
from repro.swmodel.server import ServerBlade
from repro.tile.soc import NAMED_CONFIGS, RocketChipConfig, config_by_name

__version__ = "1.0.0"

__all__ = [
    "CircuitBreaker",
    "ConfigError",
    "DEFAULT_CLOCK",
    "EthernetFrame",
    "Fame1Model",
    "Fame5Multiplexer",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FireSimManager",
    "Flit",
    "Job",
    "NAMED_CONFIGS",
    "NIC",
    "NICConfig",
    "ReplayCheckpoint",
    "ReproError",
    "ResilienceStats",
    "RetryPolicy",
    "RocketChipConfig",
    "RunFarmConfig",
    "RunSpec",
    "RunningSimulation",
    "ServerBlade",
    "ServerNode",
    "Simulation",
    "SimulationRateModel",
    "SimulationSnapshot",
    "SwitchConfig",
    "SwitchModel",
    "SwitchNode",
    "TargetClock",
    "TokenBatch",
    "TokenStarvationError",
    "TokenWatchdog",
    "TokenWindow",
    "WorkloadSpec",
    "state_digest",
    "config_by_name",
    "cost_report",
    "datacenter_tree",
    "elaborate",
    "mac_address",
    "run_workload",
    "single_rack",
    "two_tier",
]
