"""Server blade: the FAME-1 simulation endpoint for one target server.

A blade bundles the elaborated SoC (cores/caches/DRAM), the NIC, the
block device, and the kernel model, and exposes a single FAME-1 ``net``
port carrying one token per target cycle (Section III-A: the "FAME-1
Rocket Chip" box of Figure 2 plus its NIC simulation endpoint).

Per token window the blade:

1. feeds the input tokens to the NIC receive path (packet buffer, writer
   DMA, completion interrupts);
2. runs its deterministic event queue — scheduler dispatches, softirq
   work, application effects — up to the window's end;
3. drains the NIC send path into the output token window, paced by the
   rate limiter.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.blockdev.controller import BlockDeviceConfig, BlockDeviceController
from repro.core.events import EventQueue
from repro.core.fame import Fame1Model
from repro.core.token import TokenBatch, TokenWindow
from repro.net.ethernet import mac_address
from repro.nic.nic import NIC, NICConfig
from repro.swmodel.kernel import Kernel, ThreadAPI
from repro.swmodel.netstack import NetStackCosts
from repro.swmodel.process import Thread, ThreadBody
from repro.swmodel.sched import SchedulerConfig
from repro.tile.soc import RocketChipConfig, SoC, config_by_name
from repro.tile.uart import UART, UARTConfig


class ServerBlade(Fame1Model):
    """One simulated server: SoC + NIC + block device + booted kernel."""

    def __init__(
        self,
        name: str,
        config: Union[str, RocketChipConfig] = "QuadCore",
        mac: Optional[int] = None,
        node_index: int = 0,
        nic_config: Optional[NICConfig] = None,
        net_costs: Optional[NetStackCosts] = None,
        sched_config: Optional[SchedulerConfig] = None,
        blockdev_config: Optional[BlockDeviceConfig] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(name, ["net"])
        if isinstance(config, str):
            config = config_by_name(config)
        self.config = config
        self.node_index = node_index
        self.mac = mac if mac is not None else mac_address(node_index)
        self.soc: SoC = config.build(seed=seed)
        self.events = EventQueue()
        self.nic = NIC(f"{name}.nic", self.soc.dma_hierarchy, nic_config)
        self.uart = UART(f"{name}.uart", UARTConfig(freq_hz=config.freq_hz))
        self.blockdev = BlockDeviceController(
            f"{name}.blkdev", self.soc.dma_hierarchy, blockdev_config
        )
        self.kernel = Kernel(
            mac=self.mac,
            num_cores=config.num_cores,
            events=self.events,
            nic=self.nic,
            costs=net_costs,
            sched_config=sched_config,
        )
        self.kernel.uart = self.uart
        # Idle-window elision is sound only for the stock tick/NIC paths:
        # with zero input tokens, an empty TX queue, and no event due
        # before the window's end, the tick is provably a no-op (empty
        # receive touches nothing; fill_tx on an empty queue only moves
        # the emit cursor, which the next real fill re-derives via max).
        cls = type(self)
        self._idle_safe = (
            cls._tick is ServerBlade._tick
            and type(self.nic).receive_tokens is NIC.receive_tokens
            and type(self.nic).fill_tx is NIC.fill_tx
        )

    # -- software attachment ---------------------------------------------

    def spawn(
        self,
        name: str,
        body_fn: Callable[[ThreadAPI], ThreadBody],
        pinned_core: Optional[int] = None,
        start_cycle: int = 0,
    ) -> Thread:
        """Start an application thread on this blade's kernel."""
        return self.kernel.spawn(
            name, body_fn, pinned_core=pinned_core, start_cycle=start_cycle
        )

    @property
    def results(self) -> Dict[str, list]:
        """Measurements recorded by application threads."""
        return self.kernel.results

    # -- telemetry ---------------------------------------------------------

    def register_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Register this blade's activity counters under ``blade.<name>.*``.

        Covers the same counters Strober samples: per-core commit stats,
        L1/L2 caches, DRAM, and the NIC.
        """
        prefix = prefix or f"blade.{self.name}"
        for core_id, core in enumerate(self.soc.cores):
            registry.register_source(f"{prefix}.core{core_id}", core.stats)
        for core_id, l1d in enumerate(self.soc.l1ds):
            registry.register_source(f"{prefix}.l1d{core_id}", l1d.stats)
        registry.register_source(f"{prefix}.l2", self.soc.l2.stats)
        registry.register_source(f"{prefix}.dram", self.soc.dram.stats)
        self.nic.register_metrics(registry, f"{prefix}.nic")

    # -- FAME-1 ------------------------------------------------------------

    def _tick(
        self,
        window: TokenWindow,
        inputs: Dict[str, TokenBatch],
        rows: bool = False,
    ) -> Dict[str, TokenBatch]:
        """One window; ``rows`` (batched engine, :attr:`columnar_safe`
        blades only) makes the NIC answer in packet-segment rows."""
        self.nic.receive_tokens(inputs["net"])
        self.events.run_until(window.end)
        if rows:
            return {"net": self.nic.fill_tx(window)}
        out = window.new_batch()
        self.nic.fill_tx(window, out)
        return {"net": out}

    @property
    def columnar_safe(self) -> bool:
        """Whether the batched engine may keep this blade's link columnar.

        True for the stock tick and NIC paths only: the engine then
        hands ``_tick`` input windows in whatever form the link holds
        (``NIC.receive_tokens`` takes rows as they are) and asks for
        rows back.  Subclass overrides get materialized ``TokenBatch``
        windows, like any scalar consumer.
        """
        return self._idle_safe

    def idle_outputs(
        self, window: TokenWindow
    ) -> Optional[Dict[str, TokenBatch]]:
        """All-empty output when the window provably runs no work.

        Quiet blades dominate wall-clock once traffic dies down (the
        Figure 8 runs spend most cycles post-benchmark); a blade whose
        event queue has nothing due before ``window.end`` and whose NIC
        has nothing queued to send skips the tick entirely.
        """
        if not self._idle_safe or self.nic._tx_queue:
            return None
        next_cycle = self.events.next_cycle()
        if next_cycle is not None and next_cycle < window.end:
            return None
        return {"net": window.new_batch()}

    def idle_horizon(self) -> Optional[int]:
        """First cycle this blade acts without input: its next event.

        Nothing else can wake a quiet blade — receives need valid
        tokens, transmits need a prior event or receive — so the event
        queue's head bounds how far the batched engine may fast-forward
        (see :meth:`Fame1Model.idle_outputs`).
        """
        if not self._idle_safe or self.nic._tx_queue:
            return self.current_cycle
        return self.events.next_cycle()
