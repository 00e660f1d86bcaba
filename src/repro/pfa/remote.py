"""Remote memory access models (Section VI).

In the paper's disaggregated-memory case study, the memory blade is
another Rocket core running a bare-metal memory server reached over the
custom network protocol; compute nodes page 4 KiB pages to/from it.

The remote path is modelled twice:

* :class:`AnalyticRemoteMemory` — closed-form fetch/evict latency derived
  from the network parameters (link latency, switching latency, link
  bandwidth) plus the memory server's per-request processing.  This is
  what the Figure 11 sweep uses: the page-fault path is node-local and
  only needs the remote latency constant.
* :func:`~repro.pfa.memblade.attach_memory_blade_server` and
  :class:`~repro.pfa.memblade.MemoryBladeClient` — a real bare-metal
  server attached to a simulated blade and its compute-node client,
  exercised through the full token-exact network.  Every Figure 11 run
  fetches one page this way to check the analytic constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import units

PAGE_BYTES = 4096


@dataclass(frozen=True)
class RemoteMemoryParams:
    """Network + server parameters for the remote-memory path.

    Defaults follow the evaluation's network (2 us, 200 Gbit/s links)
    with the memory blade attached point-to-point (``hops = 0``); set
    ``hops = 1`` for a compute node and memory blade behind a shared ToR.
    """

    link_latency_cycles: int = 6400
    switch_latency_cycles: int = 10
    hops: int = 0
    freq_hz: float = 3.2e9
    flit_bytes: int = units.FLIT_BYTES
    #: Memory server: bare-metal request parse + local DRAM read of a page.
    server_request_cycles: int = 1500
    #: Request message size (page id + protocol header).
    request_bytes: int = 64

    @property
    def one_way_cycles(self) -> int:
        """NIC-to-NIC one-way latency through ``hops`` switches."""
        return (self.hops + 1) * self.link_latency_cycles + (
            self.hops * self.switch_latency_cycles
        )

    @property
    def page_transfer_cycles(self) -> int:
        """Serialization of one 4 KiB page at one flit per cycle."""
        return units.flits_for_bytes(PAGE_BYTES, self.flit_bytes)


class AnalyticRemoteMemory:
    """Closed-form remote page fetch/evict latency."""

    def __init__(self, params: RemoteMemoryParams | None = None) -> None:
        self.params = params or RemoteMemoryParams()
        self.pages_fetched = 0
        self.pages_evicted = 0

    def fetch_latency_cycles(self) -> int:
        """Request out + server processing + page back (store-and-forward
        adds the page's serialization once per hop; we charge it once,
        matching the cut-through-ish pipeline of the NIC + single ToR)."""
        p = self.params
        request = p.one_way_cycles + units.flits_for_bytes(p.request_bytes)
        response = p.one_way_cycles + p.page_transfer_cycles
        return request + p.server_request_cycles + response

    def evict_latency_cycles(self) -> int:
        """Pushing a page out; the OS does this asynchronously, so only
        the local serialization occupies the faulting node."""
        return self.params.page_transfer_cycles

    def fetch(self, cycle: int, page: int) -> int:
        """Issue a fetch at ``cycle``; returns its completion cycle."""
        self.pages_fetched += 1
        return cycle + self.fetch_latency_cycles()

    def evict(self, cycle: int, page: int) -> int:
        self.pages_evicted += 1
        return cycle + self.evict_latency_cycles()
