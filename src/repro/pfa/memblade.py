"""The memory blade: a bare-metal page server on a Rocket core.

"The memory blade itself is implemented as another Rocket core running a
bare-metal memory server accessed through a custom network protocol"
(Section VI).  This module attaches that server to a simulated blade so
the remote-memory protocol can be exercised end-to-end over the
cycle-exact token network, and provides the client the Figure 11
experiment (:func:`repro.experiments.fig11_pfa.memblade_fetch`) uses to
check :class:`~repro.pfa.remote.AnalyticRemoteMemory`'s closed-form
latency against the measured path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.net.ethernet import EthernetFrame, HEADER_BYTES, MTU_BYTES
from repro.pfa.remote import PAGE_BYTES
from repro.swmodel.server import ServerBlade

#: Custom protocol opcodes.
OP_GET = "pfa-get"
OP_DATA = "pfa-data"

#: A 4 KiB page spans multiple MTU frames.
_PAGE_CHUNKS = -(-PAGE_BYTES // MTU_BYTES)


@dataclass
class MemoryBladeStats:
    gets: int = 0


def attach_memory_blade_server(
    blade: ServerBlade, processing_cycles: int = 1500
) -> MemoryBladeStats:
    """Install the bare-metal memory server on a blade.

    The server answers GETs with the page streamed back as MTU-sized
    frames.  ``processing_cycles`` models the Rocket core's request
    parse + local memory access before the reply starts.
    """
    stats = MemoryBladeStats()

    def handler(cycle: int, frame: EthernetFrame) -> None:
        payload = frame.payload
        if not (isinstance(payload, tuple) and payload):
            return
        if payload[0] == OP_GET:
            _, page, requester_tag = payload
            stats.gets += 1
            reply_at = cycle + processing_cycles
            remaining = PAGE_BYTES
            for chunk in range(_PAGE_CHUNKS):
                chunk_bytes = min(remaining, MTU_BYTES)
                remaining -= chunk_bytes
                blade.nic.post_send(
                    reply_at,
                    EthernetFrame(
                        src=blade.mac,
                        dst=frame.src,
                        size_bytes=chunk_bytes + HEADER_BYTES,
                        payload=(
                            OP_DATA, page, chunk, _PAGE_CHUNKS,
                            requester_tag,
                        ),
                    ),
                )

    blade.kernel.register_raw_handler(handler)
    return stats


class MemoryBladeClient:
    """Compute-node side of the custom protocol (bare-metal).

    Issues GET frames through the node's NIC and reports per-page
    completion cycles via callbacks.
    """

    def __init__(self, blade: ServerBlade, memblade_mac: int) -> None:
        self.blade = blade
        self.memblade_mac = memblade_mac
        self._next_tag = 0
        self._pending_get: Dict[int, Tuple[set, Callable[[int, int], None]]] = {}
        blade.kernel.register_raw_handler(self._on_frame)

    def get_page(
        self, cycle: int, page: int, on_done: Callable[[int, int], None]
    ) -> None:
        """Fetch a page; ``on_done(completion_cycle, page)`` fires when
        the last data chunk has arrived."""
        tag = self._next_tag
        self._next_tag += 1
        self._pending_get[tag] = (set(range(_PAGE_CHUNKS)), on_done)
        self.blade.nic.post_send(
            cycle,
            EthernetFrame(
                src=self.blade.mac,
                dst=self.memblade_mac,
                size_bytes=64,
                payload=(OP_GET, page, tag),
            ),
        )

    def _on_frame(self, cycle: int, frame: EthernetFrame) -> None:
        payload = frame.payload
        if not (isinstance(payload, tuple) and payload):
            return
        if payload[0] == OP_DATA:
            _, page, chunk, _total, tag = payload
            entry = self._pending_get.get(tag)
            if entry is None:
                return
            outstanding, on_done = entry
            outstanding.discard(chunk)
            if not outstanding:
                del self._pending_get[tag]
                on_done(cycle, page)
