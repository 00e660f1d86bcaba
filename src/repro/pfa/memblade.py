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
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.ethernet import EthernetFrame, HEADER_BYTES, MTU_BYTES
from repro.pfa.remote import PAGE_BYTES
from repro.swmodel.server import ServerBlade

#: Custom protocol opcodes.
OP_GET = "pfa-get"
OP_PUT = "pfa-put"
OP_DATA = "pfa-data"
OP_ACK = "pfa-ack"

#: A 4 KiB page spans multiple MTU frames.
_PAGE_CHUNKS = -(-PAGE_BYTES // MTU_BYTES)


@dataclass
class MemoryBladeStats:
    gets: int = 0
    puts: int = 0
    pages_stored: int = 0


def attach_memory_blade_server(
    blade: ServerBlade, processing_cycles: int = 1500
) -> MemoryBladeStats:
    """Install the bare-metal memory server on a blade.

    The server keeps a functional page store (page id -> generation tag)
    and answers GETs with the page streamed back as MTU-sized frames and
    PUTs with a small ACK.  ``processing_cycles`` models the Rocket
    core's request parse + local memory access before the reply starts.
    """
    stats = MemoryBladeStats()
    store: Dict[int, int] = {}

    def handler(cycle: int, frame: EthernetFrame) -> None:
        payload = frame.payload
        if not (isinstance(payload, tuple) and payload):
            return
        op = payload[0]
        if op == OP_GET:
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
                            OP_DATA,
                            page,
                            chunk,
                            _PAGE_CHUNKS,
                            requester_tag,
                            store.get(page, 0),
                        ),
                    ),
                )
        elif op == OP_PUT:
            _, page, generation = payload
            stats.puts += 1
            store[page] = generation
            stats.pages_stored = len(store)
            blade.nic.post_send(
                cycle + processing_cycles,
                EthernetFrame(
                    src=blade.mac,
                    dst=frame.src,
                    size_bytes=64,
                    payload=(OP_ACK, page),
                ),
            )

    blade.kernel.register_raw_handler(handler)
    return stats


class MemoryBladeClient:
    """Compute-node side of the custom protocol (bare-metal).

    Issues GET/PUT frames through the node's NIC and reports per-page
    completion cycles via callbacks.
    """

    def __init__(self, blade: ServerBlade, memblade_mac: int) -> None:
        self.blade = blade
        self.memblade_mac = memblade_mac
        self._next_tag = 0
        self._pending_get: Dict[int, Tuple[set, Callable[[int, int], None]]] = {}
        self._pending_put: List[Callable[[int, int], None]] = []
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

    def put_page(
        self,
        cycle: int,
        page: int,
        generation: int,
        on_done: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Evict a page to the blade (page data + metadata frames)."""
        remaining = PAGE_BYTES
        for _chunk in range(_PAGE_CHUNKS - 1):
            self.blade.nic.post_send(
                cycle,
                EthernetFrame(
                    src=self.blade.mac,
                    dst=self.memblade_mac,
                    size_bytes=MTU_BYTES + HEADER_BYTES,
                    payload=("pfa-put-data", page),
                ),
            )
            remaining -= MTU_BYTES
        self.blade.nic.post_send(
            cycle,
            EthernetFrame(
                src=self.blade.mac,
                dst=self.memblade_mac,
                size_bytes=remaining + HEADER_BYTES,
                payload=(OP_PUT, page, generation),
            ),
        )
        if on_done is not None:
            self._pending_put.append(on_done)

    def _on_frame(self, cycle: int, frame: EthernetFrame) -> None:
        payload = frame.payload
        if not (isinstance(payload, tuple) and payload):
            return
        if payload[0] == OP_DATA:
            _, page, chunk, _total, tag, _generation = payload
            entry = self._pending_get.get(tag)
            if entry is None:
                return
            outstanding, on_done = entry
            outstanding.discard(chunk)
            if not outstanding:
                del self._pending_get[tag]
                on_done(cycle, page)
        elif payload[0] == OP_ACK and self._pending_put:
            on_done = self._pending_put.pop(0)
            on_done(cycle, payload[1])
