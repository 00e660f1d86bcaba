"""Zero-copy shared-memory ring: the one channel between worker processes.

Co-located endpoints in FireSim exchange tokens over one shared-memory
hop (paper Section III-B2); :class:`ShmRing` is that hop between
:mod:`repro.dist` workers.  It is one ``multiprocessing.shared_memory``
segment per directed worker pair, laid out as a byte ring with two
monotonic cursors (Switchboard-style single-producer single-consumer
queues; Herbst et al., 2024):

* bytes ``[0, 8)``  — write cursor: total bytes ever published;
* bytes ``[8, 16)`` — read cursor: total bytes ever consumed;
* bytes ``[16, 16 + capacity)`` — the data ring.

The producer copies a message into the ring *first* and publishes the
write cursor *after* (payload-then-publish), so a reader that observes
``write - read >= n`` may safely copy ``n`` bytes out.  Cursors are
aligned 8-byte stores through a ``memoryview`` cast of the mapped
segment — atomic on every platform CPython runs multiprocessing on —
and each side only ever writes its own cursor, so no locks are needed.

Message arrival is signalled through a per-ring POSIX semaphore (one
post per published message, one wait per consumed one): workers
outnumber cores on CI containers, so a reader that merely spun on the
write cursor would steal the very CPU its peer needs to produce the
message — the futex puts it to sleep for free and wakes it the moment
the publish lands.  Only the *interior* waits — mid-message streaming
and ring-full backpressure, both rare — spin, with adaptive backoff
that falls to ``sched_yield`` almost immediately for the same reason.

Lockstep makes the sizing easy: a worker entering exchange ``e`` has
already consumed its peers' exchange ``e - 1`` messages, so at most one
exchange of traffic is ever in flight per direction and the default
1 MiB ring never fills on realistic topologies.  When a message *is*
larger than the ring (a worst-case dense window), the writer streams
it through in chunks while the reader drains — ring-full is
backpressure, not an error.

Wire format, per exchange and per directed pair (the payload is the
coalesced frame of :mod:`repro.dist.frame` — one entry table, one
concatenated cycle column, ONE flit pickle for the whole exchange)::

    round header:  round_tag (i64) | entry_count (i32) | payload_bytes (i64)
                   | seq (i64) | wake (i64) | payload_crc32 (u32)
                   | header_crc32 (u32)
    entry table:   entry_count rows of link_index (i32)
                   | start_cycle (i64) | length (i64) | valid_count (i32)
    cycle column:  sum(valid_count) int64 cycles, concatenated in entry
                   order (one array copy of every TokenStream's
                   cycle list)
    flit blob:     one pickled list of per-entry flit lists, running to
                   the payload's end.

Every entry is a window that carries tokens: producers ship nothing for
a quiet window, so a quiet exchange is a bare round header (no table,
no pickling at all), and the receiver's push cursor passes over it.
``wake`` is the sender's promise: no token of its shard moves before
that cycle, so peers that all promise past the next exchange skip it
together (:mod:`repro.dist.worker`).

Integrity: the round header carries a CRC32 over itself (the wake
included), a CRC32 over the payload, and a per-ring monotonic sequence
number.  A reader that sees a mismatched checksum, a skewed sequence or
a wake earlier than the exchange it closes raises a typed
:class:`~repro.faults.plan.RingCorruption` — corruption becomes a host
fault routed through checkpoint-restore, never silently-wrong
simulation results.  The checks cost two ``zlib.crc32`` calls per
round per direction, noise next to the encode loop.

Flit payloads are arbitrary Python objects (Ethernet frames), so they
still serialize through ``pickle`` — but only once per exchange per
peer; "zero-copy" buys the cycle column (one array copy into the
ring), and quiet windows cost no bytes at all.

Segments are created by the parent *before* forking, inherited by the
workers as mapped memory, and unlinked by the parent in the run
driver's ``finally`` — normal exit, worker crash, a failed allocation,
and checkpoint-restore all tear down through that one path, so nothing
leaks into ``/dev/shm`` (``tests/test_dist_shm.py`` and
``scripts/check_resilience.py`` enforce this).
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import time
import zlib
from multiprocessing import shared_memory
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.channel import TokenStarvationError
from repro.dist.frame import decode_entries, encode_entries
from repro.faults.plan import RingCorruption
from repro.obs.prof import P_COALESCE, P_SERIALIZE

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_TRANSPORT_TIMEOUT_S",
    "HEARTBEAT_PREFIX",
    "SEGMENT_PREFIX",
    "ShmRing",
    "leaked_segments",
]

#: Per-direction ring capacity.  One round of sparse boundary traffic is
#: a few hundred bytes; 1 MiB absorbs dense windows without streaming.
DEFAULT_RING_CAPACITY = 1 << 20

#: How long a ring waits for peer progress before declaring token
#: starvation; the CLI exposes it as ``--transport-timeout``.
DEFAULT_TRANSPORT_TIMEOUT_S = 120.0

#: ``/dev/shm`` names all start with this, so leak checks can tell our
#: segments from unrelated tenants of the same host.
SEGMENT_PREFIX = "repro-ring-"

#: Heartbeat control blocks (:mod:`repro.dist.supervisor`) use this
#: prefix; the leak audit covers both families.
HEARTBEAT_PREFIX = "repro-hb-"

_CURSOR_BYTES = 16

# round_tag, entry_count, payload_bytes, seq, wake, payload_crc, header_crc.
# The header CRC covers everything before itself; it is verified first
# so a corrupted payload_bytes can never drive a garbage-sized read.
# The payload that follows is the coalesced repro.dist.frame format.
_ROUND = struct.Struct("<qiqqqII")
_HEADER_CRC_OFFSET = _ROUND.size - 4

#: Spin iterations before the first ``sched_yield``; on a shared core
#: the peer cannot run while we spin, so this is deliberately tiny.
_SPINS_BEFORE_YIELD = 32
#: Yields before escalating to real sleeps (ring-full while the peer is
#: mid-tick, or a genuinely slow round).
_YIELDS_BEFORE_SLEEP = 2048
_SLEEP_S = 200e-6
#: How long a reader that finds bytes published without a permit waits
#: for the permit itself: the writer publishes, then posts, and may be
#: descheduled in between.  A late permit left unconsumed would pair
#: every later receive with its predecessor's post, and each would spin
#: in ``_read`` instead of sleeping on the semaphore.
_LATE_PERMIT_S = 0.1


class _Backoff:
    """Adaptive wait for one cursor to move: spin, yield, then sleep."""

    __slots__ = ("waits", "deadline", "ring", "what")

    def __init__(self, ring: "ShmRing", what: str) -> None:
        self.waits = 0
        self.deadline = time.monotonic() + ring.timeout_s
        self.ring = ring
        self.what = what

    def pause(self) -> None:
        waits = self.waits = self.waits + 1
        if waits < _SPINS_BEFORE_YIELD:
            return
        if waits < _YIELDS_BEFORE_SLEEP:
            time.sleep(0)
            return
        time.sleep(_SLEEP_S)
        if time.monotonic() > self.deadline:
            ring = self.ring
            raise TokenStarvationError(
                f"shm ring {ring.name} (worker {ring.src} -> "
                f"{ring.dst}) stalled waiting for {self.what}: peer made "
                f"no progress for {ring.timeout_s:.0f}s",
                link_name=ring.name,
            )

    def reset(self) -> None:
        self.waits = 0


class ShmRing:
    """One directed worker pair's lock-free token ring.

    The parent creates rings pre-fork (:meth:`create`); both the
    producing and consuming worker inherit the same mapped segment, so
    :meth:`send` and :meth:`recv` need no per-side setup.  Only the
    parent may :meth:`destroy` (close + unlink); workers merely
    :meth:`close` their mapping on the way out.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        capacity: int,
        src: int,
        dst: int,
        timeout_s: float,
        wakeup: Any = None,
    ) -> None:
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self.capacity = capacity
        self.src = src
        self.dst = dst
        self.timeout_s = timeout_s
        self.name = segment.name
        # One permit per published-but-unconsumed message.  None is
        # allowed (single-process unit tests fall back to spinning).
        self._wakeup = wakeup
        # Cursor views must be dropped before the segment's mmap can
        # close; close()/destroy() handle the ordering.
        self._cursors = segment.buf[:_CURSOR_BYTES].cast("Q")
        self._data = segment.buf[_CURSOR_BYTES:_CURSOR_BYTES + capacity]
        self._stage = bytearray()
        self._header = bytearray(_ROUND.size)
        # -- occupancy / backpressure counters (profiler telemetry) ----
        # Plain per-process ints: after the fork each side accumulates
        # only what *it* did (the producer its sends, the consumer its
        # receives), which is exactly the attribution the profiler
        # wants.  Always on — an int add per message is noise next to
        # the encode loop.
        self.sent_messages = 0
        self.sent_bytes = 0
        #: Peak published-but-unconsumed bytes observed at send time.
        self.high_water_bytes = 0
        #: Sends whose message exceeded free ring space (reader-drains-
        #: while-writer-fills streaming mode).
        self.streaming_sends = 0
        #: Times the writer found the ring completely full and had to
        #: back off mid-message.
        self.backpressure_stalls = 0
        #: Receives that found no published message and went to sleep
        #: on the wakeup semaphore.
        self.blocked_wakeups = 0
        #: Receives that found data published and whose wakeup permit
        #: never came — a lost wakeup self-healed by the cursor check
        #: instead of timing out (see ``recv``).
        self.wakeup_recoveries = 0
        self.recv_messages = 0
        self.recv_bytes = 0
        # -- integrity state ------------------------------------------
        # Per-direction monotonic frame sequence.  Each side of the
        # fork owns one counter: the producer stamps _send_seq into
        # every frame, the consumer checks frames against _recv_seq.
        self._send_seq = 0
        self._recv_seq = 0
        self.peer_wake = 0  # the wake of the last frame received
        #: Fault injection (repro.faults ``ring-corrupt`` verb): flip
        #: one staged byte *after* the checksums are computed, so the
        #: reader's CRC check must catch it.
        self.corrupt_next_send = False
        #: Fault injection (``wakeup-loss`` verb): skip one semaphore
        #: release, exercising the reader's cursor-check recovery.
        self.drop_next_wakeup = False
        #: Optional PhaseRecorder: when set by a profiled worker, the
        #: encode loop's time is accrued to its ``serialize`` phase.
        self.phase_sink: Any = None

    @classmethod
    def create(
        cls,
        src: int,
        dst: int,
        capacity: int = DEFAULT_RING_CAPACITY,
        timeout_s: float = DEFAULT_TRANSPORT_TIMEOUT_S,
    ) -> "ShmRing":
        """Allocate a fresh zeroed segment for the ``src -> dst`` hop.

        Raises ``OSError`` when the host cannot provide POSIX shared
        memory (read-only or absent ``/dev/shm``) or a semaphore; a
        segment created before the failure is unlinked first.
        """
        if capacity < _ROUND.size:
            raise ValueError(f"ring capacity too small: {capacity}")
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{src}to{dst}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=_CURSOR_BYTES + capacity
        )
        try:
            wakeup = multiprocessing.get_context("fork").Semaphore(0)
        except BaseException:
            segment.close()
            segment.unlink()
            raise
        # A fresh segment is zero-filled, so both cursors start at 0.
        return cls(segment, capacity, src, dst, timeout_s, wakeup)

    # -- ring mechanics --------------------------------------------------

    def _write(self, payload: Any) -> None:
        """Copy ``payload`` into the ring, publishing as space allows."""
        view = memoryview(payload)
        if view.format != "B":
            view = view.cast("B")
        total = len(view)
        capacity = self.capacity
        cursors = self._cursors
        data = self._data
        write = cursors[0]
        # Fast path: the whole message fits in free space right now —
        # one or two slice copies, one cursor publish, no loop state.
        if total <= capacity - (write - cursors[1]):
            position = write % capacity
            first = capacity - position
            if total <= first:
                data[position:position + total] = view
            else:
                data[position:position + first] = view[:first]
                data[0:total - first] = view[first:]
            cursors[0] = write + total  # publish after the bytes landed
            return
        sent = 0
        backoff = None
        while sent < total:
            free = capacity - (write - cursors[1])
            if free == 0:
                if backoff is None:
                    self.backpressure_stalls += 1
                    self.high_water_bytes = capacity
                    backoff = _Backoff(self, "ring space")
                backoff.pause()
                continue
            if backoff is not None:
                backoff.reset()
            chunk = min(free, total - sent)
            position = write % capacity
            first = min(chunk, capacity - position)
            data[position:position + first] = view[sent:sent + first]
            if chunk > first:
                data[0:chunk - first] = view[sent + first:sent + chunk]
            write += chunk
            sent += chunk
            cursors[0] = write  # publish only after the bytes landed

    def _read(self, count: int) -> bytearray:
        """Copy exactly ``count`` bytes out, freeing ring space as we go."""
        out = bytearray(count)
        capacity = self.capacity
        cursors = self._cursors
        data = self._data
        read = cursors[1]
        # Fast path: everything we need is already published.
        if count <= cursors[0] - read:
            position = read % capacity
            first = capacity - position
            if count <= first:
                out[:] = data[position:position + count]
            else:
                out[:first] = data[position:position + first]
                out[first:] = data[0:count - first]
            cursors[1] = read + count  # free the space for the writer
            return out
        filled = 0
        backoff = None
        while filled < count:
            available = cursors[0] - read
            if available == 0:
                if backoff is None:
                    backoff = _Backoff(self, "peer tokens")
                backoff.pause()
                continue
            if backoff is not None:
                backoff.reset()
            chunk = min(available, count - filled)
            position = read % capacity
            first = min(chunk, capacity - position)
            out[filled:filled + first] = data[position:position + first]
            if chunk > first:
                out[filled + first:filled + chunk] = data[0:chunk - first]
            read += chunk
            filled += chunk
            cursors[1] = read  # free the space for the writer
        return out

    # -- wire codec ------------------------------------------------------

    def send(
        self, round_tag: int, entries: Sequence[Tuple[int, Any]], wake: int = 0
    ) -> None:
        """Encode and publish one exchange's wire entries as ONE frame.

        ``entries`` are ``(link_index, window)`` pairs in the producer's
        own representation — ``TokenStream`` for batched windows,
        ``TokenBatch`` for scalar ones.  All of them leave as a single
        coalesced payload (:mod:`repro.dist.frame`) under one ring
        header — one publish, one wakeup, one pickle per peer per
        exchange.  ``wake`` rides in the header.
        """
        sink = self.phase_sink
        stage_start = time.perf_counter() if sink is not None else 0.0
        stage = self._stage
        del stage[:]
        stage += self._header  # round-header placeholder, packed below
        entry_count = encode_entries(entries, stage)
        frame_done = time.perf_counter() if sink is not None else 0.0
        self._send_seq += 1
        payload_view = memoryview(stage)[_ROUND.size:]
        _ROUND.pack_into(
            stage, 0, round_tag, entry_count, len(stage) - _ROUND.size,
            self._send_seq, wake, zlib.crc32(payload_view), 0,
        )
        header_crc = zlib.crc32(memoryview(stage)[:_HEADER_CRC_OFFSET])
        struct.pack_into("<I", stage, _HEADER_CRC_OFFSET, header_crc)
        payload_view.release()
        if self.corrupt_next_send:
            # Injected bit-flip, applied after both checksums so the
            # reader's integrity check must be what catches it.
            self.corrupt_next_send = False
            victim = _ROUND.size if len(stage) > _ROUND.size else 0
            stage[victim] ^= 0x01
        if sink is not None:
            # The encode ran inside the round loop's send segment; hand
            # the payload build to ``coalesce`` and the header/CRC
            # framing to ``serialize`` so ``send`` nets out to the
            # publish alone.
            sink.accrue(P_COALESCE, frame_done - stage_start)
            sink.accrue(P_SERIALIZE, time.perf_counter() - frame_done)
        self.sent_messages += 1
        self.sent_bytes += len(stage)
        cursors = self._cursors
        wakeup = self._wakeup
        if wakeup is None:
            self._write(stage)
        elif len(stage) > self.capacity - cursors[0] + cursors[1]:
            # The message must stream through the ring: wake the reader
            # *first* so it drains while we fill — releasing after the
            # write would deadlock (writer waits for space, reader
            # sleeps on the semaphore).
            self.streaming_sends += 1
            wakeup.release()
            self._write(stage)
        else:
            # Common case: the write cannot block, so publish the bytes
            # before the wakeup and the reader never spins.
            self._write(stage)
            if self.drop_next_wakeup:
                # Injected wakeup loss: the bytes are published but the
                # permit never posts; the reader's cursor check must
                # recover on its own.
                self.drop_next_wakeup = False
            else:
                wakeup.release()
        pending = cursors[0] - cursors[1]
        if pending > self.high_water_bytes:
            self.high_water_bytes = pending

    def recv(
        self, expected_round: int, block: bool = True, cycle: int = 0
    ) -> Optional[List[Tuple[int, Any]]]:
        """Decode one exchange message; block for it unless told not to.

        With ``block=False`` (the worker's lazy-receive sweep) a ring
        with no published message returns ``None`` immediately instead
        of sleeping on the wakeup semaphore — no permit is consumed and
        no recovery heuristics run, so the sweep can never race the
        peer's publish/release window.  The header's wake lands in
        :attr:`peer_wake`; one earlier than ``cycle``, the exchange's
        own, cannot come from a correct peer.
        """
        wakeup = self._wakeup
        cursors = self._cursors
        if wakeup is not None:
            if not wakeup.acquire(False):
                if not block:
                    return None
                if cursors[0] > cursors[1]:
                    # Data is published but its permit not yet posted.
                    self._await_late_permit()
                else:
                    # Sleep on the futex until the peer's publish, so
                    # the peer gets the whole core; cap the wait so a
                    # dead peer still surfaces as starvation rather
                    # than a hang.
                    self.blocked_wakeups += 1
                    deadline = time.monotonic() + self.timeout_s
                    while not wakeup.acquire(True, 1.0):
                        if cursors[0] > cursors[1]:
                            # Published without a permit mid-wait.
                            self._await_late_permit()
                            break
                        if time.monotonic() > deadline:
                            raise TokenStarvationError(
                                f"shm ring {self.name} (worker "
                                f"{self.src} -> {self.dst}) stalled: "
                                f"peer published nothing for "
                                f"{self.timeout_s:.0f}s",
                                link_name=self.name,
                            )
        elif not block and cursors[0] == cursors[1]:
            # No wakeup semaphore (single-process tests): the cursor
            # pair is the only publish signal.
            return None
        header = self._read(_ROUND.size)
        (
            round_tag, entry_count, payload_bytes, seq, wake,
            payload_crc, header_crc,
        ) = _ROUND.unpack(header)
        if zlib.crc32(memoryview(header)[:_HEADER_CRC_OFFSET]) != header_crc:
            raise RingCorruption(
                f"shm ring {self.name} (worker {self.src} -> {self.dst}): "
                f"round header failed its CRC32 check",
                ring=f"ring:{self.src}->{self.dst}",
            )
        expected_seq = self._recv_seq + 1
        if seq != expected_seq:
            raise RingCorruption(
                f"shm ring {self.name} (worker {self.src} -> {self.dst}): "
                f"frame sequence skew: got {seq}, expected {expected_seq}",
                ring=f"ring:{self.src}->{self.dst}",
            )
        self._recv_seq = seq
        if wake < cycle:
            raise RingCorruption(
                f"shm ring {self.name} (worker {self.src} -> {self.dst}): "
                f"round {round_tag} promises wake cycle {wake}, before "
                f"its exchange at cycle {cycle}",
                ring=f"ring:{self.src}->{self.dst}",
            )
        self.peer_wake = wake
        if round_tag != expected_round:
            raise TokenStarvationError(
                f"worker {self.dst}: out-of-order token message from "
                f"worker {self.src}: round {round_tag}, expected "
                f"{expected_round}"
            )
        payload = self._read(payload_bytes)
        if zlib.crc32(payload) != payload_crc:
            raise RingCorruption(
                f"shm ring {self.name} (worker {self.src} -> {self.dst}): "
                f"round {round_tag} payload failed its CRC32 check "
                f"({payload_bytes} bytes)",
                ring=f"ring:{self.src}->{self.dst}",
            )
        entries = decode_entries(payload, entry_count)
        self.recv_messages += 1
        self.recv_bytes += _ROUND.size + payload_bytes
        return entries

    def _await_late_permit(self) -> None:
        """Consume the permit of a message already published.

        The writer posts right after publishing, so the permit is
        normally a moment away; taking it keeps one permit per
        unconsumed message.  A permit that never comes is a lost wakeup
        (injected, or a genuinely dropped post): self-heal by trusting
        the cursors — the payload-then-publish order guarantees the
        bytes are complete.
        """
        if not self._wakeup.acquire(True, _LATE_PERMIT_S):
            self.wakeup_recoveries += 1

    # -- telemetry -------------------------------------------------------

    def counters(self) -> dict:
        """This process's view of the ring's traffic counters.

        Counters are per-process plain ints (shared memory holds only
        the byte ring), so the producer's copy reports the send side
        and the consumer's copy the receive side — which is exactly how
        a profiled worker attributes its own directions.
        """
        return {
            "sent_messages": self.sent_messages,
            "sent_bytes": self.sent_bytes,
            "high_water_bytes": self.high_water_bytes,
            "streaming_sends": self.streaming_sends,
            "backpressure_stalls": self.backpressure_stalls,
            "blocked_wakeups": self.blocked_wakeups,
            "wakeup_recoveries": self.wakeup_recoveries,
            "recv_messages": self.recv_messages,
            "recv_bytes": self.recv_bytes,
            "capacity": self.capacity,
        }

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (workers, on the way out)."""
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        # memoryview exports must die before mmap.close() or it
        # raises BufferError during interpreter shutdown.
        self._cursors = None  # type: ignore[assignment]
        self._data = None  # type: ignore[assignment]
        segment.close()

    def destroy(self) -> None:
        """Close and unlink the segment (parent only; idempotent)."""
        segment = self._segment
        self.close()
        if segment is None:
            return
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def leaked_segments() -> List[str]:
    """Names of repro shared-memory segments still present on this host.

    Empty on platforms without ``/dev/shm``; used by the leak checks in
    ``tests/test_dist_shm.py`` and ``scripts/check_resilience.py``.
    """
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    prefixes = (SEGMENT_PREFIX, HEARTBEAT_PREFIX)
    return sorted(name for name in names if name.startswith(prefixes))
