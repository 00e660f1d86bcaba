"""The one channel between worker processes: a pipe per directed pair.

Co-located endpoints in FireSim exchange tokens over one host hop
(paper Section III-B2); :class:`PipeChannel` is that hop between
:mod:`repro.dist` workers.  Exactness comes from the tokens, not from
the medium, so the channel is a plain byte stream: one ``os.pipe`` per
directed worker pair that shares boundary links, created before the
fork.  Each worker keeps only the end it uses and the parent closes its
copies once every worker is forked, so a peer that dies reaches its
readers as end-of-file, not as a silent wait.

Each exchange is ONE frame per directed pair: a round header
``round_tag (i64) | entry_count (i32) | payload_bytes (i64) | seq (i64)
| wake (i64) | payload_crc32 (u32) | header_crc32 (u32)`` followed by
the coalesced payload of :mod:`repro.dist.frame`.  A quiet exchange is
a bare header.  ``wake`` is the sender's promise that no token of its
shard moves before that cycle, so peers that all promise past the next
exchange skip it together (:mod:`repro.dist.worker`).

Integrity: the header CRC covers the header (the wake included), the
payload CRC the payload, and a per-channel sequence number orders
frames.  A mismatched checksum, a skewed sequence or a wake before the
exchange it closes raises :class:`~repro.faults.plan.RingCorruption`
before anything is decoded, so corruption becomes a host fault routed
through checkpoint-restore, never silently-wrong results.

The write end is non-blocking: a frame larger than the pipe buffer
leaves its tail unsent, and :func:`finish_exchange` flushes it from the
same ``select`` that waits for the worker's inbound frames, so workers
that all send more than a pipe holds before reading cannot deadlock.
A wait without progress for ``timeout_s`` raises
:class:`~repro.core.channel.TokenStarvationError` naming the channel.
The only ``/dev/shm`` entry a run creates is the supervisor's heartbeat
block, which :func:`leaked_segments` audits.
"""

from __future__ import annotations

import os
import select
import struct
import time
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.channel import TokenStarvationError
from repro.dist.frame import decode_entries, encode_entries
from repro.faults.plan import RingCorruption
from repro.obs.prof import P_COALESCE, P_SERIALIZE

__all__ = [
    "DEFAULT_TRANSPORT_TIMEOUT_S",
    "HEARTBEAT_PREFIX",
    "PipeChannel",
    "finish_exchange",
    "leaked_segments",
]

#: How long a channel waits for peer progress before declaring token
#: starvation; the CLI exposes it as ``--transport-timeout``.
DEFAULT_TRANSPORT_TIMEOUT_S = 120.0

#: Heartbeat control blocks (:mod:`repro.dist.supervisor`) use this
#: ``/dev/shm`` prefix, so leak checks can tell them from unrelated
#: tenants of the same host.
HEARTBEAT_PREFIX = "repro-hb-"

# The header CRC covers everything before itself; it is verified first
# so a corrupted payload_bytes can never drive a garbage-sized read.
_ROUND = struct.Struct("<qiqqqII")
_HEADER_CRC_OFFSET = _ROUND.size - 4

#: Most bytes one read takes off a pipe (the Linux default pipe buffer).
_READ_BYTES = 1 << 16


def _close(fd: int) -> int:
    if fd >= 0:
        os.close(fd)
    return -1


class PipeChannel:
    """One directed worker pair's frame stream over an ``os.pipe``.

    The parent creates channels before forking, so every worker
    inherits both ends; :meth:`own` closes the ones a worker does not
    use and :meth:`close` the rest.  ``send`` and ``recv`` work in one
    process too, as long as each frame fits the pipe buffer.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        timeout_s: float = DEFAULT_TRANSPORT_TIMEOUT_S,
    ) -> None:
        self.src = src
        self.dst = dst
        self.timeout_s = timeout_s
        #: The fault-target spelling; every error names the channel so.
        self.name = f"ring:{src}->{dst}"
        # Raises OSError when the process is out of descriptors; the
        # run driver then closes the channels made so far.
        self.read_fd, self.write_fd = os.pipe()
        os.set_blocking(self.write_fd, False)
        self._inbox = bytearray()  # bytes read toward the next frame
        self._unsent = memoryview(b"")  # the last frame's unwritten tail
        # Per-process counters: after the fork the producer counts its
        # sends and the consumer its receives.
        self.sent_messages = 0
        self.sent_bytes = 0
        self.recv_messages = 0
        self.recv_bytes = 0
        # The producer stamps _send_seq into every frame, the consumer
        # checks frames against _recv_seq.
        self._send_seq = 0
        self._recv_seq = 0
        self.peer_wake = 0  # the wake of the last frame received
        #: Fault injection (repro.faults ``ring-corrupt`` verb): flip
        #: one staged byte *after* the checksums are computed, so the
        #: reader's CRC check must catch it.
        self.corrupt_next_send = False
        #: Optional PhaseRecorder: when set by a profiled worker, the
        #: encode loop's time is accrued to its ``serialize`` phase.
        self.phase_sink: Any = None

    # -- wire codec ------------------------------------------------------

    def send(
        self, round_tag: int, entries: Sequence[Tuple[int, Any]], wake: int = 0
    ) -> None:
        """Encode one exchange's wire entries as ONE frame and write it.

        ``entries`` are ``(link_index, window)`` pairs in the producer's
        own representation — ``TokenStream`` for batched windows,
        ``TokenBatch`` for scalar ones.  All of them leave as a single
        coalesced payload (:mod:`repro.dist.frame`) under one round
        header; ``wake`` rides in the header.  Whatever the pipe does
        not take now stays unsent until :meth:`flush`.
        """
        sink = self.phase_sink
        stage_start = time.perf_counter() if sink is not None else 0.0
        stage = bytearray(_ROUND.size)  # round header, packed below
        entry_count = encode_entries(entries, stage)
        frame_done = time.perf_counter() if sink is not None else 0.0
        self._send_seq += 1
        payload_view = memoryview(stage)[_ROUND.size:]
        _ROUND.pack_into(
            stage, 0, round_tag, entry_count, len(stage) - _ROUND.size,
            self._send_seq, wake, zlib.crc32(payload_view), 0,
        )
        payload_view.release()
        header_crc = zlib.crc32(memoryview(stage)[:_HEADER_CRC_OFFSET])
        struct.pack_into("<I", stage, _HEADER_CRC_OFFSET, header_crc)
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
            # write alone.
            sink.accrue(P_COALESCE, frame_done - stage_start)
            sink.accrue(P_SERIALIZE, time.perf_counter() - frame_done)
        self.sent_messages += 1
        self.sent_bytes += len(stage)
        self._unsent = memoryview(stage)
        self.flush()

    def flush(self) -> bool:
        """Write what the pipe takes of the unsent tail; True once empty."""
        unsent = self._unsent
        try:
            written = os.write(self.write_fd, unsent)
        except BlockingIOError:
            return False
        except BrokenPipeError:
            raise TokenStarvationError(
                f"channel {self.name}: worker {self.dst} closed its end "
                f"before reading frame {self._send_seq}",
                link_name=self.name,
            ) from None
        self._unsent = unsent[written:]
        return written == len(unsent)

    def recv(
        self, expected_round: int, block: bool = True, cycle: int = 0
    ) -> Optional[List[Tuple[int, Any]]]:
        """Decode one exchange's frame; wait for it unless told not to.

        With ``block=False`` (the worker's lazy-receive sweep) a frame
        that has not fully arrived returns ``None`` after a zero-timeout
        ``select``; the bytes read so far stay buffered for the next
        call.  The header's wake lands in :attr:`peer_wake`; one earlier
        than ``cycle``, the exchange's own, cannot come from a correct
        peer.
        """
        timeout = self.timeout_s if block else 0.0
        while True:
            entries = self._frame(expected_round, cycle)
            if entries is not None:
                return entries
            if not select.select((self.read_fd,), (), (), timeout)[0]:
                if not block:
                    return None
                raise self._stalled()
            self._read()

    def _read(self) -> None:
        """Buffer what a readable pipe holds; end-of-file is starvation."""
        chunk = os.read(self.read_fd, _READ_BYTES)
        if not chunk:
            raise TokenStarvationError(
                f"channel {self.name}: worker {self.src} closed its end "
                f"before sending frame {self._recv_seq + 1}",
                link_name=self.name,
            )
        self._inbox += chunk

    def _frame(
        self, expected_round: int, cycle: int
    ) -> Optional[List[Tuple[int, Any]]]:
        """Validate and decode the buffered frame; None while incomplete.

        The header is checked as soon as it is in, before the payload
        length it carries is trusted; the checks are pure, so a frame
        that arrives in pieces is checked again on each call.
        """
        inbox = self._inbox
        if len(inbox) < _ROUND.size:
            return None
        (
            round_tag, entry_count, payload_bytes, seq, wake,
            payload_crc, header_crc,
        ) = _ROUND.unpack_from(inbox)
        if zlib.crc32(inbox[:_HEADER_CRC_OFFSET]) != header_crc:
            raise self._corruption("round header failed its CRC32 check")
        expected_seq = self._recv_seq + 1
        if seq != expected_seq:
            raise self._corruption(
                f"frame sequence skew: got {seq}, expected {expected_seq}"
            )
        if wake < cycle:
            raise self._corruption(
                f"round {round_tag} promises wake cycle {wake}, before "
                f"its exchange at cycle {cycle}"
            )
        if round_tag != expected_round:
            raise TokenStarvationError(
                f"worker {self.dst}: out-of-order token message from "
                f"worker {self.src}: round {round_tag}, expected "
                f"{expected_round}"
            )
        end = _ROUND.size + payload_bytes
        if len(inbox) < end:
            return None
        payload = inbox[_ROUND.size:end]
        del inbox[:end]
        self._recv_seq = seq
        self.peer_wake = wake
        if zlib.crc32(payload) != payload_crc:
            raise self._corruption(
                f"round {round_tag} payload failed its CRC32 check "
                f"({payload_bytes} bytes)"
            )
        entries = decode_entries(payload, entry_count)
        self.recv_messages += 1
        self.recv_bytes += end
        return entries

    def _corruption(self, what: str) -> RingCorruption:
        return RingCorruption(
            f"channel {self.name} (worker {self.src} -> {self.dst}): "
            f"{what}",
            ring=self.name,
        )

    def _stalled(self) -> TokenStarvationError:
        """The error for a wait on this channel that saw no progress."""
        return TokenStarvationError(
            f"channel {self.name} (worker {self.src} -> {self.dst}) "
            f"stalled: peer made no progress for {self.timeout_s:.0f}s",
            link_name=self.name,
        )

    # -- telemetry -------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """This process's traffic counters (its own direction only)."""
        return {
            "sent_messages": self.sent_messages,
            "sent_bytes": self.sent_bytes,
            "recv_messages": self.recv_messages,
            "recv_bytes": self.recv_bytes,
        }

    # -- lifecycle -------------------------------------------------------

    def own(self, worker_id: int) -> None:
        """Close the ends ``worker_id`` does not use (a worker, post-fork)."""
        if worker_id != self.src:
            self.write_fd = _close(self.write_fd)
        if worker_id != self.dst:
            self.read_fd = _close(self.read_fd)

    def close(self) -> None:
        """Close every end this process still holds (idempotent)."""
        self.read_fd = _close(self.read_fd)
        self.write_fd = _close(self.write_fd)


def finish_exchange(
    recvs: Sequence[PipeChannel],
    sends: Sequence[PipeChannel],
    round_tag: int,
    cycle: int,
) -> Iterator[Tuple[PipeChannel, List[Tuple[int, Any]]]]:
    """Yield each inbound channel's ``round_tag`` frame as it completes.

    Frames already buffered come first; then one ``select`` waits on
    the other read ends *and* on the write ends of ``sends`` that still
    hold an unsent tail, flushing those as the peers drain them.  A
    ``select`` returns every end that is already ready, so frames that
    arrived are taken before any wait (delivery order between peers is
    irrelevant — each link's windows ride one channel) and
    ``recv_wait`` is the *max* peer skew, not the sum; and a frame
    larger than the pipe buffer never deadlocks two workers that both
    send before they read.  Ends once every frame is in and every tail
    is out.
    """
    waiting: Dict[int, PipeChannel] = {}
    for channel in recvs:
        entries = channel._frame(round_tag, cycle)
        if entries is None:
            waiting[channel.read_fd] = channel
        else:
            yield channel, entries
    flushing = {
        channel.write_fd: channel for channel in sends if channel._unsent
    }
    while waiting or flushing:
        stuck = next(iter((waiting or flushing).values()))
        readable, writable, _ = select.select(
            waiting, flushing, (), stuck.timeout_s
        )
        if not readable and not writable:
            raise stuck._stalled()
        for fd in writable:
            if flushing[fd].flush():
                del flushing[fd]
        for fd in readable:
            channel = waiting[fd]
            channel._read()
            entries = channel._frame(round_tag, cycle)
            if entries is not None:
                del waiting[fd]
                yield channel, entries


def leaked_segments() -> List[str]:
    """Names of repro heartbeat blocks still present in ``/dev/shm``.

    Empty on platforms without ``/dev/shm``; used by the leak checks in
    the tests, ``scripts/check_resilience.py`` and the job server's
    shutdown audit.
    """
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(HEARTBEAT_PREFIX))
