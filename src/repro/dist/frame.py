"""Coalesced wire codec for one worker's per-exchange boundary traffic.

All of a worker's traffic to one peer in one exchange leaves as **one**
contiguous write (Switchboard's single-publish queues are the
exemplar), so a worker talking to a peer over N boundary links pays one
serializer round-trip per exchange, not N.

:func:`encode_entries` flattens an entire ``(link_index, window)`` list
into one columnar payload:

* **entry table** — ``entry_count`` packed rows of
  ``link_index (i32) | start_cycle (i64) | length (i64) |
  valid_count (i32)`` (24 bytes, no padding), one ``struct`` pack per
  entry; the consumer reads the table back with one
  ``struct.iter_unpack``.
* **cycle column** — every entry's int64 token cycles, concatenated in
  entry order into one ``array('q')``; the consumer restores the whole
  column with one ``frombytes`` and slices windows back out of it by
  cumulative ``valid_count``.
* **flit blob** — ONE ``pickle.dumps`` of the list of per-entry flit
  payload lists (in entry order), running to the end of the payload.
  One pickle call per exchange per peer replaces one per busy window.

The ring never leaves the host, so the cycle column is written in
native ``q`` order; the table is packed little-endian, and the import
refuses a big-endian host so the two can never disagree.

Producers ship only windows that carry tokens, so a quiet exchange is
an empty entry list; on the receiver the cycles no entry covers are a
cursor move (:func:`repro.dist.remote_link.deliver`).  Framing —
round tags, CRCs, sequence numbers — stays with the ring
(:mod:`repro.dist.shm` wraps this payload in its integrity-checked
header).  :func:`decode_entries` still checks every length and range it
reads before trusting it, and raises ``ValueError`` naming the entry on
a malformed payload.
"""

from __future__ import annotations

import pickle
import struct
import sys
from array import array
from typing import Any, List, Sequence, Tuple

from repro.perf.stream import TokenStream

__all__ = [
    "ENTRY_BYTES",
    "decode_entries",
    "encode_entries",
]

if sys.byteorder != "little":
    raise ImportError("the frame's cycle column needs a little-endian host")

#: One packed entry-table row.
_ENTRY = struct.Struct("<iqqi")
ENTRY_BYTES = _ENTRY.size
assert ENTRY_BYTES == 24, "entry table rows must pack without padding"


def encode_entries(
    entries: Sequence[Tuple[int, Any]], out: bytearray
) -> int:
    """Append the coalesced payload for ``entries`` to ``out``.

    ``entries`` are ``(link_index, window)`` pairs in the producer's own
    representation — ``TokenStream`` for batched windows, ``TokenBatch``
    for scalar ones.  Returns the entry count.
    """
    if not entries:
        # Zero bytes: the ring's header CRC alone still covers it.
        return 0
    pack = _ENTRY.pack
    column = array("q")
    flit_lists: List[list] = []
    for link_index, window in entries:
        if isinstance(window, TokenStream):
            cycles = window.cycles
            flit_lists.append(window.flit_list)
        else:
            flits = window.flits
            cycles = sorted(flits)
            flit_lists.append([flits[cycle] for cycle in cycles])
        out += pack(
            link_index, window.start_cycle, window.length, len(cycles)
        )
        column.extend(cycles)
    out += column
    out += pickle.dumps(flit_lists, protocol=pickle.HIGHEST_PROTOCOL)
    return len(entries)


def decode_entries(
    payload: Any, entry_count: int, offset: int = 0
) -> List[Tuple[int, Any]]:
    """Decode a coalesced payload back into ``(link_index, window)`` pairs.

    ``payload`` is any buffer (the shm ring's copied-out bytes);
    ``offset`` is where the entry table starts.  One ``iter_unpack``
    reads the table, one ``frombytes`` the whole cycle column, and one
    ``pickle.loads`` restores every flit payload — decode cost is per
    *exchange*, not per window.
    """
    view = memoryview(payload)
    size = len(view)
    cycles_at = offset + entry_count * ENTRY_BYTES
    if cycles_at > size:
        raise ValueError(
            f"frame entry {(size - offset) // ENTRY_BYTES}: the entry "
            f"table runs past the {size}-byte payload"
        )
    table = list(_ENTRY.iter_unpack(view[offset:cycles_at]))
    blob_at = cycles_at
    for row, (link, start, length, valid) in enumerate(table):
        if link < 0 or start < 0 or not 0 <= valid <= length:
            raise ValueError(
                f"frame entry {row}: bad row (link {link}, start {start}, "
                f"length {length}, valid {valid})"
            )
        blob_at += 8 * valid
        if blob_at > size:
            raise ValueError(
                f"frame entry {row}: the cycle column runs past the "
                f"{size}-byte payload"
            )
    column = array("q")
    column.frombytes(view[cycles_at:blob_at])
    cycles = column.tolist()
    try:
        flit_lists = pickle.loads(view[blob_at:]) if blob_at < size else []
    except (pickle.UnpicklingError, EOFError) as exc:
        raise ValueError(f"frame flit blob is unreadable: {exc}") from exc
    if type(flit_lists) is not list or len(flit_lists) != entry_count:
        raise ValueError(
            f"frame flit blob does not hold {entry_count} flit lists"
        )
    entries: List[Tuple[int, Any]] = []
    cursor = 0
    for row, (link, start, length, valid) in enumerate(table):
        window_cycles = cycles[cursor:cursor + valid]
        cursor += valid
        flits = flit_lists[row]
        if len(flits) != valid or valid and not (
            start <= window_cycles[0] and window_cycles[-1] < start + length
        ):
            raise ValueError(
                f"frame entry {row}: {len(flits)} flits or their cycles "
                f"do not fit its {valid} tokens in [{start}, "
                f"{start + length})"
            )
        entries.append(
            (link, TokenStream(start, length, window_cycles, flits))
        )
    return entries
