"""Coalesced wire codec for one worker's per-exchange boundary traffic.

Before this module, boundary windows were encoded one entry at a time:
a struct-packed header, a ``pickle.dumps`` per busy window, and a
per-entry cycle-column copy — so a worker talking to a peer over N
boundary links paid N serializer round-trips per round.  Switchboard's single-publish queues are the exemplar: all of
a module's outgoing traffic leaves as **one** contiguous write.

:func:`encode_entries` flattens an entire ``(link_index, window)`` list
into one columnar payload:

* **entry table** — ``entry_count`` packed rows of
  ``link_index (i32) | kind (u8) | start_cycle (i64) | length (i64) |
  valid_count (i32)`` (25 bytes, no padding).  The consumer decodes the
  whole table with a single ``np.frombuffer`` over a packed dtype —
  no per-entry ``struct.unpack`` loop.
* **cycle column** — every DATA entry's int64 token cycles,
  concatenated in entry order.  Each producer-side window contributes
  one vectorized copy (``TokenStream``'s cycle column goes straight in
  as raw bytes); the consumer slices windows back out of one
  ``np.frombuffer`` view by cumulative ``valid_count``.
* **flit blob** — ONE ``pickle.dumps`` of the list of per-entry flit
  payload lists (DATA entries only, in entry order), running to the
  end of the payload.  One pickle call per exchange per peer replaces
  one per busy window.

``kind`` keeps the gap semantics of the per-entry format: ``DATA``
carries tokens, ``IDLE`` is table-row-only, and ``LOST`` marks a window
dropped in transit (the consumer records a queue gap).  Framing —
round tags, CRCs, sequence numbers — stays with the ring
(:mod:`repro.dist.shm` wraps this payload in its integrity-checked
header).
"""

from __future__ import annotations

import pickle
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.core.token import TokenBatch
from repro.dist.remote_link import LostWindow
from repro.perf.stream import TokenStream

__all__ = [
    "DATA",
    "IDLE",
    "LOST",
    "ENTRY_BYTES",
    "decode_entries",
    "encode_entries",
]

# Entry kinds: the table bits that carry window semantics.
DATA = 0  # valid tokens follow (cycles in the column + flits in the blob)
IDLE = 1  # empty window, table row only
LOST = 2  # window lost in transit: consumer records a queue gap

#: One packed entry-table row.  numpy decodes the whole table at once;
#: ``align=False`` keeps the layout identical to the producer's packing.
_ENTRY_DTYPE = np.dtype(
    [
        ("link", "<i4"),
        ("kind", "u1"),
        ("start", "<i8"),
        ("length", "<i8"),
        ("valid", "<i4"),
    ]
)
ENTRY_BYTES = _ENTRY_DTYPE.itemsize
assert ENTRY_BYTES == 25, "entry table rows must pack without padding"

_EMPTY_CYCLES = np.empty(0, dtype=np.int64)


def encode_entries(
    entries: Sequence[Tuple[int, Any]], out: bytearray
) -> int:
    """Append the coalesced payload for ``entries`` to ``out``.

    ``entries`` are ``(link_index, window)`` pairs in the producer's own
    representation — ``TokenStream`` for busy batched windows,
    ``TokenBatch`` for scalar or idle windows, ``LostWindow`` for
    fault-injected transport loss.  Returns the entry count.
    """
    count = len(entries)
    table = np.empty(count, dtype=_ENTRY_DTYPE)
    link_col = table["link"]
    kind_col = table["kind"]
    start_col = table["start"]
    length_col = table["length"]
    valid_col = table["valid"]
    columns: List[Any] = []
    flit_lists: List[list] = []
    for row, (link_index, window) in enumerate(entries):
        link_col[row] = link_index
        if type(window) is LostWindow:
            kind_col[row] = LOST
            start_col[row] = window.start_cycle
            length_col[row] = window.length
            valid_col[row] = 0
            continue
        start_col[row] = window.start_cycle
        length_col[row] = window.length
        if isinstance(window, TokenStream):
            tokens = window.tokens
            valid = tokens.shape[0]
            if valid:
                kind_col[row] = DATA
                valid_col[row] = valid
                columns.append(np.ascontiguousarray(tokens["cycle"]))
                flit_lists.append(tokens["flit"].tolist())
            else:
                kind_col[row] = IDLE
                valid_col[row] = 0
            continue
        flits = window.flits
        if flits:
            cycles_list = sorted(flits)
            kind_col[row] = DATA
            valid_col[row] = len(cycles_list)
            columns.append(np.asarray(cycles_list, dtype=np.int64))
            flit_lists.append([flits[cycle] for cycle in cycles_list])
        else:
            kind_col[row] = IDLE
            valid_col[row] = 0
    out += table.tobytes()
    for cycles in columns:
        out += memoryview(cycles).cast("B")
    if flit_lists:
        # Omitted entirely for all-idle payloads: an empty exchange is
        # just its table (and an empty entry list is zero bytes, so the
        # ring's header CRC alone still covers it).
        out += pickle.dumps(flit_lists, protocol=pickle.HIGHEST_PROTOCOL)
    return count


def decode_entries(
    payload: Any, entry_count: int, offset: int = 0
) -> List[Tuple[int, Any]]:
    """Decode a coalesced payload back into ``(link_index, window)`` pairs.

    ``payload`` is any buffer (the shm ring's copied-out bytes);
    ``offset`` is where the entry table starts.  One ``frombuffer`` reads the table, one more reads the
    whole cycle column, and one ``pickle.loads`` restores every flit
    payload — decode cost is per *exchange*, not per window.
    """
    table = np.frombuffer(
        payload, dtype=_ENTRY_DTYPE, count=entry_count, offset=offset
    )
    valid_col = table["valid"]
    total_valid = int(valid_col.sum())
    cycles_at = offset + entry_count * ENTRY_BYTES
    cycles = (
        np.frombuffer(
            payload, dtype=np.int64, count=total_valid, offset=cycles_at
        )
        if total_valid
        else _EMPTY_CYCLES
    )
    blob = memoryview(payload)[cycles_at + 8 * total_valid:]
    flit_lists = pickle.loads(blob) if len(blob) else []
    entries: List[Tuple[int, Any]] = []
    cursor = 0
    blob_row = 0
    kind_col = table["kind"]
    link_col = table["link"]
    start_col = table["start"]
    length_col = table["length"]
    for row in range(entry_count):
        kind = kind_col[row]
        start_cycle = int(start_col[row])
        length = int(length_col[row])
        window: Any
        if kind == IDLE:
            window = TokenBatch(start_cycle, length)
        elif kind == LOST:
            window = LostWindow(start_cycle, length)
        else:
            valid = int(valid_col[row])
            window = TokenStream.from_wire(
                start_cycle,
                length,
                cycles[cursor:cursor + valid],
                flit_lists[blob_row],
            )
            cursor += valid
            blob_row += 1
        entries.append((int(link_col[row]), window))
    return entries
