"""Coalesced wire codec for one worker's per-exchange boundary traffic.

Before this module, boundary windows were encoded one entry at a time:
a struct-packed header, a ``pickle.dumps`` per busy window, and a
per-entry cycle-column copy — so a worker talking to a peer over N
boundary links paid N serializer round-trips per round.  Switchboard's single-publish queues are the exemplar: all of
a module's outgoing traffic leaves as **one** contiguous write.

:func:`encode_entries` flattens an entire ``(link_index, window)`` list
into one columnar payload:

* **entry table** — ``entry_count`` packed rows of
  ``link_index (i32) | start_cycle (i64) | length (i64) |
  valid_count (i32)`` (24 bytes, no padding).  The consumer decodes the
  whole table with a single ``np.frombuffer`` over a packed dtype —
  no per-entry ``struct.unpack`` loop.
* **cycle column** — every entry's int64 token cycles,
  concatenated in entry order.  Each producer-side window contributes
  one vectorized copy (``TokenStream``'s cycle column goes straight in
  as raw bytes); the consumer slices windows back out of one
  ``np.frombuffer`` view by cumulative ``valid_count``.
* **flit blob** — ONE ``pickle.dumps`` of the list of per-entry flit
  payload lists (in entry order), running to the end of the payload.
  One pickle call per exchange per peer replaces one per busy window.

Producers ship only windows that carry tokens, so a quiet exchange is
an empty entry list; the receiver fills the cycles no entry covers
with empty windows (:func:`repro.dist.remote_link.deliver`).  Framing —
round tags, CRCs, sequence numbers — stays with the ring
(:mod:`repro.dist.shm` wraps this payload in its integrity-checked
header).
"""

from __future__ import annotations

import pickle
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.perf.stream import TokenStream

__all__ = [
    "ENTRY_BYTES",
    "decode_entries",
    "encode_entries",
]

#: One packed entry-table row.  numpy decodes the whole table at once;
#: ``align=False`` keeps the layout identical to the producer's packing.
_ENTRY_DTYPE = np.dtype(
    [
        ("link", "<i4"),
        ("start", "<i8"),
        ("length", "<i8"),
        ("valid", "<i4"),
    ]
)
ENTRY_BYTES = _ENTRY_DTYPE.itemsize
assert ENTRY_BYTES == 24, "entry table rows must pack without padding"

_EMPTY_CYCLES = np.empty(0, dtype=np.int64)


def encode_entries(
    entries: Sequence[Tuple[int, Any]], out: bytearray
) -> int:
    """Append the coalesced payload for ``entries`` to ``out``.

    ``entries`` are ``(link_index, window)`` pairs in the producer's own
    representation — ``TokenStream`` for batched windows, ``TokenBatch``
    for scalar ones.  Returns the entry count.
    """
    count = len(entries)
    table = np.empty(count, dtype=_ENTRY_DTYPE)
    link_col = table["link"]
    start_col = table["start"]
    length_col = table["length"]
    valid_col = table["valid"]
    columns: List[Any] = []
    flit_lists: List[list] = []
    for row, (link_index, window) in enumerate(entries):
        link_col[row] = link_index
        start_col[row] = window.start_cycle
        length_col[row] = window.length
        if isinstance(window, TokenStream):
            tokens = window.tokens
            valid_col[row] = tokens.shape[0]
            columns.append(np.ascontiguousarray(tokens["cycle"]))
            flit_lists.append(tokens["flit"].tolist())
            continue
        flits = window.flits
        cycles_list = sorted(flits)
        valid_col[row] = len(cycles_list)
        columns.append(np.asarray(cycles_list, dtype=np.int64))
        flit_lists.append([flits[cycle] for cycle in cycles_list])
    out += table.tobytes()
    for cycles in columns:
        out += memoryview(cycles).cast("B")
    if flit_lists:
        # Omitted for an empty entry list, which is zero bytes: the
        # ring's header CRC alone still covers it.
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
    link_col = table["link"]
    start_col = table["start"]
    length_col = table["length"]
    for row in range(entry_count):
        valid = int(valid_col[row])
        window = TokenStream.from_wire(
            int(start_col[row]),
            int(length_col[row]),
            cycles[cursor:cursor + valid],
            flit_lists[row],
        )
        cursor += valid
        entries.append((int(link_col[row]), window))
    return entries
