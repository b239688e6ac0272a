"""RowStore: integer rows for a mutable, id-keyed catalog.

The candidate indexes (:class:`repro.serve.ServingIndex`,
:class:`repro.ann.AnnIndex`, :class:`repro.privacy.ClkCandidateIndex`)
keep per-record data in numpy columns addressed by an integer row, so
scoring is a few array calls rather than a walk over dicts.  This class
is the bookkeeping they share:

* an ``id -> row`` dict and a ``row -> id`` ribbon (``None`` marks a
  tombstone);
* a LIFO free list, so a removed row is the next one handed out;
* named columns that double in capacity when the rows outgrow them.

It takes no lock: each owner already serializes mutations under its own.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: ``(trailing shape, dtype, fill value)`` of one column
ColumnSpec = Tuple[Tuple[int, ...], Any, Any]


class RowStore:
    """Row allocator plus growable numpy columns, keyed by record id."""

    def __init__(self, capacity: int, **columns: ColumnSpec) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.rows: Dict[str, int] = {}
        self.ids: List[Optional[str]] = []   # row -> id, up to the high-water row
        self.free: List[int] = []            # tombstoned rows, reused LIFO
        self._specs = columns
        self._columns = {name: np.full((self.capacity, *shape), fill,
                                       dtype=dtype)
                         for name, (shape, dtype, fill) in columns.items()}

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self.rows

    def __getitem__(self, name: str) -> np.ndarray:
        """The named column.  Growth swaps in a bigger array, so re-fetch
        it after :meth:`take` rather than keeping an old reference."""
        return self._columns[name]

    def live_rows(self) -> np.ndarray:
        return np.fromiter(self.rows.values(), dtype=np.int64,
                           count=len(self.rows))

    def take(self, record_id: str) -> int:
        """Allocate a row for a new ``record_id``: the last tombstone if
        any, else the next unused row (growing every column if full)."""
        if record_id in self.rows:
            raise KeyError(f"record id {record_id!r} already has a row")
        if self.free:
            row = self.free.pop()
        else:
            row = len(self.ids)
            if row >= self.capacity:
                self._grow(2 * self.capacity)
            self.ids.append(None)
        self.ids[row] = record_id
        self.rows[record_id] = row
        return row

    def release(self, record_id: str) -> Optional[int]:
        """Tombstone ``record_id``'s row, reset its columns to their fill
        values, and return it; ``None`` when the id has no row."""
        row = self.rows.pop(record_id, None)
        if row is None:
            return None
        self.ids[row] = None
        for name, (_, _, fill) in self._specs.items():
            self._columns[name][row] = fill
        self.free.append(row)
        return row

    def _grow(self, capacity: int) -> None:
        for name, (shape, dtype, fill) in self._specs.items():
            grown = np.full((capacity, *shape), fill, dtype=dtype)
            grown[:self.capacity] = self._columns[name]
            self._columns[name] = grown
        self.capacity = capacity
