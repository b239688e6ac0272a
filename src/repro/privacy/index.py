"""ClkCandidateIndex: incremental CLK catalog with Dice top-k search.

The privacy-mode counterpart of :class:`repro.serve.DenseCandidateIndex`:
the same catalog protocol (``add`` / ``add_many`` / ``remove`` /
``candidates`` / ``stats``) over packed Bloom filters instead of int8
embeddings.  Two deployment shapes share this class:

* **cross-party** -- no encoder, no records: entries arrive as
  ``(record_id, packed filter)`` pairs (:meth:`add_clk`) and queries as
  filters (:meth:`search`).  The index holds nothing reversible, which is
  what makes the no-plaintext serving guarantee checkable;
* **single-party** -- constructed with a :class:`ClkEncoder`: plaintext
  records are encoded on ``add`` and kept alongside their filters, so the
  match server can hand candidate *records* to the scoring model while
  candidate *generation* runs over CLKs (recall measurement, trade-off
  benchmarks).

Storage is a :class:`repro.data.rowstore.RowStore`, as in
:class:`repro.ann.AnnIndex`: a growable packed matrix with per-row
popcounts, live flags and plaintext records, a row -> id ribbon with
``None`` tombstones, and a free list so removes recycle rows.  Re-adding
an id replaces the old filter in place (the replace-on-readd contract the
regression tests pin). Search takes one locked snapshot -- the query
ANDed with every stored row, plus copies of the popcounts and live flags
-- computes the hardware popcount Dice and top-k outside the lock, and
resolves the hits' ids and records under the lock again.  Every add and
remove bumps a write counter; if one landed in between, the search is
redone while holding the lock.  A concurrent remove + add that recycles a
row, or a re-add of a hit's id, can therefore never pair an id or a
record with another filter's score.  Results follow the deterministic
``(-score, record_id)`` ordering.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..data.records import EntityRecord
from ..data.rowstore import RowStore
from ..obs import get_telemetry
from .encoder import ClkEncoder
from .kernels import dice_from_counts, popcount, topk_candidates

#: initial packed-matrix capacity (rows); doubles on growth
_INITIAL_CAPACITY = 64


class ClkCandidateIndex:
    """CLK-based candidate catalog with incremental maintenance."""

    kind = "clk"

    def __init__(self, words: Optional[int] = None,
                 encoder: Optional[ClkEncoder] = None,
                 min_score: Optional[float] = None,
                 default_k: int = 5) -> None:
        if default_k < 1:
            raise ValueError("default_k must be >= 1")
        if encoder is not None:
            encoder_words = encoder.config.words
            if words is not None and words != encoder_words:
                raise ValueError(
                    f"words={words} conflicts with encoder "
                    f"({encoder_words} words)")
            words = encoder_words
        if words is None or words < 1:
            raise ValueError("need words >= 1 (or an encoder to infer it)")
        self.words = int(words)
        self.encoder = encoder
        self.min_score = min_score
        self.default_k = default_k
        self._lock = threading.RLock()
        self._store = RowStore(_INITIAL_CAPACITY,
                               filters=((self.words,), np.uint64, 0),
                               pops=((), np.int64, 0),
                               live=((), bool, False),
                               record=((), object, None))
        #: bumped by every add and remove; a search whose snapshot it
        #: outdated re-scores under the lock
        self._writes = 0

    # -- size / membership --------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, record_id: str) -> bool:
        with self._lock:
            return record_id in self._store

    def get(self, record_id: str) -> Optional[EntityRecord]:
        """Stored plaintext record (single-party mode only), else ``None``."""
        with self._lock:
            row = self._store.rows.get(record_id)
            return None if row is None else self._store["record"][row]

    def get_clk(self, record_id: str) -> Optional[np.ndarray]:
        with self._lock:
            row = self._store.rows.get(record_id)
            return None if row is None else self._store["filters"][row].copy()

    # -- maintenance ---------------------------------------------------
    def _set_gauge(self, size: int) -> None:
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge("privacy.clk_index.size").set(size)

    def add_clk(self, record_id: str, clk: np.ndarray,
                record: Optional[EntityRecord] = None) -> bool:
        """Insert a pre-encoded filter; ``False`` when it replaced an
        earlier filter for the same id (mutated-record re-add)."""
        clk = np.ascontiguousarray(clk, dtype=np.uint64)
        if clk.shape != (self.words,):
            raise ValueError(
                f"expected a ({self.words},) packed filter, "
                f"got shape {clk.shape}")
        pop = int(popcount(clk))
        with self._lock:
            row = self._store.rows.get(record_id)
            fresh = row is None
            if fresh:
                row = self._store.take(record_id)
            self._store["filters"][row] = clk
            self._store["pops"][row] = pop
            self._store["live"][row] = True
            # a filter-only (re)add leaves no plaintext behind; any record
            # stored for this id no longer matches the filter
            self._store["record"][row] = record
            self._writes += 1
            size = len(self._store)
        self._set_gauge(size)
        return fresh

    def add_clk_many(self, entries: Iterable[Tuple[str, np.ndarray]]) -> int:
        """Bulk filter insert; returns the number of *new* ids."""
        fresh = 0
        for record_id, clk in entries:
            if self.add_clk(record_id, clk):
                fresh += 1
        return fresh

    def _require_encoder(self) -> ClkEncoder:
        if self.encoder is None:
            raise ValueError(
                "this ClkCandidateIndex holds no salt (cross-party mode); "
                "submit pre-encoded filters via add_clk / search instead")
        return self.encoder

    def add(self, record: EntityRecord) -> bool:
        """Encode + insert a plaintext record (single-party mode)."""
        clk = self._require_encoder().encode_record(record)
        return self.add_clk(record.record_id, clk, record=record)

    def add_many(self, records: Iterable[EntityRecord]) -> int:
        records = list(records)
        if not records:
            return 0
        filters = self._require_encoder().encode_records(records)
        fresh = 0
        with self._lock:
            for i, record in enumerate(records):
                if self.add_clk(record.record_id, filters[i], record=record):
                    fresh += 1
        return fresh

    def remove(self, record_id: str) -> bool:
        with self._lock:
            if self._store.release(record_id) is None:
                return False
            self._writes += 1
            size = len(self._store)
        self._set_gauge(size)
        return True

    # -- search --------------------------------------------------------
    def search(self, clk: np.ndarray, k: Optional[int] = None
               ) -> List[Tuple[str, float]]:
        """Top-k ``(record_id, dice)`` for a packed query filter.

        Under the lock the query is ANDed with every row up to the
        high-water mark and the popcounts and live flags are copied; the
        popcounts and Dice run outside it on that snapshot, so every
        score belongs to the id it is returned with.  Ties at the k-th
        score resolve by record id.
        """
        return [(rid, score) for rid, score, _ in self._search(clk, k)]

    def _search(self, clk: np.ndarray, k: Optional[int]
                ) -> List[Tuple[str, float, Optional[EntityRecord]]]:
        """:meth:`search` hits with the plaintext record (or ``None``)
        each id held in the same state of the index as its filter."""
        k = self.default_k if k is None else int(k)
        if k < 1:
            raise ValueError("k must be >= 1")
        clk = np.ascontiguousarray(clk, dtype=np.uint64)
        if clk.shape != (self.words,):
            raise ValueError(
                f"expected a ({self.words},) packed filter, "
                f"got shape {clk.shape}")
        found = self._scored(clk, k)
        if found is None:
            # a write landed between snapshot and resolve: score again
            # holding the (re-entrant) lock, where none can
            with self._lock:
                found = self._scored(clk, k)
        if self.min_score is not None:
            found = [hit for hit in found if hit[1] >= self.min_score]
        found.sort(key=lambda hit: (-hit[1], hit[0]))
        return found[:k]

    def _scored(self, clk: np.ndarray, k: int
                ) -> Optional[List[Tuple[str, float, Optional[EntityRecord]]]]:
        """Top-k rows scored outside the lock on a locked snapshot, then
        resolved to ids and records under the lock; ``None`` when any
        write landed in between (a remove + add may have handed a hit's
        row to another id, or a re-add replaced its record)."""
        with self._lock:
            if not self._store:
                return []
            n = len(self._store.ids)
            shared = np.bitwise_and(self._store["filters"][:n], clk)
            pops = self._store["pops"][:n].copy()
            live = self._store["live"][:n].copy()
            writes = self._writes
        scores = dice_from_counts(popcount(shared), pops, int(popcount(clk)))
        rows = np.flatnonzero(live)
        scores = scores[rows]
        top = [(rows[i], float(scores[i])) for i in topk_candidates(scores, k)]
        with self._lock:
            if self._writes != writes:
                return None
            ids, records = self._store.ids, self._store["record"]
            return [(ids[row], score, records[row]) for row, score in top]

    def candidates(self, record: EntityRecord, k: Optional[int] = None
                   ) -> List[Tuple[EntityRecord, float]]:
        """Top-k ``(record, dice)`` for a plaintext query (single-party).

        Only hits whose plaintext record is stored resolve -- in
        cross-party mode nothing resolves, by construction.
        """
        clk = self._require_encoder().encode_record(record)
        return self.candidates_from_clk(clk, k)

    def candidates_from_clk(self, clk: np.ndarray, k: Optional[int] = None
                            ) -> List[Tuple[EntityRecord, float]]:
        """:meth:`candidates` for an already-encoded query filter.

        Each record is resolved from the same state of the index as the
        filter its score came from, so a re-add of a hit's id during the
        search cannot pair the new record with the old filter's score.
        """
        return [(record, score) for _, score, record in self._search(clk, k)
                if record is not None]

    # -- bookkeeping ---------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            live = len(self._store)
            capacity = self._store.capacity
            n = len(self._store.ids)
            pops = self._store["pops"][:n][self._store["live"][:n]]
            plaintext = sum(r is not None for r in self._store["record"][:n])
            fill = float(pops.mean() / (self.words * 64)) if live else 0.0
            return {
                "kind": self.kind,
                "records": live,
                "plaintext_records": plaintext,
                "words": self.words,
                "encoded_nbits": self.words * 64,
                "capacity": capacity,
                "free_rows": capacity - live,
                "mean_fill": fill,
                "has_encoder": self.encoder is not None,
            }
