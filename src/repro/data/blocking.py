"""Token-overlap blocking (the first stage of the classic EM workflow).

The paper focuses on *matching* and assumes candidate pairs already exist
(Section 2.1), but a complete system needs the blocking step: enumerate
left x right, keep pairs whose serialized token overlap clears a threshold,
reducing the quadratic candidate space while retaining recall.

For the dense (embedding-based) alternative that scales past token
postings, see :class:`repro.ann.DenseBlocker` and ``docs/BLOCKING.md``.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..text.tokenizer import basic_tokenize
from .records import EntityRecord, Table
from .serialize import serialize

#: entries kept in the record_tokens memo below
_TOKEN_CACHE_CAP = 32768

_token_cache: "OrderedDict[tuple, FrozenSet[str]]" = OrderedDict()
_token_cache_lock = threading.Lock()


def record_tokens(record: EntityRecord) -> FrozenSet[str]:
    """Blocking token set of a record: serialized, markers and 1-char
    tokens dropped. Shared by :class:`OverlapBlocker` and the serving-side
    :class:`repro.serve.ServingIndex` so offline and online candidate
    generation agree on what counts as overlap.

    Memoized on record *content* (:meth:`EntityRecord.content_key`, like
    the engine's encoding cache): every ``OverlapBlocker.block`` sweep and
    every ``ServingIndex.add`` used to re-serialize and re-tokenize the
    same record.  Content addressing means a record replaced under an
    existing id can never be served the old version's token set.  The
    returned set is a shared frozenset -- callers must not mutate it.
    Tokens are interned, so all memoized sets hold one string object per
    distinct token rather than one per record.
    """
    key = record.content_key()
    with _token_cache_lock:
        tokens = _token_cache.get(key)
        if tokens is not None:
            _token_cache.move_to_end(key)
            return tokens
    tokens = frozenset(sys.intern(t) for t in basic_tokenize(serialize(record))
                       if t not in ("[COL]", "[VAL]") and len(t) > 1)
    with _token_cache_lock:
        existing = _token_cache.get(key)
        if existing is not None:
            return existing
        _token_cache[key] = tokens
        if len(_token_cache) > _TOKEN_CACHE_CAP:
            _token_cache.popitem(last=False)
    return tokens


def clear_token_cache() -> None:
    """Drop the record_tokens memo (tests and memory-pressure hooks)."""
    with _token_cache_lock:
        _token_cache.clear()


def overlap_scores(postings: Sequence[np.ndarray], query_size: int,
                   sizes: np.ndarray, threshold: float = 0.0,
                   min_shared_tokens: int = 1
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Overlap coefficient of one query against every row its tokens hit.

    ``postings`` holds one integer row array per query token (the rows of
    the records carrying that token) and ``sizes[row]`` is a record's
    token count.  ``np.bincount`` over the concatenated postings gives
    ``shared = |Q intersect R|`` per row, and the score is
    ``shared / min(|Q|, |R|)`` in float64 -- bit-identical to the same
    division on Python ints.  Returns ``(rows, scores)`` in row order,
    keeping rows with at least ``min_shared_tokens`` (and always at least
    one) shared token and a score ``>= threshold``.
    """
    if not postings:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    shared = np.bincount(np.concatenate(postings))
    rows = np.flatnonzero(shared >= max(min_shared_tokens, 1))
    scores = shared[rows] / np.minimum(query_size, sizes[rows])
    if threshold > 0.0:
        keep = scores >= threshold
        rows, scores = rows[keep], scores[keep]
    return rows, scores


@dataclass
class BlockingResult:
    """Candidate pairs surviving the blocker, plus bookkeeping for recall.

    ``recall_at_k`` is filled by blockers that can measure themselves
    against an exact reference (the dense blocker's ANN-vs-exact-top-k
    bookkeeping); token blockers leave it ``None``.
    """

    candidates: List[Tuple[EntityRecord, EntityRecord]]
    total_pairs: int
    recall_at_k: Optional[float] = None

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the cross product pruned.

        An empty cross product reports ``1.0`` by convention: with nothing
        to prune, "everything pruned" is vacuously true, and both the
        sparse and dense blockers agree on it (a ``0.0`` here used to make
        an empty sweep look like the blocker kept everything).
        """
        if self.total_pairs == 0:
            return 1.0
        return 1.0 - len(self.candidates) / self.total_pairs


class OverlapBlocker:
    """Inverted-index token blocker with an overlap-coefficient filter."""

    def __init__(self, threshold: float = 0.3, min_shared_tokens: int = 1) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = threshold
        self.min_shared_tokens = min_shared_tokens

    _tokens = staticmethod(record_tokens)

    def block(self, left: Table, right: Table) -> BlockingResult:
        """Return candidate pairs sharing enough tokens.

        The right table becomes integer postings (one row per record) and
        each left record is scored against it with :func:`overlap_scores`.
        Candidates come out left record by left record, each in right
        table order.  A ``record_id`` repeated in ``right`` raises
        ``ValueError``: the two records would be indistinguishable in the
        candidate pairs.
        """
        right_records = list(right)
        seen: Set[str] = set()
        sizes = np.zeros(len(right_records), dtype=np.int64)
        rows_by_token: Dict[str, List[int]] = {}
        for row, record in enumerate(right_records):
            if record.record_id in seen:
                raise ValueError(
                    f"duplicate record_id {record.record_id!r} in the "
                    f"right table")
            seen.add(record.record_id)
            tokens = self._tokens(record)
            sizes[row] = len(tokens)
            for token in tokens:
                rows_by_token.setdefault(token, []).append(row)
        postings = {token: np.asarray(rows, dtype=np.int64)
                    for token, rows in rows_by_token.items()}

        candidates: List[Tuple[EntityRecord, EntityRecord]] = []
        for left_record in left:
            tokens = self._tokens(left_record)
            rows, _ = overlap_scores(
                [postings[t] for t in tokens if t in postings], len(tokens),
                sizes, self.threshold, self.min_shared_tokens)
            candidates.extend((left_record, right_records[row])
                              for row in rows.tolist())
        return BlockingResult(candidates=candidates,
                              total_pairs=len(left) * len(right))


def blocking_recall(result: BlockingResult,
                    true_matches: List[Tuple[str, str]]) -> float:
    """Fraction of known matched (left_id, right_id) pairs the blocker kept."""
    if not true_matches:
        return 1.0
    kept = {(l.record_id, r.record_id) for l, r in result.candidates}
    hit = sum(1 for pair in true_matches if pair in kept)
    return hit / len(true_matches)
