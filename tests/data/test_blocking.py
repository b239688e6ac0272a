"""Tests for the overlap blocker."""

import pytest

from repro.data import OverlapBlocker, blocking_recall, load_dataset
from repro.data.blocking import BlockingResult


class TestOverlapBlocker:
    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            OverlapBlocker(threshold=1.5)

    def test_keeps_true_matches_drops_junk(self):
        ds = load_dataset("REL-HETER")
        blocker = OverlapBlocker(threshold=0.2)
        result = blocker.block(ds.left_table, ds.right_table)
        assert 0 < len(result.candidates) < result.total_pairs
        assert result.reduction_ratio > 0.3

    def test_recall_on_known_matches(self):
        ds = load_dataset("REL-HETER")
        truth = [(p.left.record_id, p.right.record_id)
                 for split in (ds.train, ds.valid, ds.test)
                 for p in split if p.label == 1]
        result = OverlapBlocker(threshold=0.2).block(ds.left_table, ds.right_table)
        assert blocking_recall(result, truth) > 0.9

    def test_lower_threshold_keeps_more(self):
        ds = load_dataset("REL-HETER")
        loose = OverlapBlocker(threshold=0.1).block(ds.left_table, ds.right_table)
        tight = OverlapBlocker(threshold=0.6).block(ds.left_table, ds.right_table)
        assert len(loose.candidates) >= len(tight.candidates)

    def test_recall_with_no_truth_is_one(self):
        result = BlockingResult(candidates=[], total_pairs=0)
        assert blocking_recall(result, []) == 1.0

    def test_reduction_ratio_empty(self):
        # vacuous cross product: everything (nothing) was pruned, so the
        # ratio is 1.0 -- an empty job must not read as "no reduction"
        assert BlockingResult(candidates=[], total_pairs=0).reduction_ratio == 1.0

    def test_reduction_ratio_empty_beats_keep_everything(self):
        empty = BlockingResult(candidates=[], total_pairs=0)
        keep_all = BlockingResult(candidates=[(None, None)], total_pairs=1)
        assert empty.reduction_ratio > keep_all.reduction_ratio
        assert keep_all.reduction_ratio == 0.0


class TestEdgeCases:
    """Boundary behavior shared with the serving-side index (the two use
    the same record_tokens rule)."""

    @staticmethod
    def _table(name, texts):
        from repro.data.records import EntityRecord, Table

        return Table(name=name, kind="text", records=[
            EntityRecord.text_record(f"{name}{i}", text)
            for i, text in enumerate(texts)])

    def test_empty_tables(self):
        blocker = OverlapBlocker(threshold=0.2)
        result = blocker.block(self._table("l", []), self._table("r", []))
        assert result.candidates == []
        assert result.total_pairs == 0
        assert result.reduction_ratio == 1.0

    def test_empty_left_only(self):
        blocker = OverlapBlocker(threshold=0.2)
        result = blocker.block(self._table("l", []),
                               self._table("r", ["some right rows"]))
        assert result.candidates == [] and result.total_pairs == 0

    def test_no_shared_tokens_yields_no_candidates(self):
        blocker = OverlapBlocker(threshold=0.0)
        result = blocker.block(self._table("l", ["alpha beta gamma"]),
                               self._table("r", ["delta epsilon zeta"]))
        assert result.candidates == []
        assert result.total_pairs == 1
        assert result.reduction_ratio == 1.0

    def test_records_with_only_dropped_tokens(self):
        # 1-char tokens are excluded from the blocking token set, so these
        # records have no tokens and can never be candidates
        blocker = OverlapBlocker(threshold=0.0)
        result = blocker.block(self._table("l", ["a b c"]),
                               self._table("r", ["a b c"]))
        assert result.candidates == []

    def test_record_tokens_drops_markers_and_short_tokens(self):
        from repro.data.blocking import record_tokens
        from repro.data.records import EntityRecord

        record = EntityRecord(record_id="x", kind="relational",
                              values={"title": "a DB of things"})
        tokens = record_tokens(record)
        assert "[COL]" not in tokens and "[VAL]" not in tokens
        assert "a" not in tokens  # single-char dropped
        assert "db" in tokens or "DB" in tokens

    def test_empty_value_record_has_no_tokens(self):
        from repro.data.blocking import record_tokens
        from repro.data.records import EntityRecord

        assert record_tokens(EntityRecord(record_id="e", kind="relational",
                                          values={})) == frozenset()
        assert record_tokens(EntityRecord.text_record("t", "")) == frozenset()

    def test_unicode_tokens_survive(self):
        from repro.data.blocking import record_tokens
        from repro.data.records import EntityRecord

        tokens = record_tokens(EntityRecord.text_record(
            "u", "Café Müller restaurant 北京"))
        assert any("caf" in t.lower() for t in tokens)
        assert any("ller" in t.lower() for t in tokens)
        assert len(tokens) >= 2

    def test_marker_only_and_single_char_records_empty(self):
        from repro.data.blocking import record_tokens
        from repro.data.records import EntityRecord

        # values made only of serialization markers / 1-char tokens
        assert record_tokens(EntityRecord.text_record(
            "m", "[COL] [VAL]")) == frozenset()
        assert record_tokens(EntityRecord.text_record(
            "s", "a b c 1 2")) == frozenset()

    def test_tokenless_records_never_divide_by_zero(self):
        # both sides tokenless: scoring paths must not raise
        blocker = OverlapBlocker(threshold=0.0)
        result = blocker.block(self._table("l", ["a", ""]),
                               self._table("r", ["b", "[COL]"]))
        assert result.candidates == []
        assert result.reduction_ratio == 1.0

    def test_min_shared_tokens_gate(self):
        blocker = OverlapBlocker(threshold=0.0, min_shared_tokens=2)
        result = blocker.block(self._table("l", ["apple banana"]),
                               self._table("r", ["apple cherry"]))
        assert result.candidates == []  # only one shared token
        blocker = OverlapBlocker(threshold=0.0, min_shared_tokens=1)
        result = blocker.block(self._table("l", ["apple banana"]),
                               self._table("r", ["apple cherry"]))
        assert len(result.candidates) == 1


class TestTokenMemo:
    """record_tokens is memoized on content_key -- the memo must be both
    effective (same object twice -> same frozenset instance) and safe
    (a record replaced under the same id never serves stale tokens)."""

    def test_same_content_returns_cached_instance(self):
        from repro.data.blocking import clear_token_cache, record_tokens
        from repro.data.records import EntityRecord

        clear_token_cache()
        record = EntityRecord.text_record("memo1", "alpha beta gamma")
        first = record_tokens(record)
        again = record_tokens(
            EntityRecord.text_record("memo1", "alpha beta gamma"))
        assert first == {"alpha", "beta", "gamma"}
        assert again is first  # served from the memo, not recomputed

    def test_mutated_content_readd_not_stale(self):
        # the serving catalog replaces records under an existing id; the
        # memo keys on content, so the new version gets fresh tokens
        from repro.data.blocking import clear_token_cache, record_tokens
        from repro.data.records import EntityRecord

        clear_token_cache()
        old = EntityRecord.text_record("same-id", "alpha beta")
        assert record_tokens(old) == {"alpha", "beta"}
        new = EntityRecord.text_record("same-id", "delta epsilon")
        assert record_tokens(new) == {"delta", "epsilon"}
        # and the old version is still individually correct (not evicted
        # into returning the new tokens)
        assert record_tokens(old) == {"alpha", "beta"}

    def test_serving_index_replacement_uses_fresh_tokens(self):
        from repro.data.records import EntityRecord
        from repro.serve import ServingIndex

        index = ServingIndex(default_k=3)
        index.add(EntityRecord.text_record("r1", "alpha beta"))
        index.add(EntityRecord.text_record("r1", "delta epsilon"))
        hits = index.candidates(
            EntityRecord.text_record("q", "delta epsilon"), 3)
        assert [r.record_id for r, _ in hits] == ["r1"]
        assert index.candidates(
            EntityRecord.text_record("q", "alpha beta"), 3) == []

    def test_cache_capacity_bounded(self):
        import repro.data.blocking as blocking
        from repro.data.blocking import clear_token_cache, record_tokens
        from repro.data.records import EntityRecord

        clear_token_cache()
        cap = blocking._TOKEN_CACHE_CAP
        old_cap = cap
        blocking._TOKEN_CACHE_CAP = 8
        try:
            for i in range(32):
                record_tokens(
                    EntityRecord.text_record(f"cap{i}", f"token{i} value"))
            assert len(blocking._token_cache) <= 8
        finally:
            blocking._TOKEN_CACHE_CAP = old_cap
            clear_token_cache()


class TestDuplicateRightIds:
    """A right table that repeats a record_id is refused: its postings
    would be indistinguishable, and the overlap counts of the two records
    used to be summed into one score."""

    @staticmethod
    def _table(name, rows):
        from repro.data.records import EntityRecord, Table

        return Table(name=name, kind="text", records=[
            EntityRecord.text_record(rid, text) for rid, text in rows])

    def test_duplicate_right_id_raises(self):
        left = self._table("l", [("q", "alpha beta gamma delta")])
        right = self._table("r", [("r", "alpha beta zzz yyy"),
                                  ("r", "gamma delta www vvv")])
        with pytest.raises(ValueError, match="'r'"):
            OverlapBlocker(threshold=0.75).block(left, right)

    def test_distinct_ids_score_separately(self):
        # the same two records under distinct ids each share 2/4 tokens,
        # so neither clears 0.75
        left = self._table("l", [("q", "alpha beta gamma delta")])
        right = self._table("r", [("r1", "alpha beta zzz yyy"),
                                  ("r2", "gamma delta www vvv")])
        assert OverlapBlocker(threshold=0.75).block(left, right) \
            .candidates == []
        result = OverlapBlocker(threshold=0.5).block(left, right)
        assert [r.record_id for _, r in result.candidates] == ["r1", "r2"]


class TestOverlapScores:
    def test_matches_python_division_bitwise(self):
        import numpy as np

        from repro.data.blocking import overlap_scores

        sizes = np.array([3, 7, 5, 0, 6], dtype=np.int32)
        postings = [np.array([0, 1, 2]), np.array([1, 2, 4]),
                    np.array([1, 4]), np.array([2])]
        rows, scores = overlap_scores(postings, 7, sizes)
        shared = {0: 1, 1: 3, 2: 3, 4: 2}
        assert rows.tolist() == [0, 1, 2, 4]
        assert [s.hex() for s in scores.tolist()] == [
            (shared[r] / min(7, int(sizes[r]))).hex() for r in rows.tolist()]

    def test_masks(self):
        import numpy as np

        from repro.data.blocking import overlap_scores

        sizes = np.array([2, 4, 4], dtype=np.int32)
        postings = [np.array([0, 1]), np.array([1, 2])]
        rows, _ = overlap_scores(postings, 2, sizes, min_shared_tokens=2)
        assert rows.tolist() == [1]
        rows, scores = overlap_scores(postings, 2, sizes, threshold=0.75)
        assert rows.tolist() == [1] and scores.tolist() == [1.0]
        # a zero floor still needs one shared token (no 0/0 rows)
        rows, _ = overlap_scores(postings, 2, sizes, min_shared_tokens=0)
        assert rows.tolist() == [0, 1, 2]
        rows, scores = overlap_scores([], 2, sizes)
        assert rows.size == 0 and scores.size == 0

