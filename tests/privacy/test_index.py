"""ClkCandidateIndex tests: replace-on-readd (mirroring
``tests/ann/test_index.py::test_replace_on_readd``), tombstone row reuse,
growth, tie ordering, the cross-party/single-party split, and search
against a remove + add that recycles a row mid-search."""

import numpy as np
import pytest

from repro.data.records import EntityRecord
from repro.privacy import (
    ClkCandidateIndex, ClkConfig, ClkEncoder, dice_reference,
)
from repro.privacy import index as index_module
from repro.privacy import kernels
from repro.privacy.index import _INITIAL_CAPACITY

from .conftest import make_record, make_records

SALT = "index-secret"


def small_encoder():
    return ClkEncoder(SALT, ClkConfig(nbits=256, num_hashes=8))


def single_party_index(n=0, **kwargs):
    index = ClkCandidateIndex(encoder=small_encoder(), **kwargs)
    if n:
        index.add_many(make_records(n))
    return index


class TestConstruction:
    def test_needs_shape_or_encoder(self):
        with pytest.raises(ValueError):
            ClkCandidateIndex()
        with pytest.raises(ValueError):
            ClkCandidateIndex(words=0)

    def test_encoder_fixes_words(self):
        index = ClkCandidateIndex(encoder=small_encoder())
        assert index.words == 4  # 256 bits

    def test_words_encoder_conflict(self):
        with pytest.raises(ValueError):
            ClkCandidateIndex(words=8, encoder=small_encoder())

    def test_default_k_validated(self):
        with pytest.raises(ValueError):
            ClkCandidateIndex(words=4, default_k=0)


class TestReplaceOnReadd:
    def test_readd_replaces(self):
        # mirrors tests/ann/test_index.py::test_replace_on_readd: an id
        # re-added after mutation must be searchable under its NEW filter
        index = single_party_index()
        encoder = index.encoder
        original = make_record(0)
        assert index.add(original) is True
        mutated = make_record(0, extra="revised edition")
        assert index.add(mutated) is False  # replaced, not fresh
        assert len(index) == 1
        np.testing.assert_array_equal(
            index.get_clk("r0"), encoder.encode_record(mutated))
        assert index.get("r0").values == mutated.values

    def test_filter_only_readd_pops_stale_record(self):
        index = single_party_index()
        record = make_record(1)
        index.add(record)
        assert index.get("r1") is not None
        fresh_clk = index.encoder.encode_record(
            make_record(1, extra="changed"))
        assert index.add_clk("r1", fresh_clk) is False
        # the stored plaintext no longer matches the filter -> dropped
        assert index.get("r1") is None
        np.testing.assert_array_equal(index.get_clk("r1"), fresh_clk)

    def test_replaced_filter_wins_search(self):
        index = single_party_index()
        index.add_many(make_records(8))
        mutated = make_record(2, extra="quebec victor whiskey")
        index.add(mutated)
        top_id, top_score = index.search(
            index.encoder.encode_record(mutated), k=1)[0]
        assert top_id == "r2" and top_score == 1.0


class TestRowRecycling:
    def test_remove_frees_row(self):
        index = single_party_index(5)
        free_before = index.stats()["free_rows"]
        assert index.remove("r3") is True
        assert index.stats()["free_rows"] == free_before + 1
        assert "r3" not in index
        assert index.remove("r3") is False

    def test_removed_never_returned(self):
        index = single_party_index(6)
        query = index.encoder.encode_record(make_record(4))
        assert "r4" in [rid for rid, _ in index.search(query, k=6)]
        index.remove("r4")
        assert "r4" not in [rid for rid, _ in index.search(query, k=6)]

    def test_tombstone_row_reused(self):
        index = single_party_index(4)
        index.remove("r1")
        capacity_before = index.stats()["capacity"]
        index.add(make_record(10))
        stats = index.stats()
        assert stats["capacity"] == capacity_before  # recycled, not grown
        assert stats["records"] == 4

    def test_growth_past_initial_capacity(self):
        index = single_party_index()
        n = _INITIAL_CAPACITY + 17
        assert index.add_many(make_records(n)) == n
        stats = index.stats()
        assert stats["records"] == n
        assert stats["capacity"] >= n
        # everything still searchable after reallocation
        query = index.encoder.encode_record(make_record(n - 1))
        assert index.search(query, k=1)[0][0] == f"r{n - 1}"


class TestSearch:
    def test_tie_ordering_by_id(self):
        # two ids with the SAME filter: the tie resolves by record id
        index = ClkCandidateIndex(words=2, default_k=5)
        clk = np.array([0xF0F0, 0x1], dtype=np.uint64)
        index.add_clk("zz", clk)
        index.add_clk("aa", clk)
        found = index.search(clk, k=2)
        assert [rid for rid, _ in found] == ["aa", "zz"]
        assert all(score == 1.0 for _, score in found)

    def test_min_score_filters(self):
        index = ClkCandidateIndex(words=1, min_score=0.9)
        index.add_clk("close", np.array([0xFF], dtype=np.uint64))
        index.add_clk("far", np.array([0x0F00], dtype=np.uint64))
        found = index.search(np.array([0xFF], dtype=np.uint64), k=5)
        assert [rid for rid, _ in found] == ["close"]

    def test_empty_index(self):
        index = ClkCandidateIndex(words=2)
        assert index.search(np.zeros(2, dtype=np.uint64), k=3) == []

    def test_shape_validated(self):
        index = ClkCandidateIndex(words=4)
        with pytest.raises(ValueError):
            index.search(np.zeros(3, dtype=np.uint64))
        with pytest.raises(ValueError):
            index.add_clk("x", np.zeros(5, dtype=np.uint64))

    def test_k_validated(self):
        index = ClkCandidateIndex(words=2)
        with pytest.raises(ValueError):
            index.search(np.zeros(2, dtype=np.uint64), k=0)


class TestPartyModes:
    def test_cross_party_refuses_plaintext(self):
        index = ClkCandidateIndex(words=4)
        with pytest.raises(ValueError) as err:
            index.add(make_record(0))
        assert "cross-party" in str(err.value)
        with pytest.raises(ValueError):
            index.candidates(make_record(0))

    def test_cross_party_resolves_no_records(self):
        # filters went in without plaintext: candidates_from_clk finds
        # nothing to hand to a scoring model, by construction
        encoder = small_encoder()
        index = ClkCandidateIndex(words=4)
        records = make_records(5)
        index.add_clk_many(
            (r.record_id, encoder.encode_record(r)) for r in records)
        query = encoder.encode_record(records[0])
        assert index.search(query, k=3)  # ids + scores do come back
        assert index.candidates_from_clk(query, k=3) == []
        assert index.stats()["plaintext_records"] == 0
        assert index.stats()["has_encoder"] is False

    def test_single_party_resolves_records(self):
        index = single_party_index(5)
        found = index.candidates(make_record(2), k=3)
        assert found and found[0][0].record_id == "r2"
        assert found[0][1] == 1.0
        assert index.stats()["plaintext_records"] == 5
        assert index.stats()["has_encoder"] is True

    def test_add_clk_many_counts_fresh(self):
        encoder = small_encoder()
        index = ClkCandidateIndex(words=4)
        entries = [(f"r{i}", encoder.encode_record(make_record(i)))
                   for i in range(4)]
        assert index.add_clk_many(entries) == 4
        assert index.add_clk_many(entries[:2]) == 0  # replacements
        assert len(index) == 4


def exact_answer(query, filters, k):
    """``(id, dice)`` top-k over ``{id: filter}`` with the index's order."""
    scored = [(rid, dice_reference([int(w) for w in query],
                                   [int(w) for w in clk]))
              for rid, clk in filters.items()]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


class TestSearchSnapshot:
    """A remove (and an add that recycles the freed row) landing between
    the search's locked snapshot and its scoring.  The hook runs inside
    the first popcount the search makes after taking the snapshot, so the
    interleaving is forced rather than left to thread timing."""

    A = np.array([0x0F, 0x0, 0x0, 0x0], dtype=np.uint64)
    B = np.array([0xFF00, 0xFF, 0x0, 0x0], dtype=np.uint64)
    C = np.array([0xF000, 0x0F, 0x0, 0x0], dtype=np.uint64)
    QUERY = np.array([0xFF03, 0xFF, 0x0, 0x0], dtype=np.uint64)

    @pytest.mark.parametrize("recycle", [False, True])
    def test_mutation_mid_search_keeps_ids_and_scores_paired(
            self, monkeypatch, recycle):
        index = ClkCandidateIndex(words=4)
        index.add_clk("A", self.A)
        index.add_clk("C", self.C)
        query = self.QUERY
        before = {"A": self.A, "C": self.C}
        after = {"C": self.C}
        if recycle:
            after["B"] = self.B
        pre = exact_answer(query, before, k=3)
        post = exact_answer(query, after, k=3)
        assert pre != post

        real = kernels.popcount
        fired = []

        def mutate_then_count(packed):
            if not fired:
                fired.append(True)
                index.remove("A")
                if recycle:
                    index.add_clk("B", self.B)  # takes A's freed row
            return real(packed)

        monkeypatch.setattr(kernels, "popcount", mutate_then_count)
        monkeypatch.setattr(index_module, "popcount", mutate_then_count)
        got = index.search(query, k=3)
        assert fired
        # one consistent state: every id carries the score of the filter
        # it held then, and no id the snapshot did not hold appears
        assert got in (pre, post)
        monkeypatch.undo()
        assert index.search(query, k=3) == post

    def test_readd_mid_search_keeps_records_and_scores_paired(
            self, monkeypatch):
        """A re-add of a hit's id with other values, landing after the
        snapshot: each hit must carry the record its score came from."""
        index = single_party_index()
        old, other = make_record(0), make_record(1)
        index.add(old)
        index.add(other)
        query = index.encoder.encode_record(old)
        new = EntityRecord(record_id=old.record_id, kind=old.kind,
                           values=make_record(5).values)

        def answer(records):
            scored = [(r, dice_reference(
                [int(w) for w in query],
                [int(w) for w in index.encoder.encode_record(r)]))
                for r in records]
            return sorted(scored, key=lambda h: (-h[1], h[0].record_id))

        pre, post = answer([old, other]), answer([new, other])
        assert pre != post

        real = kernels.popcount
        fired = []

        def readd_then_count(packed):
            if not fired:
                fired.append(True)
                index.add(new)
            return real(packed)

        monkeypatch.setattr(index_module, "popcount", readd_then_count)
        got = index.candidates_from_clk(query, k=2)
        assert fired
        # one consistent state; the parent paired the new record with the
        # old filter's Dice of 1.0
        assert got in (pre, post)
        monkeypatch.undo()
        assert index.get(old.record_id) is new
