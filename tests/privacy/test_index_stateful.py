"""Stateful property test: ClkCandidateIndex against the pure-Python Dice
reference under arbitrary churn, for every hardening mode.

Small filters (128 bits, three hashes per gram) over a six-word
vocabulary make equal filters, and so ties at the k-th score, common.
Results must match the reference exactly: same ids, same order, same
float bits.  A threaded churn test beside it mirrors the sparse one in
``tests/serve/test_index_stateful.py``.
"""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.data.records import EntityRecord
from repro.privacy import (
    HARDENING_MODES, ClkCandidateIndex, ClkConfig, ClkEncoder,
    dice_reference, popcount,
)
from repro.privacy.blocker import exact_clk_topk

VOCAB = ("red", "blue", "green", "amber", "slate", "ivory")
IDS = tuple(f"r{i}" for i in range(10))

token_sets = st.lists(st.sampled_from(VOCAB), min_size=0, max_size=5,
                      unique=True)


def make_record(rid, tokens):
    return EntityRecord.text_record(rid, " ".join(tokens))


def words(clk):
    return [int(w) for w in clk]


def exact(found):
    """``(id, score bits)``: equality here is bit equality of the floats."""
    return [(rid, type(score).__name__, score.hex()) for rid, score in found]


class ClkCatalogMachine(RuleBasedStateMachine):
    @initialize(hardening=st.sampled_from(HARDENING_MODES),
                min_score=st.sampled_from((None, 0.0, 0.5)))
    def build(self, hardening, min_score):
        self.encoder = ClkEncoder(
            "stateful-secret",
            ClkConfig(nbits=128, num_hashes=3, hardening=hardening))
        self.index = ClkCandidateIndex(encoder=self.encoder,
                                       min_score=min_score)
        self.min_score = min_score
        self.filters = {}   # id -> filter the index should hold
        self.records = {}   # id -> plaintext record, single-party adds only

    def encode(self, rid, tokens):
        record = make_record(rid, tokens)
        return record, self.encoder.encode_record(record)

    @rule(rid=st.sampled_from(IDS), tokens=token_sets)
    def add(self, rid, tokens):
        record, clk = self.encode(rid, tokens)
        assert self.index.add(record) is (rid not in self.filters)
        self.filters[rid] = clk
        self.records[rid] = record

    @precondition(lambda self: self.filters)
    @rule(data=st.data(), tokens=token_sets)
    def readd_live(self, data, tokens):
        rid = data.draw(st.sampled_from(sorted(self.filters)))
        record, clk = self.encode(rid, tokens)
        assert self.index.add(record) is False
        self.filters[rid] = clk
        self.records[rid] = record

    @precondition(lambda self: self.filters)
    @rule(data=st.data(), tokens=token_sets)
    def readd_filter_only(self, data, tokens):
        rid = data.draw(st.sampled_from(sorted(self.filters)))
        _, clk = self.encode(rid, tokens)
        assert self.index.add_clk(rid, clk) is False
        self.filters[rid] = clk
        self.records.pop(rid, None)

    @precondition(lambda self: self.filters)
    @rule(data=st.data())
    def remove_live(self, data):
        self.remove(data.draw(st.sampled_from(sorted(self.filters))))

    @rule(rid=st.sampled_from(IDS))
    def remove(self, rid):
        assert self.index.remove(rid) is (rid in self.filters)
        self.filters.pop(rid, None)
        self.records.pop(rid, None)

    @rule(tokens=token_sets, k=st.integers(1, 12))
    def search(self, tokens, k):
        query = self.encoder.encode_record(make_record("q", tokens))
        # the whole ranking too: tombstoned rows must never surface
        for kk in (k, len(IDS) + 1):
            self.check_search(query, kk)

    def check_search(self, query, k):
        ids = sorted(self.filters)
        filters = np.zeros((len(ids), self.index.words), dtype=np.uint64)
        for row, rid in enumerate(ids):
            filters[row] = self.filters[rid]
        top = exact_clk_topk(query, filters, ids, k)
        want = [(rid, dice_reference(words(query), words(self.filters[rid])))
                for rid in top]
        if self.min_score is not None:
            want = [(rid, s) for rid, s in want if s >= self.min_score]
        assert exact(self.index.search(query, k)) == exact(want)
        # candidates() resolves exactly the hits stored with plaintext
        found = self.index.candidates_from_clk(query, k)
        assert [(r.record_id, s) for r, s in found] == [
            (rid, s) for rid, s in want if rid in self.records]
        assert all(r is self.records[r.record_id] for r, _ in found)

    @invariant()
    def catalog_agrees(self):
        if not hasattr(self, "index"):
            return
        index = self.index
        assert len(index) == len(self.filters)
        for rid in IDS:
            assert (rid in index) == (rid in self.filters)
            assert index.get(rid) is self.records.get(rid)
            clk = index.get_clk(rid)
            if rid in self.filters:
                np.testing.assert_array_equal(clk, self.filters[rid])
            else:
                assert clk is None
        stats = index.stats()
        assert stats["records"] == len(self.filters)
        assert stats["plaintext_records"] == len(self.records)
        pops = [int(popcount(clk)) for clk in self.filters.values()]
        fill = (float(np.mean(pops) / (index.words * 64))
                if pops else 0.0)
        assert stats["mean_fill"] == fill


ClkCatalogMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestClkIndexChurn = ClkCatalogMachine.TestCase


def test_threaded_churn_keeps_ids_and_scores_paired():
    """More threads than cores and a short switch interval, with removes
    and re-adds recycling rows all the time: every answer is a proper
    top-k list, every id comes with the score of a filter it really held,
    and no always-live record that outscores the answer is missing."""
    import sys
    import threading

    rng = np.random.default_rng(7)
    n_words = 4
    query = rng.integers(0, 2 ** 63, size=n_words, dtype=np.uint64)

    def near(drop):
        """``query`` with each set bit cleared with probability ``drop``."""
        mask = rng.random((n_words, 64)) >= drop
        keep = (mask * (np.uint64(1) << np.arange(64, dtype=np.uint64))
                ).sum(axis=1, dtype=np.uint64)
        return query & keep

    def dice(clk):
        return dice_reference(words(query), words(clk))

    # churned first versions score above most stable records, so churned
    # ids (and any row handed to the wrong id) reach the top-k
    stable = {f"stable{i:02d}": near(0.1 + 0.06 * i) for i in range(12)}
    versions = {f"churn{i}": (near(0.03 * i),
                              rng.integers(0, 2 ** 63, size=n_words,
                                           dtype=np.uint64))
                for i in range(9)}
    stable_scores = {rid: dice(clk) for rid, clk in stable.items()}
    allowed = {rid: {score} for rid, score in stable_scores.items()}
    allowed.update({rid: {dice(clk) for clk in pair}
                    for rid, pair in versions.items()})

    index = ClkCandidateIndex(words=n_words, default_k=6)
    for rid, clk in stable.items():
        index.add_clk(rid, clk)
    errors = []
    stop = threading.Event()

    def churn(offset):
        i = 0
        while not stop.is_set():
            rid = f"churn{(i + offset) % 9}"
            first, second = versions[rid]
            index.add_clk(rid, first)
            index.add_clk(rid, second)
            index.remove(f"churn{(i + offset + 4) % 9}")
            index.add_clk(rid, first)
            i += 1

    def ask():
        for _ in range(300):
            got = index.search(query)
            ids = [rid for rid, _ in got]
            if (len(got) != 6 or len(set(ids)) != 6
                    or got != sorted(got, key=lambda x: (-x[1], x[0]))
                    or any(s not in allowed[rid] for rid, s in got)
                    # stable records are always live: one that outscores
                    # the last answer must be in it
                    or any(rid not in ids for rid, s in stable_scores.items()
                           if s > got[-1][1])):
                errors.append(got)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        churners = [threading.Thread(target=churn, args=(n,))
                    for n in range(2)]
        askers = [threading.Thread(target=ask) for _ in range(2)]
        for t in churners + askers:
            t.start()
        for t in askers:
            t.join(timeout=60)
        stop.set()
        for t in churners:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in churners + askers)
    assert errors == []
    live = [rid for rid in list(stable) + list(versions) if rid in index]
    stats = index.stats()
    assert stats["records"] == len(live) == len(index)
    for rid in live:
        held = index.get_clk(rid)
        assert any(np.array_equal(held, clk)
                   for clk in ([stable[rid]] if rid in stable
                               else versions[rid]))
