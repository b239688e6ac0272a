"""Stateful property test: ServingIndex and ShardedServingIndex (1/2/4
shards) against a brute-force overlap scan under arbitrary churn.

A small vocabulary makes ties at the k-th score common, so the tie rule
(smallest record ids first) is exercised on most queries.  Results must
match the reference exactly: same ids, same order, same float bits.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.data.blocking import record_tokens
from repro.data.records import EntityRecord
from repro.serve import ServingIndex
from repro.serve.shard import ShardedServingIndex

VOCAB = ("red", "blue", "green", "amber", "slate", "ivory")
IDS = tuple(f"r{i}" for i in range(10))

token_sets = st.lists(st.sampled_from(VOCAB), min_size=0, max_size=5,
                      unique=True)


def make_record(rid, tokens):
    return EntityRecord.text_record(rid, " ".join(tokens))


def brute_force(query, live, k, threshold, min_shared_tokens):
    """Top-k ``(id, score)`` by overlap coefficient over every live record."""
    tokens = record_tokens(query)
    scored = []
    for rid, record in live.items():
        other = record_tokens(record)
        shared = len(tokens & other)
        if shared < min_shared_tokens:
            continue
        score = shared / min(len(tokens), len(other))
        if score >= threshold:
            scored.append((score, rid))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(rid, score) for score, rid in scored[:k]]


def exact(found):
    """``(id, score bits)``: equality here is bit equality of the floats."""
    return [(rid, type(score).__name__, score.hex()) for rid, score in found]


class CatalogMachine(RuleBasedStateMachine):
    @initialize(threshold=st.sampled_from((0.0, 0.5, 2 / 3, 1.0)),
                min_shared=st.sampled_from((1, 2, 3)))
    def build(self, threshold, min_shared):
        self.threshold = threshold
        self.min_shared = min_shared
        kwargs = dict(threshold=threshold, min_shared_tokens=min_shared)
        self.indexes = [ServingIndex(**kwargs)] + [
            ShardedServingIndex(shards, **kwargs) for shards in (1, 2, 4)]
        self.live = {}

    @rule(rid=st.sampled_from(IDS), tokens=token_sets)
    def add(self, rid, tokens):
        record = make_record(rid, tokens)
        fresh = rid not in self.live
        for index in self.indexes:
            assert index.add(record) is fresh
        self.live[rid] = record

    @precondition(lambda self: self.live)
    @rule(data=st.data(), tokens=token_sets)
    def readd_live(self, data, tokens):
        rid = data.draw(st.sampled_from(sorted(self.live)))
        record = make_record(rid, tokens)
        for index in self.indexes:
            assert index.add(record) is False
        self.live[rid] = record

    @rule(rid=st.sampled_from(IDS))
    def remove(self, rid):
        known = rid in self.live
        for index in self.indexes:
            assert index.remove(rid) is known
        self.live.pop(rid, None)

    @rule(tokens=token_sets, k=st.integers(1, 12))
    def query(self, tokens, k):
        query = make_record("q", tokens)
        want = exact(brute_force(query, self.live, k, self.threshold,
                                 self.min_shared))
        for index in self.indexes:
            found = index.candidates(query, k)
            assert exact((r.record_id, s) for r, s in found) == want
            # the stored record object itself, not a stale version
            assert all(r is self.live[r.record_id] for r, _ in found)

    @invariant()
    def sizes_agree(self):
        for index in getattr(self, "indexes", ()):
            assert len(index) == len(self.live)
            for rid in IDS:
                assert (rid in index) == (rid in self.live)
                assert index.get(rid) is self.live.get(rid)


CatalogMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestServingIndexChurn = CatalogMachine.TestCase


def test_threaded_churn_keeps_postings_consistent():
    """More threads than cores and a short switch interval: queries over
    records the churn never touches keep their exact answer, and when the
    threads stop every live record's tokens are posted exactly once."""
    import sys
    import threading

    index = ServingIndex(default_k=6)
    for i in range(12):
        index.add(make_record(f"stable{i:02d}", ["red", "blue", VOCAB[i % 6]]))
    query = make_record("q", ["red", "blue", "green"])
    baseline = [(r.record_id, s) for r, s in index.candidates(query)]
    errors = []
    stop = threading.Event()

    def churn(offset):
        i = 0
        while not stop.is_set():
            rid = f"churn{(i + offset) % 9}"
            index.add(EntityRecord.text_record(rid, f"pelican w{i % 5}"))
            index.add(EntityRecord.text_record(rid, f"osprey w{i % 4}"))
            index.remove(f"churn{(i + offset + 4) % 9}")
            i += 1

    def ask():
        for _ in range(300):
            got = [(r.record_id, s) for r, s in index.candidates(query)]
            if got != baseline:
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
    live = [index.get(rid) for rid in
            [f"stable{i:02d}" for i in range(12)]
            + [f"churn{i}" for i in range(9)] if rid in index]
    stats = index.stats()
    assert stats["records"] == len(live) == len(index)
    assert stats["postings"] == sum(len(record_tokens(r)) for r in live)
