"""Tests for the batched inference engine.

Covers the three semantics-preservation guarantees: length-bucketed
batching returns probabilities identical to a naive single batch (in the
original input order), the encoding cache changes no results while
accounting hits/misses, and vectorized MC-Dropout matches the sequential
per-pass reference bit for bit.
"""

import numpy as np
import pytest

from repro.core import PromptModel, Verbalizer, make_template
from repro.core.uncertainty import select_pseudo_labels
from repro.data import load_dataset
from repro.infer import EngineConfig, InferenceEngine, pack_buckets
from repro.lm import load_pretrained

from ..core.dummies import ToyPairModel, toy_view


@pytest.fixture(scope="module")
def backbone():
    return load_pretrained("minilm-tiny")


@pytest.fixture(scope="module")
def pairs():
    return load_dataset("REL-HETER").test[:12]


@pytest.fixture()
def prompt_model(backbone):
    lm, tok = backbone
    template = make_template("t1", tok, max_len=96)
    model = PromptModel(lm, tok, template, Verbalizer.designed(tok.vocab))
    model.eval()
    return model


def small_engine(**overrides):
    # tiny budget/batch so a dozen pairs split into several buckets
    kwargs = dict(token_budget=256, max_batch_pairs=4)
    kwargs.update(overrides)
    return InferenceEngine(EngineConfig(**kwargs))


class TestPackBuckets:
    def test_partition_covers_every_index_once(self):
        lengths = [5, 30, 12, 7, 30, 2, 18]
        buckets = pack_buckets(lengths, token_budget=64, max_batch_pairs=3)
        flat = np.sort(np.concatenate(buckets))
        np.testing.assert_array_equal(flat, np.arange(len(lengths)))

    def test_budget_and_cap_respected(self):
        lengths = list(range(1, 40))
        for bucket in pack_buckets(lengths, token_budget=64, max_batch_pairs=5):
            longest = max(lengths[i] for i in bucket)
            assert len(bucket) <= 5
            assert len(bucket) == 1 or len(bucket) * longest <= 64

    def test_overlong_sequence_runs_alone(self):
        buckets = pack_buckets([500, 3, 4], token_budget=64, max_batch_pairs=8)
        singletons = [b for b in buckets if len(b) == 1]
        assert any(b[0] == 0 for b in singletons)

    def test_empty(self):
        assert pack_buckets([], token_budget=64, max_batch_pairs=8) == []


class TestBucketedEquivalence:
    def test_matches_naive_single_batch(self, prompt_model, pairs):
        naive = prompt_model(pairs).numpy()
        bucketed = small_engine().predict_proba(prompt_model, pairs)
        np.testing.assert_allclose(bucketed, naive, atol=1e-6)

    def test_scatter_back_under_shuffled_input(self, prompt_model, pairs):
        engine = small_engine()
        base = engine.predict_proba(prompt_model, pairs)
        perm = np.random.default_rng(0).permutation(len(pairs))
        shuffled = engine.predict_proba(prompt_model,
                                        [pairs[i] for i in perm])
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-6)

    def test_empty_input(self, prompt_model):
        probs = small_engine().predict_proba(prompt_model, [])
        assert probs.shape == (0, 2)
        assert probs.dtype == np.float32


class TestCacheAccounting:
    def test_second_sweep_all_hits(self, prompt_model, pairs):
        engine = small_engine()
        engine.predict_proba(prompt_model, pairs)
        assert engine.stats.cache_misses == len(pairs)
        assert engine.stats.cache_hits == 0
        engine.predict_proba(prompt_model, pairs)
        assert engine.stats.cache_hits == len(pairs)
        assert len(engine.cache) == len(pairs)
        assert engine.stats.cache_hit_rate == 0.5

    def test_cached_results_identical(self, prompt_model, pairs):
        engine = small_engine()
        cold = engine.predict_proba(prompt_model, pairs)
        warm = engine.predict_proba(prompt_model, pairs)
        np.testing.assert_array_equal(cold, warm)

    def test_cached_encodings_are_compact(self, prompt_model, pairs):
        # entries live as long as the cache: one int32 per token id and
        # one byte per duplicate flag
        engine = small_engine()
        engine.predict_proba(prompt_model, pairs)
        for enc in engine.encodings(prompt_model, pairs):
            assert enc.ids.dtype == np.int32
            assert enc.dup_flags.dtype == np.int8
            assert enc.dup_flags.shape == enc.ids.shape

    def test_same_id_different_content_re_encodes(self, prompt_model, pairs):
        """Cache keys are content-addressed: a record replaced under the
        same id (the serving catalog supports this) must miss, not hit the
        stale entry."""
        from repro.data.dataset import CandidatePair
        from repro.data.records import EntityRecord

        engine = small_engine()
        original = pairs[0]
        replaced = CandidatePair(
            original.left,
            EntityRecord(record_id=original.right.record_id,
                         kind=original.right.kind,
                         values=dict(pairs[1].right.values)))
        engine.predict_proba(prompt_model, [original])
        assert engine.stats.cache_misses == 1
        fresh = engine.predict_proba(prompt_model, [replaced])
        assert engine.stats.cache_misses == 2  # new content re-encoded
        expected = small_engine().predict_proba(prompt_model, [replaced])
        np.testing.assert_array_equal(fresh, expected)

    def test_stats_dict_keys(self, prompt_model, pairs):
        engine = small_engine()
        engine.predict_proba(prompt_model, pairs)
        stats = engine.stats_dict()
        assert stats["pairs"] == len(pairs)
        assert stats["batches"] >= 2  # tiny budget forces multiple buckets
        assert stats["pairs_per_sec"] > 0
        assert 0.0 <= stats["padding_fraction"] < 1.0
        engine.reset_stats()
        assert engine.stats_dict()["pairs"] == 0


class TestVectorizedMCDropout:
    def test_matches_sequential(self, prompt_model, pairs):
        engine = small_engine()
        prompt_model.train()
        fast = engine.mc_dropout_proba(prompt_model, pairs, passes=4, seed=3)
        slow = engine.mc_dropout_proba(prompt_model, pairs, passes=4, seed=3,
                                       vectorized=False)
        assert fast.shape == (4, len(pairs), 2)
        np.testing.assert_allclose(fast, slow, atol=1e-6)

    def test_passes_differ(self, prompt_model, pairs):
        stacked = small_engine().mc_dropout_proba(prompt_model, pairs,
                                                  passes=3, seed=0)
        assert not np.allclose(stacked[0], stacked[1])

    def test_restores_train_mode(self, prompt_model, pairs):
        prompt_model.eval()
        small_engine().mc_dropout_proba(prompt_model, pairs[:4], passes=2)
        assert not prompt_model.training

    def test_rejects_zero_passes(self, prompt_model, pairs):
        with pytest.raises(ValueError):
            small_engine().mc_dropout_proba(prompt_model, pairs, passes=0)

    def test_empty_input(self, prompt_model):
        stacked = small_engine().mc_dropout_proba(prompt_model, [], passes=3)
        assert stacked.shape == (3, 0, 2)
        assert stacked.dtype == np.float32


class TestFallbackPath:
    """Models without the encoding protocol still work via model(batch)."""

    @pytest.fixture(scope="class")
    def view(self):
        return toy_view(n=80, labeled=20, seed=0)

    def test_predict_matches_direct_forward(self, view):
        model = ToyPairModel()
        model.eval()
        direct = model(view.test).numpy()
        engine = InferenceEngine(EngineConfig(max_batch_pairs=8))
        np.testing.assert_allclose(engine.predict_proba(model, view.test),
                                   direct, atol=1e-6)
        assert len(engine.cache) == 0  # no encode_pair, nothing cached

    def test_vectorized_matches_sequential(self, view):
        model = ToyPairModel(dropout=0.4)
        engine = InferenceEngine(EngineConfig(max_batch_pairs=16))
        fast = engine.mc_dropout_proba(model, view.test, passes=5, seed=1)
        slow = engine.mc_dropout_proba(model, view.test, passes=5, seed=1,
                                       vectorized=False)
        np.testing.assert_allclose(fast, slow, atol=1e-6)

    def test_selected_pseudo_labels_identical(self, view):
        # end-to-end: engine-driven selection picks the same pairs and
        # labels as a second engine run (determinism across engines)
        model = ToyPairModel(dropout=0.3)
        kwargs = dict(ratio=0.3, passes=6, strategy="uncertainty")
        a = select_pseudo_labels(
            model, view.unlabeled,
            engine=InferenceEngine(EngineConfig(base_seed=5)), **kwargs)
        b = select_pseudo_labels(
            model, view.unlabeled,
            engine=InferenceEngine(EngineConfig(base_seed=5)), **kwargs)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.pseudo_labels, b.pseudo_labels)
