"""The fastpath's memoised prompt matrix (``fastpath.prompt_matrix``).

The P-tuning prompt encoder's output depends only on its weights, so the
fastpath computes it once per weight state. Every way the program writes
weights -- an optimizer step in place, ``load_state_dict``, a pool-wide
swap (replicas re-point their parameters into shared memory) and a tenant
bind/unbind -- must show up in the very next forward.
"""

import numpy as np
import pytest

from repro.autograd import AdamW, no_grad
from repro.core import PromptModel, Verbalizer, apply_peft, make_template
from repro.data import load_dataset
from repro.infer import InferenceEngine, fastpath
from repro.lm import load_pretrained
from repro.parallel.pool import fork_available
from repro.serve import (
    DeltaBundle, ModelBundle, PoolConfig, ServingPool, TenantRegistry,
)


def make_model(seed=0):
    lm, tok = load_pretrained("minilm-tiny")
    template = make_template("t1", tok, max_len=96)
    model = PromptModel(lm, tok, template, Verbalizer.designed(tok.vocab),
                        seed=seed)
    model.eval()
    return model


@pytest.fixture(scope="module")
def pairs():
    return load_dataset("REL-HETER").test[:8]


def fast_probs(model, encodings):
    with no_grad():
        return model.forward_encoded(encodings).data


def reference_probs(model, encodings):
    """The autograd path: runs the prompt encoder afresh every call."""
    return model.forward_encoded(encodings).data


def fresh_matrix(encoder):
    with no_grad():
        return np.array(encoder().data)


def assert_tracks_weights(model, encodings, before):
    """The memo holds the current weights' matrix and the forward uses it."""
    matrix = fastpath.prompt_matrix(model.prompt_encoder)
    assert matrix.tobytes() == fresh_matrix(model.prompt_encoder).tobytes()
    after = fast_probs(model, encodings)
    np.testing.assert_allclose(after, reference_probs(model, encodings),
                               rtol=0, atol=1e-6)
    assert np.abs(after - before).max() > 1e-5


class TestMemo:
    def test_hit_skips_the_encoder_and_is_read_only(self, monkeypatch):
        encoder = make_model().prompt_encoder
        calls = []
        real = encoder.forward

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(encoder, "forward", counting)
        first = fastpath.prompt_matrix(encoder)
        second = fastpath.prompt_matrix(encoder)
        assert second is first and len(calls) == 1
        assert not first.flags.writeable
        assert first.tobytes() == np.asarray(real().data).tobytes()

    def test_any_single_weight_change_misses(self):
        encoder = make_model().prompt_encoder
        for param in encoder.parameters():
            old = fastpath.prompt_matrix(encoder)
            saved = param.data.flat[0]
            param.data.flat[0] = saved + 1.0
            assert fastpath.prompt_matrix(encoder) is not old
            param.data.flat[0] = saved


class TestInvalidation:
    def test_optimizer_step(self, pairs):
        model = make_model()
        encodings = [model.encode_pair(p) for p in pairs]
        before = fast_probs(model, encodings)
        optimizer = AdamW(list(model.prompt_encoder.parameters()), lr=0.05)
        model.loss_encoded(encodings, np.array([0, 1] * 4)).backward()
        optimizer.step()  # in place: same arrays, new contents
        assert_tracks_weights(model, encodings, before)

    def test_load_state_dict(self, pairs):
        model = make_model()
        encodings = [model.encode_pair(p) for p in pairs]
        before = fast_probs(model, encodings)
        other = make_model(seed=7).prompt_encoder.state_dict()
        model.prompt_encoder.load_state_dict(other)
        assert_tracks_weights(model, encodings, before)

    def test_tenant_bind_and_unbind(self, pairs, tmp_path):
        tuned = make_model()
        apply_peft(tuned, "soft_prompt", seed=1)
        soft = tuned.prompt_encoder.embeddings
        soft.data[...] += 0.05 * np.random.default_rng(1).standard_normal(
            soft.data.shape).astype(soft.data.dtype)
        DeltaBundle.from_model(tuned, name="t").save(tmp_path / "t")

        registry = TenantRegistry(tenants_dir=tmp_path)
        model = make_model()
        registry.attach(model)
        encodings = [model.encode_pair(p) for p in pairs]
        base = fast_probs(model, encodings)
        base_matrix = registry._prompt_matrix(None)

        registry.bind("t")
        assert_tracks_weights(model, encodings, base)
        registry.bind(None)
        np.testing.assert_array_equal(fast_probs(model, encodings), base)

        # the fused mixed-tenant path reads the base matrix through the
        # same memo: an in-place change to the base encoder must show
        assert registry._prompt_matrix(None) is base_matrix
        model.prompt_encoder.embeddings.data[...] += 0.1
        assert registry._prompt_matrix(None).tobytes() == \
            fresh_matrix(model.prompt_encoder).tobytes()
        assert_tracks_weights(model, encodings, base)


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
def test_pool_swap(pairs, tmp_path):
    """Replicas adopt a swap by re-pointing the *same* parameter objects
    into shared memory; their warm memo must not outlive the old weights.
    Only the prompt encoder differs between the bundles, so a stale
    matrix would serve bundle a's probabilities under bundle b's name."""
    bundle_a = ModelBundle.from_model(make_model(), threshold=0.5, name="a")
    bundle_a.save(tmp_path / "b")
    bundle_b = ModelBundle.load(tmp_path / "b")
    bundle_b.name = "b"
    for param in bundle_b.model.prompt_encoder.parameters():
        param.data += 0.05
    pairs = list(pairs)
    engine = InferenceEngine()
    expect_a = engine.predict_proba(bundle_a.model, pairs)
    expect_b = engine.predict_proba(bundle_b.model, pairs)
    assert np.abs(expect_a - expect_b).max() > 1e-4

    with ServingPool(bundle_a, PoolConfig(replicas=1, shards=1)) as pool:
        assert not pool.serial  # replicas adopt through shared memory
        served = pool.score_batch(pairs, timeout=30.0)  # warms the memo
        np.testing.assert_allclose([r.probs for r in served], expect_a,
                                   rtol=0, atol=1e-6)
        version = pool.swap(bundle_b)
        served = pool.score_batch(pairs, timeout=30.0)
        assert {r.model_version for r in served} == {version}
        np.testing.assert_allclose([r.probs for r in served], expect_b,
                                   rtol=0, atol=1e-6)
