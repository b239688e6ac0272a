"""Row-selected last encoder block in the inference fastpath.

``encoder_hidden(..., rows=m)`` runs every block but the last in full and
the last one only at row ``m[b]`` of each sequence. It must agree with the
full stack's output at those rows to the fastpath's 1e-6 contract (byte
for byte where the BLAS gemm kernel rounds a row subset like the whole
product) and draw exactly the dropout masks a full forward draws, so
MC-Dropout and EL2N passes are unchanged. The model-level tests check the
same through ``prompt_forward_encoded`` (prompt slots on and off) and
``cls_forward_encoded`` by swapping in a full-stack-then-index reference
for ``encoder_hidden``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import DropoutPlan, Dropout, dropout_plan, no_grad
from repro.core import PromptModel, Verbalizer, make_template
from repro.core.finetune import SequenceClassifier
from repro.core.peft import ADAPTER_SLOTS, install_adapters
from repro.data import load_dataset
from repro.infer import fastpath
from repro.lm import LMConfig, MiniLM, load_pretrained

#: the fastpath's agreement contract with the full computation: absolute
#: on probabilities; on hidden states (LayerNorm outputs of a few units)
#: relative to the batch's largest magnitude, i.e. float32 round-off
ATOL = 1e-6

MODES = ("eval", "plan", "rng")


def two_layer_lm(vocab_size, adapters):
    """A random-init two-layer backbone: one full block, then the row
    block. Agreement with the full stack does not depend on trained
    weights. ``adapters`` hangs PEFT adapters with non-zero weights on
    every layer, the state a bound adapter tenant leaves behind."""
    lm = MiniLM(LMConfig(vocab_size=vocab_size, d_model=32, num_layers=2,
                         num_heads=4, d_ff=64, max_len=128, dropout=0.1,
                         seed=3))
    if adapters:
        install_adapters(lm, bottleneck=4, seed=1)
        rng = np.random.default_rng(2)
        for layer in lm.encoder.layers:
            for slot in ADAPTER_SLOTS:
                up = getattr(layer, slot).up.weight
                up.data[...] = 0.1 * rng.standard_normal(up.data.shape)
    return lm


def run(model, mode, tile, call):
    """``call()`` under ``mode``; returns its output and, in draw order,
    every dropout mask the fastpath drew for it.

    ``rng`` mode (no plan: each Dropout's own generator) first resets
    every module's generator, so two calls see the same streams.
    """
    dropouts = [m for m in model.modules() if isinstance(m, Dropout)]
    for i, module in enumerate(dropouts):
        module.rng = np.random.default_rng(100 + i)
    model.train(mode != "eval")
    masks = []
    real = fastpath._dropout_mask

    def recording(module, shape, dtype):
        mask = real(module, shape, dtype)
        if mask is not None:
            masks.append((module.seed_salt, mask.copy()))
        return mask

    plan = (DropoutPlan(base_seed=11, pass_seeds=tuple(range(tile)),
                        batch_index=2) if mode == "plan" else None)
    try:
        with pytest.MonkeyPatch.context() as patch, no_grad(), \
                dropout_plan(plan):
            patch.setattr(fastpath, "_dropout_mask", recording)
            out = call()
    finally:
        model.train(False)
    return out, masks


ENCODER_HIDDEN = fastpath.encoder_hidden


def full_then_index(lm, embeds, pad_mask, rows=None):
    """The reference: the whole stack, then the selected rows."""
    hidden = ENCODER_HIDDEN(lm, embeds, pad_mask)
    return hidden if rows is None else hidden[np.arange(len(rows)), rows]


def assert_same_draws(masks, ref_masks):
    assert [salt for salt, _ in masks] == [salt for salt, _ in ref_masks]
    for (_, mask), (_, ref) in zip(masks, ref_masks):
        assert mask.dtype == ref.dtype and mask.shape == ref.shape
        assert mask.tobytes() == ref.tobytes()


@pytest.fixture(scope="module")
def lms():
    return {adapters: two_layer_lm(50, adapters) for adapters in (False, True)}


class TestEncoderHiddenRows:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_full_stack(self, lms, data):
        batch = data.draw(st.integers(1, 24), label="batch")
        tile = data.draw(st.sampled_from([1, 4]), label="tile")
        mode = data.draw(st.sampled_from(MODES), label="mode")
        padded = data.draw(st.booleans(), label="padded")
        lm = lms[data.draw(st.booleans(), label="adapters")]
        seq = data.draw(st.integers(2, 40), label="seq")
        lengths = [data.draw(st.integers(1, seq)) if padded else seq
                   for _ in range(batch)]
        rows = np.array([data.draw(st.integers(0, n - 1)) for n in lengths])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        embeds = rng.standard_normal((batch, seq, 32)).astype(np.float32)
        pad_mask = np.arange(seq)[None, :] >= np.array(lengths)[:, None]
        embeds = np.tile(embeds, (tile, 1, 1))
        pad_mask = np.tile(pad_mask, (tile, 1))
        rows = np.tile(rows, tile)

        got, masks = run(lm, mode, tile, lambda: fastpath.encoder_hidden(
            lm, embeds.copy(), pad_mask, rows=rows))
        ref, ref_masks = run(lm, mode, tile, lambda: full_then_index(
            lm, embeds.copy(), pad_mask, rows))
        assert got.shape == (batch * tile, 32)
        np.testing.assert_allclose(
            got, ref, rtol=0, atol=ATOL * max(1.0, float(np.abs(ref).max())))
        assert_same_draws(masks, ref_masks)
        if mode != "eval":
            assert masks  # dropout really ran

    def test_rows_leave_the_rng_where_a_full_forward_does(self, lms):
        lm = lms[False]
        embeds = np.random.default_rng(0).standard_normal(
            (3, 9, 32)).astype(np.float32)
        rows = np.array([0, 4, 8])
        after = []
        for fn in (fastpath.encoder_hidden, full_then_index):
            run(lm, "rng", 1, lambda: fn(lm, embeds.copy(), None, rows=rows))
            after.append([m.rng.random() for m in lm.modules()
                          if isinstance(m, Dropout)])
        assert after[0] == after[1]

    def test_without_rows_returns_every_position(self, lms):
        lm = lms[False]
        embeds = np.random.default_rng(1).standard_normal(
            (2, 5, 32)).astype(np.float32)
        with no_grad():
            hidden = fastpath.encoder_hidden(lm, embeds, None)
        assert hidden.shape == (2, 5, 32)


@pytest.fixture(scope="module")
def tokenizer():
    return load_pretrained("minilm-tiny")[1]


@pytest.fixture(scope="module")
def pair_pool():
    return load_dataset("REL-HETER").test[:30]


@pytest.fixture(scope="module")
def models(tokenizer):
    vocab = len(tokenizer.vocab)
    built = {}
    for adapters in (False, True):
        for slots in (False, True):
            template = make_template("t1", tokenizer, continuous=slots,
                                     max_len=96)
            built["prompt", slots, adapters] = PromptModel(
                two_layer_lm(vocab, adapters), tokenizer, template,
                Verbalizer.designed(tokenizer.vocab))
        built["cls", False, adapters] = SequenceClassifier(
            two_layer_lm(vocab, adapters), tokenizer, max_len=96)
    return built


class TestModelHeads:
    """The [MASK]-row prompt head and the row-0 classifier head against
    the same heads over the full stack."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_heads_match_full_stack(self, models, pair_pool, data):
        head = data.draw(st.sampled_from(["prompt", "cls"]), label="head")
        slots = head == "prompt" and data.draw(st.booleans(), label="slots")
        model = models[head, slots, data.draw(st.booleans(),
                                              label="adapters")]
        batch = data.draw(st.integers(1, 24), label="batch")
        tile = data.draw(st.sampled_from([1, 4]), label="tile")
        mode = data.draw(st.sampled_from(MODES), label="mode")
        picked = data.draw(st.lists(st.integers(0, len(pair_pool) - 1),
                                    min_size=batch, max_size=batch))
        encs = [model.encode_pair(pair_pool[i]) for i in picked]

        def forward():  # under no_grad: the fastpath twin of each head
            return model.forward_encoded(encs, tile=tile).data

        got, masks = run(model, mode, tile, forward)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fastpath, "encoder_hidden", full_then_index)
            ref, ref_masks = run(model, mode, tile, forward)
        assert got.shape == (batch * tile, 2)
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)
        assert_same_draws(masks, ref_masks)
