"""Raw-numpy inference kernels behind ``forward_encoded``.

The autograd :class:`~repro.autograd.Tensor` pays for generality: every op
allocates a wrapper, scalar ``x ** 3`` walks ``np.power``'s slow path, and
``masked_fill`` materializes a full ``-1e9`` array. None of that is needed
under ``no_grad``, so the engine-facing ``forward_encoded`` methods run
this module instead: a plain-numpy replication of the exact same math, op
for op, in the same order. Guarantees:

* **same numbers** -- each kernel mirrors its Tensor twin (including
  float32 coercion of scalar constants and ``sum * (1/n)`` means), so
  results agree with the reference path to float32 round-off;
* **same randomness** -- dropout masks come from the very same
  :class:`~repro.autograd.Dropout` modules (plan-aware seeded masks, or
  the module's own rng as a fallback), so MC-Dropout draws are unchanged;
* **less work** -- both heads read one row per sequence (the [MASK]
  position, Eq. 1; [CLS] for the classifier), so the last encoder block
  runs only there: K/V at every position, but the query, attention,
  out-projection, layer norms, FFN and adapters at that row alone
  (``encoder_hidden(..., rows=...)``), and the MLM head projects
  (B, D) instead of (B, T, D). The prompt matrix (the P-tuning BiLSTM's
  output, a function of its weights only) is memoised per prompt-encoder
  module on an exact comparison of its weights, and duplicate-token flags
  are memoized per encoding. The row block is byte-identical to the full
  block where the BLAS sgemm kernel rounds a row subset like the whole
  product (OpenBLAS's SkylakeX kernel, verified) and within float32
  round-off elsewhere (Haswell: up to ~1.5e-6 on a hidden state, ~2e-7
  on a probability); a lone row in that block is padded to two so BLAS
  never takes its gemv path, and its dropout masks are drawn at full size
  and indexed;
* **less memory traffic** -- kernels run in place on owned temporaries
  (same operation order, so bit-identical results), q/k/v come from one
  fused (D, 3D) projection, the big attention matmuls write into
  recycled per-thread scratch buffers, and a no-padding batch skips the
  attention mask fill entirely.

Training never comes through here: with gradients enabled the models use
the recorded Tensor path, which remains the reference implementation.
"""

from __future__ import annotations

import threading
import weakref
from typing import Optional, Sequence

import numpy as np

from ..autograd.layers import active_dropout_plan
from ..autograd.module import Module
from ..autograd.tensor import get_default_dtype, no_grad

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

_scratch = threading.local()

#: prompt-encoder module -> (weights key, prompt matrix); see prompt_matrix.
#: Weakly keyed, so an entry dies with its module and never rides along
#: when a model is pickled or copied; content-keyed, so no caller can see
#: a matrix that another caller's weights produced.
_prompt_memo: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _scratch_buf(key: str, shape, dtype) -> np.ndarray:
    """Reusable per-thread output buffer for the large attention matmuls.

    Allocating the (B, H, T, T) score array anew on every forward means a
    multi-megabyte mmap plus first-touch page faults per batch; recycling
    one buffer per (key, thread) removes that cost. GEMM with ``out=``
    overwrites every element, so reuse is bit-transparent.
    """
    store = getattr(_scratch, "bufs", None)
    if store is None:
        store = _scratch.bufs = {}
    buf = store.get(key)
    if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
        buf = store[key] = np.empty(shape, dtype)
    return buf


def _dropout_mask(module, shape, dtype) -> Optional[np.ndarray]:
    """The mask ``Dropout.forward`` draws for an input of ``shape``.

    None when the module is off. A plan-aware seeded mask when a
    :class:`~repro.autograd.DropoutPlan` is active (and the batch tiles),
    else one draw from the module's own rng.
    """
    if not module.training or module.p <= 0.0:
        return None
    plan = active_dropout_plan()
    if plan is not None:
        mask = module._seeded_mask(shape, plan.pass_seeds, plan.batch_index,
                                   plan.base_seed, dtype=dtype)
        if mask is not None:
            return mask
    mask = (module.rng.random(shape) >= module.p) / (1.0 - module.p)
    return mask.astype(dtype)


def _apply_dropout(module, x: np.ndarray, full_shape=None,
                   pick=None) -> np.ndarray:
    """Numpy twin of ``Dropout.forward`` (no per-call seed variant).

    With ``pick``, ``x`` holds only ``full[pick]`` of a sublayer output of
    ``full_shape``: the mask is still drawn at full size -- the very draws
    (and the rng state after them) of a full forward -- and indexed by
    ``pick``, so the kept rows are masked exactly as before.
    """
    shape = x.shape if pick is None else full_shape
    mask = _dropout_mask(module, shape, x.dtype)
    if mask is None:
        return x
    return x * (mask if pick is None else mask[pick])


def _linear(fc, x: np.ndarray) -> np.ndarray:
    out = x @ fc.weight.data
    if fc.bias is not None:
        out += fc.bias.data
    return out


def _row_linear(fc, x: np.ndarray) -> np.ndarray:
    """``_linear`` on (B, D) rows picked out of a (B, T, D) activation.

    A one-row ``(1, K) @ (K, N)`` goes to gemv, which rounds differently
    from the gemm that computes the same row inside the full product, so
    a lone row is padded to two and sliced back.
    """
    if x.shape[0] == 1:
        return _linear(fc, np.concatenate((x, x)))[:1]
    return _linear(fc, x)


def _layer_norm(ln, x: np.ndarray) -> np.ndarray:
    # Mutates ``x`` (every caller passes an owned temporary); the arithmetic
    # runs in the reference order, so results stay bit-identical while the
    # (B, T, D) intermediates reuse one buffer instead of allocating four.
    dt = x.dtype.type
    inv = dt(1.0 / x.shape[-1])
    mu = x.sum(axis=-1, keepdims=True) * inv
    x -= mu
    var = (x * x).sum(axis=-1, keepdims=True) * inv
    var += dt(ln.eps)
    np.sqrt(var, out=var)
    x /= var
    x *= ln.gamma.data
    x += ln.beta.data
    return x


def _gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation, evaluated in the reference operation order but
    # with one scratch buffer for the (B, T, 4D) FFN activations.
    dt = x.dtype.type
    inner = x * x
    inner *= x
    inner *= dt(0.044715)
    inner += x
    inner *= dt(_SQRT_2_OVER_PI)
    np.tanh(inner, out=inner)
    inner += dt(1.0)
    inner *= x
    inner *= dt(0.5)
    return inner


def _softmax(x: np.ndarray) -> np.ndarray:
    # In place: attention scores are (B, H, T, T), by far the largest
    # arrays in a forward; callers always hand over a fresh temporary.
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _attention(attn, x: np.ndarray, score_mask: Optional[np.ndarray],
               pick=None) -> np.ndarray:
    """Self-attention sublayer: (B, T, D) -> (B, T, D).

    With ``pick = (arange(B), rows)`` only query row ``rows[b]`` of each
    sequence is attended from, giving (B, D): K and V are still projected
    at every position, but the query, scores, softmax, attention dropout,
    context and out-projection exist for one row per sequence.
    """
    batch, seq, _ = x.shape
    heads, d_head = attn.num_heads, attn.d_head
    dt = x.dtype.type

    # One fused (D, 3D) -- or, for picked rows, (D, 2D) K/V -- projection
    # instead of separate (D, D) GEMMs. The column-blocked GEMM reduces
    # over the same K axis in the same order, so each element is
    # bit-identical to its separate projection.
    projs = ((attn.q_proj, attn.k_proj, attn.v_proj) if pick is None
             else (attn.k_proj, attn.v_proj))
    fused = x @ np.concatenate([p.weight.data for p in projs], axis=1)
    if attn.q_proj.bias is not None:
        fused += np.concatenate([p.bias.data for p in projs])

    # (B, T, nD) -> (B, T, n, H, d_head): a pure view of the fused output,
    # so q/k/v never get copied out
    fused = fused.reshape(batch, seq, len(projs), heads, d_head)
    k = fused[:, :, -2].transpose(0, 2, 1, 3)
    v = fused[:, :, -1].transpose(0, 2, 1, 3)
    if pick is None:
        q = fused[:, :, 0].transpose(0, 2, 1, 3)
        scores = _scratch_buf("scores", (batch, heads, seq, seq), x.dtype)
        np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
        scores *= dt(attn.scale)
    else:
        q = _row_linear(attn.q_proj, x[pick]).reshape(batch, heads, 1, d_head)
        # each head's query row twice: a (1, d) @ (d, T) would go to gemv
        scores = np.matmul(np.repeat(q, 2, axis=2), k.transpose(0, 1, 3, 2))
        scores = scores[:, :, 0] * dt(attn.scale)  # (B, H, T), owned
        if score_mask is not None:
            score_mask = score_mask[:, :, 0]
    if score_mask is not None:
        np.copyto(scores, dt(-1e9), where=score_mask)
    weights = _apply_dropout(
        attn.attn_dropout, _softmax(scores), (batch, heads, seq, seq),
        None if pick is None else (pick[0], slice(None), pick[1]))
    if pick is not None:
        context = np.matmul(np.repeat(weights[:, :, None], 2, axis=2), v)
        return _row_linear(attn.out_proj,
                           context[:, :, 0].reshape(batch, attn.d_model))
    context = _scratch_buf("context", (batch, heads, seq, d_head), x.dtype)
    np.matmul(weights, v, out=context)
    context = context.transpose(0, 2, 1, 3)
    return _linear(attn.out_proj, context.reshape(batch, seq, attn.d_model))


def _block(layer, x: np.ndarray, score_mask: Optional[np.ndarray],
           pick=None) -> np.ndarray:
    """One encoder layer; with ``pick`` only its output rows ``x[pick]``."""
    full = x.shape
    linear = _linear if pick is None else _row_linear
    attn_out = _apply_dropout(
        layer.dropout, _attention(layer.attention, x, score_mask, pick),
        full, pick)
    adapter = getattr(layer, "adapter_attn", None)
    if adapter is not None:
        _adapter(adapter, attn_out, linear)
    # residual, in place on the fresh projection output
    attn_out += x if pick is None else x[pick]
    x = _layer_norm(layer.norm1, attn_out)
    ffn = layer.ffn
    ffn_out = _apply_dropout(
        ffn.dropout, linear(ffn.fc2, _gelu(linear(ffn.fc1, x))), full, pick)
    adapter = getattr(layer, "adapter_ffn", None)
    if adapter is not None:
        _adapter(adapter, ffn_out, linear)
    ffn_out += x
    return _layer_norm(layer.norm2, ffn_out)


def encoder_hidden(lm, embeds: np.ndarray, pad_mask: Optional[np.ndarray],
                   rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The TransformerEncoder stack on raw arrays: (B, T, D) -> (B, T, D).

    ``rows`` (B ints) asks for hidden row ``rows[b]`` of each sequence
    only and returns (B, D), equal to ``encoder_hidden(...)[arange(B),
    rows]``: every block but the last runs in full, and the last one runs
    only at the selected rows (see :func:`_attention`). Dropout masks are
    drawn at full size and indexed, so MC-Dropout draws are unchanged.
    """
    # A no-padding batch (length-homogeneous bucket) masks nothing; skip
    # the (B, H, T, T) masked fill entirely in that case.
    score_mask = (pad_mask[:, None, None, :]
                  if pad_mask is not None and pad_mask.any() else None)
    layers = lm.encoder.layers
    pick = None if rows is None else (np.arange(len(embeds)), rows)
    x = embeds
    for i, layer in enumerate(layers):
        x = _block(layer, x, score_mask,
                   pick if i == len(layers) - 1 else None)
    return x


def _adapter(adapter, x: np.ndarray, linear=_linear) -> np.ndarray:
    """PEFT bottleneck residual, in place on the owned sublayer output.

    Matches ``repro.core.peft.Adapter.forward`` elementwise: the delta is
    computed from the unmutated input, then added (``_gelu`` mutates only
    the owned down-projection temporary).
    """
    x += linear(adapter.up, _gelu(linear(adapter.down, x)))
    return x


def prompt_matrix(encoder) -> np.ndarray:
    """``encoder().data``, the (P, D) prompt matrix, memoised per module.

    The P-tuning encoder (BiLSTM + MLP) and a soft prompt are
    deterministic functions of their own weights, so the matrix is only
    recomputed when those change. The memo is keyed on an exact byte
    comparison of every parameter array (with dtype and shape), not on a
    version counter: optimizer steps write weights in place, and
    ``load_state_dict``, best-epoch restore, shared-memory adoption and
    tenant binds overwrite or re-point them. The returned array is
    read-only and shared. A non-module callable (the fused mixed-tenant
    view's pre-stacked matrix) is simply called.
    """
    if not isinstance(encoder, Module):
        return encoder().data
    key = (np.dtype(get_default_dtype()).str,
           [(p.data.dtype.str, p.data.shape, p.data.tobytes())
            for p in encoder.parameters()])
    entry = _prompt_memo.get(encoder)
    if entry is not None and entry[0] == key:
        return entry[1]
    with no_grad():
        matrix = np.array(encoder().data)
    matrix.setflags(write=False)
    _prompt_memo[encoder] = (key, matrix)
    return matrix


def _cached_dup_flags(lm, encodings, ids: np.ndarray) -> np.ndarray:
    """Duplicate-token flags, memoized on each encoding.

    Pad tokens are special ids and never count as duplicates, so per-row
    flags are padding-invariant and safe to cache with the encoding.  The
    cached copy lives as long as the encoding-cache entry, so it is kept
    as ``int8`` (the flags are 0/1), one byte per token.
    """
    flags = np.zeros_like(ids)
    for i, enc in enumerate(encodings):
        if enc.dup_flags is None:
            n = len(enc.ids)
            enc.dup_flags = lm.duplicate_flags(
                ids[i:i + 1, :n])[0].astype(np.int8)
        flags[i, :len(enc.dup_flags)] = enc.dup_flags
    return flags


def _embed(lm, token_vecs: np.ndarray, flags: np.ndarray) -> np.ndarray:
    seq = token_vecs.shape[1]
    x = token_vecs  # fresh gather (or np.where result) owned by the caller
    x += lm.position_embedding.weight.data[:seq]
    x += lm.duplicate_embedding.weight.data[flags]
    return _apply_dropout(lm.embedding_dropout, _layer_norm(lm.embedding_norm, x))


def _tile(arr: np.ndarray, tile: int) -> np.ndarray:
    return np.tile(arr, (tile,) + (1,) * (arr.ndim - 1)) if tile > 1 else arr


def prompt_forward_encoded(model, encodings: Sequence, tile: int = 1) -> np.ndarray:
    """Fast twin of ``PromptModel.forward_encoded``: (tile * B, 2) probs."""
    lm = model.lm
    ids, pad_mask, is_prompt, prompt_idx, mask_positions = \
        model._assemble(encodings)
    flags = _cached_dup_flags(lm, encodings, ids)
    ids, pad_mask, flags = _tile(ids, tile), _tile(pad_mask, tile), _tile(flags, tile)
    is_prompt, prompt_idx = _tile(is_prompt, tile), _tile(prompt_idx, tile)
    mask_positions = np.tile(mask_positions, tile) if tile > 1 else mask_positions

    token_vecs = lm.token_embedding.weight.data[ids]
    if model.prompt_encoder is not None and is_prompt.any():
        prompt_vecs = prompt_matrix(model.prompt_encoder)  # (P, D)
        gathered = prompt_vecs[prompt_idx.reshape(-1)].reshape(token_vecs.shape)
        token_vecs = np.where(is_prompt[:, :, None], gathered, token_vecs)

    at_mask = encoder_hidden(lm, _embed(lm, token_vecs, flags), pad_mask,
                             rows=mask_positions)  # (B, D)
    h = _layer_norm(lm.mlm_norm, _gelu(_linear(lm.mlm_transform, at_mask)))
    logits = h @ lm.token_embedding.weight.data.T + lm.mlm_bias.data

    probs = _softmax(logits)
    dt = probs.dtype.type
    cols = []
    for label in (0, 1):  # Eq. 1, mirroring Verbalizer.class_probs
        word_ids = model.verbalizer.ids[label]
        cols.append(probs[:, word_ids].sum(axis=1) * dt(1.0 / len(word_ids)))
    scores = np.stack(cols, axis=1)
    return scores / (scores.sum(axis=1, keepdims=True) + dt(1e-12))


def cls_forward_encoded(model, ids: np.ndarray, pad_mask: np.ndarray,
                        encodings: Sequence, tile: int = 1) -> np.ndarray:
    """Fast twin of ``SequenceClassifier.forward_encoded``."""
    lm = model.lm
    flags = _cached_dup_flags(lm, encodings, ids)
    ids, pad_mask, flags = _tile(ids, tile), _tile(pad_mask, tile), _tile(flags, tile)

    token_vecs = lm.token_embedding.weight.data[ids]
    cls = encoder_hidden(lm, _embed(lm, token_vecs, flags), pad_mask,
                         rows=np.zeros(len(ids), dtype=np.int64))
    pooled = np.tanh(_linear(lm.pooler, cls))
    pooled = _apply_dropout(model.head_dropout, pooled)
    return _softmax(_linear(model.head, pooled))
