"""Core layers: Linear, Embedding, LayerNorm, Dropout, Sequential, MLP."""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, get_default_dtype


class Linear(Module):
    """Affine map ``y = x W + b`` with W of shape (in_features, out_features)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None, bias: bool = True) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None,
                 padding_idx: Optional[int] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        table = init.normal((num_embeddings, embedding_dim), rng)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.weight = Parameter(table)

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.weight, indices)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, self.eps)


@dataclass(frozen=True)
class DropoutPlan:
    """Deterministic per-pass dropout seeding for MC-Dropout.

    While a plan is active (see :func:`dropout_plan`), every Dropout module
    derives its mask from ``(base_seed, pass_seed, batch_index, seed_salt)``
    instead of its own stateful rng. ``pass_seeds`` with more than one entry
    declares the batch axis *tiled*: rows are split into ``len(pass_seeds)``
    equal tiles and tile ``k`` gets the mask seeded by ``pass_seeds[k]`` --
    exactly the mask a sequential pass with ``pass_seeds=(k,)`` would draw.
    This is what lets the vectorized MC-Dropout path reproduce the
    sequential one bit-for-bit (paper Section 4.2 uncertainty estimates).
    """

    base_seed: int
    pass_seeds: Tuple[int, ...] = (0,)
    batch_index: int = 0


_ACTIVE_DROPOUT_PLAN: Optional[DropoutPlan] = None

#: monotone per-instance salt so sibling Dropouts decorrelate under a plan
_DROPOUT_SALTS = itertools.count()


def active_dropout_plan() -> Optional[DropoutPlan]:
    """The plan installed by the innermost :func:`dropout_plan`, if any."""
    return _ACTIVE_DROPOUT_PLAN


@contextmanager
def dropout_plan(plan: Optional[DropoutPlan]):
    """Install a :class:`DropoutPlan` for the duration of the block."""
    global _ACTIVE_DROPOUT_PLAN
    previous = _ACTIVE_DROPOUT_PLAN
    _ACTIVE_DROPOUT_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_DROPOUT_PLAN = previous


class Dropout(Module):
    """Inverted dropout driven by the module's training flag.

    The per-module ``rng`` makes stochastic forward passes reproducible,
    which matters for MC-Dropout uncertainty estimates (paper Section 4.2).
    A per-call ``seed`` (or an active :class:`DropoutPlan`) switches to
    counter-based masks derived from the seed and this module's
    ``seed_salt``, making individual passes replayable and allowing the
    vectorized MC-Dropout path to match the sequential one exactly.
    """

    def __init__(self, p: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()
        self.seed_salt = next(_DROPOUT_SALTS)

    def _seeded_mask(self, shape, seeds: Sequence[int],
                     batch_index: int, base_seed: int,
                     dtype=None) -> Optional[np.ndarray]:
        """Tile-wise mask: rows split across ``seeds``; None if not tileable.

        Built in ``dtype`` (default: the autograd default dtype) in one
        pass: each tile's float64 draws ``u`` become ``(u >= p) * s`` with
        ``s = dtype(1 / (1 - p))``, written straight into its slice. The
        kept entries are exactly ``s``, so the mask is byte-identical to
        ``((u >= p) / (1 - p)).astype(dtype)``.
        """
        tiles = len(seeds)
        if not shape or shape[0] % tiles != 0:
            return None
        dtype = np.dtype(dtype if dtype is not None else get_default_dtype())
        scale = dtype.type(1.0 / (1.0 - self.p))
        per = shape[0] // tiles
        mask = np.empty(shape, dtype)
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(
                [int(base_seed), int(seed), int(batch_index), self.seed_salt])
            np.multiply(rng.random((per,) + tuple(shape[1:])) >= self.p,
                        scale, out=mask[k * per:(k + 1) * per])
        return mask

    def forward(self, x: Tensor, seed: Optional[int] = None) -> Tensor:
        if not self.training or self.p <= 0.0:
            return x
        if seed is not None:
            mask = self._seeded_mask(x.shape, (int(seed),), 0, 0)
            if mask is not None:
                return x * Tensor(mask)
        plan = active_dropout_plan()
        if plan is not None:
            mask = self._seeded_mask(x.shape, plan.pass_seeds,
                                     plan.batch_index, plan.base_seed)
            if mask is not None:
                return x * Tensor(mask)
        return F.dropout(x, self.p, self.training, rng=self.rng)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self.register_module(f"layer{i}", layer)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class Activation(Module):
    """Wrap a functional activation as a module (for Sequential)."""

    def __init__(self, fn: Callable[[Tensor], Tensor]) -> None:
        super().__init__()
        self.fn = fn

    def forward(self, x: Tensor) -> Tensor:
        return self.fn(x)


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes and dropout.

    Used by the TDmatch* supervised head (paper Appendix D) and DADER's
    domain discriminator.
    """

    def __init__(self, in_features: int, hidden: Sequence[int], out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 activation: Callable[[Tensor], Tensor] = F.relu,
                 dropout: float = 0.0) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        dims = [in_features, *hidden, out_features]
        layers: list[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng=rng))
            if i < len(dims) - 2:
                layers.append(Activation(activation))
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=np.random.default_rng(rng.integers(2**31))))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
