"""TenantRegistry: hundreds of KB-scale deltas over one shared backbone.

The registry owns the multi-tenant side of serving:

* it **registers** tenant directories (each a
  :class:`~repro.serve.delta.DeltaBundle`) and hot-loads them on demand
  into materialized modules (a :class:`~repro.core.peft.SoftPrompt`,
  optionally per-layer :class:`~repro.core.peft.Adapter` pairs), keeping
  at most ``capacity`` tenants resident under LRU eviction (registered
  paths survive eviction; the delta reloads on next use -- it is KBs);
* it **binds** a tenant onto the shared backbone by mutation -- swapping
  the model's ``prompt_encoder`` and attaching/removing adapters between
  micro-batches.  The scheduler is single-threaded, so a bind is never
  observed mid-batch; ``bind(None)`` restores the pristine base model;
* it **pins** correctness: a delta records the sha1 fingerprint of the
  backbone it was tuned against and the registry refuses to bind it onto
  any other weights (a mismatched delta would be silently wrong);
* it **fuses** mixed-tenant micro-batches: soft-prompt tenants differ
  only in their ``(P, D)`` prompt matrix, so one batch can score rows of
  several tenants in a single fastpath call by stacking the per-tenant
  matrices into ``(T*P, D)`` and offsetting each row's gather indices by
  ``slot * P`` (see :meth:`fused_probs`).  Adapter tenants change the
  transformer stack itself and are never fused -- the server schedules
  them same-tenant-only.

Encodings are tenant-independent (the template/tokenizer is shared), so
the engine's content-addressed ``EncodingCache`` is shared across all
tenants; only class probabilities are tenant-specific.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..autograd import no_grad
from ..autograd.tensor import get_default_dtype
from ..core.peft import (
    ADAPTER_SLOTS, Adapter, SoftPrompt, attach_adapters, remove_adapters,
)
from ..infer.fastpath import prompt_forward_encoded, prompt_matrix
from ..obs import get_telemetry
from .bundle import BundleError, _MANIFEST_FILE
from .delta import DeltaBundle, backbone_fingerprint

PathLike = Union[str, Path]

_PROMPT_KEY = "prompt_encoder.embeddings"


class TenantError(BundleError):
    """A tenant delta cannot be loaded or bound (pin/shape/structure)."""


class UnknownTenant(KeyError):
    """A request named a tenant the registry has never heard of."""


class TenantEntry:
    """One loaded tenant: materialized delta modules + threshold."""

    __slots__ = ("name", "peft", "threshold", "soft_prompt", "adapters",
                 "fingerprint", "param_count", "nbytes")

    def __init__(self, name: str, peft: str, threshold: Optional[float],
                 soft_prompt: Optional[SoftPrompt],
                 adapters: Optional[List[Adapter]], fingerprint: str,
                 param_count: int, nbytes: int) -> None:
        self.name = name
        self.peft = peft
        self.threshold = threshold
        self.soft_prompt = soft_prompt
        self.adapters = adapters
        self.fingerprint = fingerprint
        self.param_count = param_count
        self.nbytes = nbytes

    @property
    def fusable(self) -> bool:
        """Only pure prompt-matrix deltas can share a fused batch."""
        return self.soft_prompt is not None and not self.adapters


class _FusedPromptView:
    """Duck-typed model view for one mixed-tenant fastpath call.

    Presents the base model's ``lm``/``verbalizer``/``_assemble`` with a
    stacked ``(T*P, D)`` prompt table; row ``i`` gathers from block
    ``slots[i]`` via a per-row index offset.  Offsets are also added at
    non-prompt positions, which is safe: the offset index stays in range
    and ``np.where(is_prompt, ...)`` discards the gathered value there.
    """

    def __init__(self, base, stack: np.ndarray, slots: np.ndarray,
                 num_tokens: int) -> None:
        self._base = base
        self._stack = stack
        self._slots = slots
        self._num_tokens = num_tokens
        self.lm = base.lm
        self.verbalizer = base.verbalizer
        self.tokenizer = base.tokenizer

    def prompt_encoder(self):
        return SimpleNamespace(data=self._stack)

    def _assemble(self, encodings):
        ids, pad_mask, is_prompt, prompt_idx, mask_positions = \
            self._base._assemble(encodings)
        prompt_idx = prompt_idx + self._slots[:, None] * self._num_tokens
        return ids, pad_mask, is_prompt, prompt_idx, mask_positions


class TenantRegistry:
    """LRU-managed tenant deltas bindable onto one shared backbone."""

    def __init__(self, capacity: int = 64,
                 tenants_dir: Optional[PathLike] = None) -> None:
        if capacity < 1:
            raise ValueError("registry capacity must be >= 1")
        self.capacity = capacity
        self._paths: Dict[str, Path] = {}
        self._loaded: "OrderedDict[str, TenantEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self._model = None
        self._fingerprint: Optional[str] = None
        self._base_prompt_encoder = None
        self._bound: Optional[str] = None
        if tenants_dir is not None:
            self.load_dir(tenants_dir)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, path: PathLike) -> None:
        """Register a tenant directory; the delta loads lazily on first use."""
        path = Path(path)
        if not (path / _MANIFEST_FILE).exists():
            raise BundleError(f"{path} is not a delta bundle "
                              f"(no {_MANIFEST_FILE})")
        with self._lock:
            self._paths[name] = path
            # a re-register invalidates any resident materialization
            if name in self._loaded:
                if name == self._bound:
                    self.bind(None)
                del self._loaded[name]

    def load_dir(self, path: PathLike) -> int:
        """Register every subdirectory holding a delta manifest."""
        path = Path(path)
        if not path.is_dir():
            raise BundleError(f"{path} is not a tenants directory")
        count = 0
        for child in sorted(path.iterdir()):
            if child.is_dir() and (child / _MANIFEST_FILE).exists():
                self.register(child.name, child)
                count += 1
        if count == 0:
            raise BundleError(f"{path} contains no delta bundles")
        return count

    def has(self, name: Optional[str]) -> bool:
        if name is None:
            return True
        with self._lock:
            return name in self._paths

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._paths)

    # ------------------------------------------------------------------
    # Backbone attachment
    # ------------------------------------------------------------------
    def attach(self, model) -> None:
        """Point the registry at the (possibly hot-swapped) backbone.

        Recomputes the fingerprint the deltas are pinned against, drops
        every materialization (entries built against the old weights are
        stale -- they reload from their registered paths on demand), and
        remembers the pristine ``prompt_encoder`` to restore on unbind.
        """
        with self._lock:
            if self._model is not None and self._bound is not None:
                self.bind(None)
            self._model = model
            self._fingerprint = backbone_fingerprint(model.lm)
            self._base_prompt_encoder = model.prompt_encoder
            self._bound = None
            self._loaded.clear()

    @property
    def model(self):
        """The attached backbone (the scheduler checks snapshot identity)."""
        return self._model

    @property
    def fingerprint(self) -> Optional[str]:
        return self._fingerprint

    @property
    def bound(self) -> Optional[str]:
        return self._bound

    def _require_model(self):
        if self._model is None:
            raise TenantError("registry has no backbone; attach(model) first")
        return self._model

    # ------------------------------------------------------------------
    # Loading / eviction
    # ------------------------------------------------------------------
    def entry(self, name: str) -> TenantEntry:
        """The materialized delta for ``name``, hot-loading if needed."""
        with self._lock:
            if name in self._loaded:
                self._loaded.move_to_end(name)
                return self._loaded[name]
            path = self._paths.get(name)
            if path is None:
                raise UnknownTenant(name)
            entry = self._materialize(name, DeltaBundle.load(path))
            self._loaded[name] = entry
            tel = get_telemetry()
            if tel.enabled:
                tel.metrics.counter("tenant.loads").inc()
            while len(self._loaded) > self.capacity:
                victim = next(iter(self._loaded))
                if victim == self._bound:
                    # never evict the tenant currently on the backbone;
                    # it is by definition the hottest entry
                    self._loaded.move_to_end(victim)
                    victim = next(iter(self._loaded))
                    if victim == name or victim == self._bound:
                        break
                del self._loaded[victim]
                if tel.enabled:
                    tel.metrics.counter("tenant.evictions").inc()
            return entry

    def _materialize(self, name: str, delta: DeltaBundle) -> TenantEntry:
        model = self._require_model()
        if delta.fingerprint != self._fingerprint:
            raise TenantError(
                f"tenant {name!r} is pinned to backbone "
                f"{delta.fingerprint[:12]!r} but the registry serves "
                f"{str(self._fingerprint)[:12]!r}; re-tune the delta "
                f"against the deployed backbone")
        dtype = get_default_dtype()
        state = {k: np.asarray(v, dtype=dtype) for k, v in delta.state.items()}
        soft_prompt = None
        if _PROMPT_KEY in state:
            num_tokens = model.template.num_prompt_tokens
            if num_tokens <= 0:
                raise TenantError(
                    f"tenant {name!r} carries a soft prompt but the "
                    f"backbone template has no prompt slots")
            soft_prompt = SoftPrompt(num_tokens, model.lm.config.d_model,
                                     init=state.pop(_PROMPT_KEY))
        adapters: Optional[List[Adapter]] = None
        if delta.peft == "adapter":
            adapters = []
            d_model = model.lm.config.d_model
            for i in range(len(model.lm.encoder.layers)):
                for slot in ADAPTER_SLOTS:
                    prefix = f"lm.encoder.layer{i}.{slot}."
                    try:
                        down_w = state.pop(prefix + "down.weight")
                        down_b = state.pop(prefix + "down.bias")
                        up_w = state.pop(prefix + "up.weight")
                        up_b = state.pop(prefix + "up.bias")
                    except KeyError as exc:
                        raise TenantError(
                            f"tenant {name!r} delta is missing {exc.args[0]}"
                        ) from None
                    adapter = Adapter(d_model, down_w.shape[1])
                    adapter.down.weight.data = down_w.copy()
                    adapter.down.bias.data = down_b.copy()
                    adapter.up.weight.data = up_w.copy()
                    adapter.up.bias.data = up_b.copy()
                    adapters.append(adapter)
        if state:
            raise TenantError(
                f"tenant {name!r} delta has unrecognized entries "
                f"{sorted(state)}")
        return TenantEntry(
            name=name, peft=delta.peft, threshold=delta.threshold,
            soft_prompt=soft_prompt, adapters=adapters,
            fingerprint=delta.fingerprint, param_count=delta.param_count,
            nbytes=delta.nbytes())

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    @staticmethod
    def _set_prompt_encoder(model, encoder) -> None:
        if encoder is None:
            # Module.__setattr__ would leave the old child registered
            model._modules.pop("prompt_encoder", None)
            object.__setattr__(model, "prompt_encoder", None)
        else:
            model.prompt_encoder = encoder

    def bind(self, name: Optional[str]) -> Optional[TenantEntry]:
        """Mutate the shared backbone to serve ``name`` (None = base).

        Called by the scheduler between micro-batches; a no-op when the
        tenant is already bound.  Returns the bound entry (None for the
        base model).
        """
        with self._lock:
            model = self._require_model()
            if name == self._bound:
                if name is not None:
                    self._loaded.move_to_end(name)
                    return self._loaded[name]
                return None
            if self._bound is not None:
                remove_adapters(model.lm)
                self._set_prompt_encoder(model, self._base_prompt_encoder)
                self._bound = None
            if name is None:
                return None
            entry = self.entry(name)
            if entry.soft_prompt is not None:
                self._set_prompt_encoder(model, entry.soft_prompt)
            if entry.adapters:
                attach_adapters(model.lm, entry.adapters)
            self._bound = name
            return entry

    def threshold_for(self, name: Optional[str],
                      default: Optional[float]) -> Optional[float]:
        if name is None:
            return default
        threshold = self.entry(name).threshold
        return default if threshold is None else threshold

    # ------------------------------------------------------------------
    # Mixed-tenant fusion
    # ------------------------------------------------------------------
    def fusable(self, name: Optional[str]) -> bool:
        """Can rows of this tenant share a batch with other tenants?

        The base model (``None``) fuses when its template has prompt
        slots; a tenant fuses when its delta is a pure soft prompt.
        Adapter tenants mutate the transformer stack and never fuse.
        """
        model = self._require_model()
        if name is None:
            return (model.template.num_prompt_tokens > 0
                    and self._base_prompt_encoder is not None)
        if not self.has(name):
            raise UnknownTenant(name)
        return self.entry(name).fusable

    def _prompt_matrix(self, name: Optional[str]) -> np.ndarray:
        if name is None:
            return prompt_matrix(self._base_prompt_encoder)
        entry = self.entry(name)
        if not entry.fusable:
            raise TenantError(f"tenant {name!r} ({entry.peft}) cannot be "
                              f"fused into a mixed batch")
        return entry.soft_prompt.embeddings.data

    def fused_probs(self, engine, pairs: Sequence,
                    tenants: Sequence[Optional[str]]) -> np.ndarray:
        """Score one mixed-tenant micro-batch in a single fastpath call.

        All named tenants must be fusable (pure soft prompts).  The base
        backbone is restored first (``bind(None)``), so adapter state from
        a previous serial batch can never leak into a fused one.
        """
        if len(pairs) != len(tenants):
            raise ValueError("one tenant id per pair required")
        with self._lock:
            model = self._require_model()
            self.bind(None)
            num_tokens = model.template.num_prompt_tokens
            if num_tokens <= 0:
                raise TenantError(
                    "mixed-tenant fusion requires a continuous template")
            encodings = engine.encodings(model, pairs)
            slot_of: Dict[Optional[str], int] = {}
            matrices: List[np.ndarray] = []
            for tenant in tenants:
                if tenant not in slot_of:
                    slot_of[tenant] = len(matrices)
                    matrices.append(self._prompt_matrix(tenant))
            stack = np.concatenate(matrices, axis=0)
            slots = np.array([slot_of[t] for t in tenants], dtype=np.int64)
            view = _FusedPromptView(model, stack, slots, num_tokens)
            was_training = model.training
            model.train(False)
            try:
                with no_grad():
                    return prompt_forward_encoded(view, encodings)
            finally:
                model.train(was_training)

    # ------------------------------------------------------------------
    def note_request(self, name: Optional[str], count: int = 1) -> None:
        """Per-tenant request accounting (``tenant.requests.<name>``)."""
        tel = get_telemetry()
        if tel.enabled:
            label = name if name is not None else "_default"
            tel.metrics.counter(f"tenant.requests.{label}").inc(count)

    def stats(self) -> dict:
        with self._lock:
            return {
                "registered": len(self._paths),
                "loaded": len(self._loaded),
                "capacity": self.capacity,
                "bound": self._bound,
                "delta_bytes": int(sum(e.nbytes
                                       for e in self._loaded.values())),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"TenantRegistry(registered={len(self._paths)}, "
                f"loaded={len(self._loaded)}/{self.capacity}, "
                f"bound={self._bound!r})")
