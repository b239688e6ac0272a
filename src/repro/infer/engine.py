"""Batched inference engine: cached encodings, length-bucketed batches,
single-pass vectorized MC-Dropout.

The paper's hottest loop -- MC-Dropout pseudo-label selection over the
unlabeled pool (Section 4.2), re-run every self-training iteration --
serialized and re-tokenized every candidate pair on every stochastic pass in
the seed implementation. The engine removes four sources of waste:

1. an :class:`~repro.infer.cache.EncodingCache` memoizes the
   serialize -> template-render -> token-id pipeline per pair;
2. *length-bucketed dynamic batching* sorts encodings by token length and
   packs batches under a **token budget** (forwarded rows x
   longest-in-batch; a tiled MC sweep therefore packs ``passes``x fewer
   pairs per bucket), so a short pair never pays for padding up to an
   unrelated long one and batches stay in the size range where numpy's
   memory-bound attention is fastest;
3. *vectorized MC-Dropout* runs all ``passes`` stochastic forwards of a
   batch as one tiled call (ids tiled ``passes``x along the batch axis)
   under a :class:`~repro.autograd.DropoutPlan`, which seeds each tile with
   its pass index so the result is bit-identical to ``passes`` sequential
   forwards over the same buckets;
4. under ``no_grad`` the models' ``forward_encoded`` dispatches to the
   raw-numpy kernels in :mod:`repro.infer.fastpath` -- same math, same
   dropout draws, none of the autograd graph bookkeeping.

Models opt in by implementing ``encode_pair(pair) -> PairEncoding`` and
``forward_encoded(encodings, tile=1) -> Tensor``; anything else (e.g. the
toy test models or DeepMatcher) falls back to plain ``model(batch)`` calls,
still gaining tiled MC-Dropout by repeating the pair list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import DropoutPlan, Module, dropout_plan, no_grad
from ..autograd.tensor import get_default_dtype
from ..data.dataset import CandidatePair
from ..obs import get_telemetry
from ..parallel import WorkerPool, effective_workers, shard_indices
from .cache import EncodingCache


@dataclass
class PairEncoding:
    """One rendered pair: token ids (placeholders allowed) + mask index.

    ``ids`` are stored as ``int32``: an encoding lives as long as its
    encoding-cache entry, and every batch copies it into an ``int64``
    matrix before use.
    """

    ids: np.ndarray
    mask_position: int = 0
    #: memoized duplicate-token flags (filled by the fast path on first use)
    dup_flags: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class EngineConfig:
    """Throughput knobs; quality-neutral by construction."""

    #: max forwarded rows x longest-sequence tokens per batch; a tiled
    #: MC-Dropout sweep divides this across its ``passes`` tiles
    token_budget: int = 2048
    #: hard cap on rows per batch regardless of how short the sequences are
    max_batch_pairs: int = 64
    #: LRU entries kept in the encoding cache; 0 disables caching
    cache_capacity: int = 8192
    #: entropy mixed into every DropoutPlan the engine installs
    base_seed: int = 0
    #: fork this many workers for encoding and for *deterministic* scoring
    #: (eval mode or seeded MC-Dropout); ``<=1`` runs everything in-process.
    #: The worker count never changes results -- buckets keep their global
    #: index (hence their DropoutPlan) wherever they run.
    workers: int = 1
    #: minimum uncached pairs before parallel encode bothers forking a pool
    parallel_encode_min: int = 64

    def __post_init__(self) -> None:
        if self.token_budget < 1:
            raise ValueError("token_budget must be >= 1")
        if self.max_batch_pairs < 1:
            raise ValueError("max_batch_pairs must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")


@dataclass
class EngineStats:
    """Cumulative counters; see :meth:`InferenceEngine.stats_dict`."""

    pairs: int = 0            # logical input pairs scored
    rows: int = 0             # forwarded rows (pairs x passes)
    batches: int = 0
    tokens_real: int = 0      # sum of true sequence lengths over rows
    tokens_padded: int = 0    # rows x longest-in-batch, summed
    elapsed: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    @property
    def pairs_per_sec(self) -> float:
        return self.pairs / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def padding_fraction(self) -> float:
        if self.tokens_padded == 0:
            return 0.0
        return 1.0 - self.tokens_real / self.tokens_padded

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def pack_buckets(lengths: Sequence[int], token_budget: int,
                 max_batch_pairs: int) -> List[np.ndarray]:
    """Length-sorted greedy packing under ``rows x longest <= token_budget``.

    Returns index arrays into the *original* order; every input index
    appears in exactly one bucket. A batch always holds at least one row, so
    a single sequence longer than the budget still runs (alone).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(lengths, kind="stable")
    buckets: List[np.ndarray] = []
    start = 0
    while start < len(order):
        end = start + 1
        # sorted ascending, so order[end - 1] is the longest so far
        while (end < len(order)
               and end - start < max_batch_pairs
               and (end - start + 1) * lengths[order[end]] <= token_budget):
            end += 1
        buckets.append(order[start:end])
        start = end
    return buckets


class InferenceEngine:
    """Shared batched scorer for PromptEM, fine-tuning and the LM baselines.

    Stateless with respect to model weights: every public method takes the
    model as an argument, so one engine (and its encoding cache) can serve
    the teacher, the student and final prediction within a run, as long as
    all of them share the same tokenizer/template/serialization (which
    ``encoding_fingerprint`` keys guard).
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        self.cache = EncodingCache(self.config.cache_capacity)
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    @staticmethod
    def _supports_encoding(model: Module) -> bool:
        return (hasattr(model, "encode_pair")
                and hasattr(model, "forward_encoded"))

    def _encodings(self, model: Module,
                   pairs: Sequence[CandidatePair]) -> List[PairEncoding]:
        fingerprint = model.encoding_fingerprint() \
            if hasattr(model, "encoding_fingerprint") else id(model)
        # keys are content-addressed (id + kind + values), not id-only: the
        # serving path shares this cache across requests and may replace a
        # catalog record under an existing id, which must not hit the old
        # entry
        keys = [(fingerprint, pair.left.content_key(),
                 pair.right.content_key())
                for pair in pairs]
        prefetched = self._parallel_encode(model, pairs, keys)
        out = []
        for pair, key in zip(pairs, keys):
            def encode(p=pair, k=key):
                ready = prefetched.get(k)
                return ready if ready is not None else model.encode_pair(p)
            out.append(self.cache.get_or_encode(key, encode))
        return out

    def _parallel_encode(self, model: Module,
                         pairs: Sequence[CandidatePair],
                         keys: Sequence[tuple]) -> dict:
        """Pre-encode the uncached pairs on a forked pool; {key: encoding}.

        ``encode_pair`` is deterministic, so where it runs cannot matter;
        results are fed back through the cache's normal ``get_or_encode``
        accounting so hit/miss counters match the serial path.
        """
        workers = effective_workers(self.config.workers)
        if workers <= 1:
            return {}
        seen = set()
        missing = []
        for i, key in enumerate(keys):
            if key not in self.cache and key not in seen:
                seen.add(key)
                missing.append(i)
        if len(missing) < max(self.config.parallel_encode_min, workers):
            return {}

        def encode_chunk(chunk):
            return [model.encode_pair(pairs[missing[j]]) for j in chunk]

        chunks = shard_indices(len(missing), workers)
        with WorkerPool(workers, encode_chunk) as pool:
            encoded_chunks = pool.map(chunks)
        prefetched = {}
        for chunk, encoded in zip(chunks, encoded_chunks):
            for j, encoding in zip(chunk, encoded):
                prefetched[keys[missing[int(j)]]] = encoding
        return prefetched

    def encodings(self, model: Module,
                  pairs: Sequence[CandidatePair]) -> List[PairEncoding]:
        """Cached per-pair encodings (``model.encode_pair`` memoized).

        Public so the trainer's token-budget batching can reuse the same
        cache entries that per-epoch validation and final prediction hit.
        The model must support the encoding protocol (``encode_pair``).
        """
        return self._encodings(model, pairs)

    # ------------------------------------------------------------------
    # Core batched runner
    # ------------------------------------------------------------------
    def _run(self, model: Module, pairs: Sequence[CandidatePair],
             training: bool,
             pass_seeds: Optional[Tuple[int, ...]] = None,
             pack_tiles: Optional[int] = None) -> np.ndarray:
        """Score ``pairs``; returns (P, N, 2) with P = len(pass_seeds) or 1.

        ``pass_seeds=None`` leaves the model's own dropout rngs in charge
        (legacy stochastic behaviour); a tuple installs a
        :class:`DropoutPlan` per batch, tiling the batch ``len(pass_seeds)``
        times so all passes run in one forward. ``pack_tiles`` overrides the
        tile count used for *bucket packing* only -- the sequential
        MC-Dropout reference passes the full pass count here so it partitions
        pairs exactly like the vectorized sweep (same buckets -> same
        ``batch_index`` -> same dropout masks).
        """
        tiles = len(pass_seeds) if pass_seeds else 1
        if pack_tiles is None:
            pack_tiles = tiles
        dtype = get_default_dtype()
        if not pairs:
            return np.zeros((tiles, 0, 2), dtype=dtype)

        started = time.perf_counter()
        hits0, misses0 = self.cache.hits, self.cache.misses
        evictions0, batches0 = self.cache.evictions, self.stats.batches
        was_training = model.training
        model.train(training)
        out = np.zeros((tiles, len(pairs), 2), dtype=dtype)
        try:
            with no_grad():
                if self._supports_encoding(model):
                    self._run_encoded(model, pairs, out, pass_seeds,
                                      pack_tiles)
                else:
                    self._run_fallback(model, pairs, out, pass_seeds)
        finally:
            model.train(was_training)
        elapsed = time.perf_counter() - started
        self.stats.pairs += len(pairs)
        self.stats.rows += tiles * len(pairs)
        self.stats.elapsed += elapsed
        self.stats.cache_hits += self.cache.hits - hits0
        self.stats.cache_misses += self.cache.misses - misses0
        self.stats.cache_evictions += self.cache.evictions - evictions0
        tel = get_telemetry()
        if tel.enabled:
            metrics = tel.metrics
            metrics.counter("engine.pairs").inc(len(pairs))
            metrics.counter("engine.rows").inc(tiles * len(pairs))
            metrics.counter("engine.batches").inc(
                self.stats.batches - batches0)
            metrics.counter("engine.cache.hits").inc(
                self.cache.hits - hits0)
            metrics.counter("engine.cache.misses").inc(
                self.cache.misses - misses0)
            metrics.counter("engine.cache.evictions").inc(
                self.cache.evictions - evictions0)
            metrics.gauge("engine.cache.hit_rate").set(self.cache.hit_rate)
            metrics.gauge("engine.cache.entries").set(len(self.cache))
            metrics.timer("engine.run_seconds").observe(elapsed)
        return out

    def _run_encoded(self, model: Module, pairs: Sequence[CandidatePair],
                     out: np.ndarray,
                     pass_seeds: Optional[Tuple[int, ...]],
                     pack_tiles: int) -> None:
        tiles = out.shape[0]
        encodings = self._encodings(model, pairs)
        lengths = [len(e) for e in encodings]
        # The budget bounds the rows actually forwarded, so a tiled
        # MC-Dropout sweep packs `pack_tiles`x fewer pairs per bucket -- big
        # flat batches are slower here (numpy attention is memory-bound).
        buckets = pack_buckets(lengths,
                               max(self.config.token_budget // pack_tiles, 1),
                               self.config.max_batch_pairs)
        workers = effective_workers(self.config.workers)
        # Parallel only when every bucket's result is pinned by explicit
        # seeds (or dropout is off entirely): an unseeded training-mode pass
        # consumes the Dropout modules' own rng state, which only exists in
        # one process.
        deterministic = pass_seeds is not None or not model.training
        if workers > 1 and deterministic and len(buckets) > 1:
            probs_per_bucket = self._run_buckets_parallel(
                model, encodings, buckets, tiles, pass_seeds, workers)
        else:
            probs_per_bucket = None
        for batch_index, idx in enumerate(buckets):
            batch = [encodings[i] for i in idx]
            longest = max(len(e) for e in batch)
            if probs_per_bucket is None:
                plan = self._plan(pass_seeds, batch_index)
                with dropout_plan(plan):
                    probs = model.forward_encoded(batch, tile=tiles).numpy()
            else:
                probs = probs_per_bucket[batch_index]
            out[:, idx, :] = probs.reshape(tiles, len(idx), 2)
            self.stats.batches += 1
            self.stats.tokens_real += tiles * sum(len(e) for e in batch)
            self.stats.tokens_padded += tiles * len(batch) * longest

    def _run_buckets_parallel(self, model: Module,
                              encodings: Sequence[PairEncoding],
                              buckets: Sequence[np.ndarray], tiles: int,
                              pass_seeds: Optional[Tuple[int, ...]],
                              workers: int) -> List[np.ndarray]:
        """Forward the packed buckets on a forked pool, one task per bucket.

        Bucket ``b`` runs on worker ``b % workers`` but keeps its *global*
        index in the DropoutPlan, so every stochastic draw matches the
        serial loop exactly -- the parallel sweep is a re-stitching of the
        identical per-bucket results.
        """

        def run_bucket(batch_index):
            idx = buckets[batch_index]
            batch = [encodings[i] for i in idx]
            plan = self._plan(pass_seeds, batch_index)
            with dropout_plan(plan):
                return model.forward_encoded(batch, tile=tiles).numpy()

        with WorkerPool(workers, run_bucket) as pool:
            return pool.map(range(len(buckets)))

    def _run_fallback(self, model: Module, pairs: Sequence[CandidatePair],
                      out: np.ndarray,
                      pass_seeds: Optional[Tuple[int, ...]]) -> None:
        tiles = out.shape[0]
        step = self.config.max_batch_pairs
        for batch_index, start in enumerate(range(0, len(pairs), step)):
            batch = list(pairs[start:start + step])
            plan = self._plan(pass_seeds, batch_index)
            with dropout_plan(plan):
                probs = model(batch * tiles if tiles > 1 else batch).numpy()
            out[:, start:start + len(batch), :] = \
                probs.reshape(tiles, len(batch), 2)
            self.stats.batches += 1

    def _plan(self, pass_seeds: Optional[Tuple[int, ...]],
              batch_index: int) -> Optional[DropoutPlan]:
        if pass_seeds is None:
            return None
        return DropoutPlan(base_seed=self.config.base_seed,
                           pass_seeds=tuple(int(s) for s in pass_seeds),
                           batch_index=batch_index)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def predict_proba(self, model: Module,
                      pairs: Sequence[CandidatePair]) -> np.ndarray:
        """(N, 2) class probabilities in eval mode, original input order."""
        return self._run(model, pairs, training=False)[0]

    def stochastic_proba(self, model: Module, pairs: Sequence[CandidatePair],
                         pass_seed: Optional[int] = None) -> np.ndarray:
        """One stochastic forward (dropout active).

        ``pass_seed`` pins the dropout masks of this pass (replayable);
        ``None`` draws from each Dropout module's own rng as the seed
        implementation did.
        """
        seeds = (int(pass_seed),) if pass_seed is not None else None
        return self._run(model, pairs, training=True, pass_seeds=seeds)[0]

    def mc_dropout_proba(self, model: Module, pairs: Sequence[CandidatePair],
                         passes: int, seed: int = 0,
                         vectorized: bool = True) -> np.ndarray:
        """(passes, N, 2) stochastic probabilities, one tiled forward per
        bucket when ``vectorized`` (the fast path); the sequential reference
        path uses the same per-pass seeds and is bit-identical."""
        if passes < 1:
            raise ValueError("need at least one stochastic pass")
        pass_seeds = tuple(int(seed) * 1_000_003 + k for k in range(passes))
        if vectorized:
            return self._run(model, pairs, training=True,
                             pass_seeds=pass_seeds)
        rows = [self._run(model, pairs, training=True, pass_seeds=(s,),
                          pack_tiles=passes)[0]
                for s in pass_seeds]
        dtype = get_default_dtype()
        if not pairs:
            return np.zeros((passes, 0, 2), dtype=dtype)
        return np.stack(rows).astype(dtype, copy=False)

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        self.stats = EngineStats()
        self.cache.reset_counters()

    def stats_dict(self) -> dict:
        s = self.stats
        return {
            "pairs": s.pairs, "rows": s.rows, "batches": s.batches,
            "elapsed": s.elapsed,
            "pairs_per_sec": s.pairs_per_sec,
            "padding_fraction": s.padding_fraction,
            "cache_hits": s.cache_hits,
            "cache_misses": s.cache_misses,
            "cache_evictions": s.cache_evictions,
            "cache_hit_rate": s.cache_hit_rate,
            "cache_entries": len(self.cache),
        }
