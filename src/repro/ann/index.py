"""ANN indexes over int8-quantized record embeddings.

Two implementations behind one :class:`AnnIndex` interface:

* :class:`LshIndex` -- random-hyperplane band hashing.  O(1) build per
  vector, no training step; recall is tuned with ``num_bands`` /
  ``band_bits`` / ``probes`` (multi-probe bit flips);
* :class:`IvfIndex` -- inverted-file index with a k-means coarse
  quantizer.  Pays a one-time training cost, then probes only the
  ``nprobe`` nearest centroid lists per query; recall is tuned with
  ``nlist`` / ``nprobe``.

Both share the mutable-catalog semantics of
:class:`repro.serve.ServingIndex`: ``add`` of an existing id *replaces*
the old vector atomically (returns ``False``), ``remove`` unlinks, and
``search`` orders results by the same deterministic ``(-score,
record_id)`` rule so equal scores never reorder between calls or runs.
Hyperplanes and k-means are seeded, making a rebuilt index bit-identical.

Rows come from a :class:`repro.data.rowstore.RowStore` (id <-> row
ribbon, tombstone free list, ``codes`` / ``scales`` columns), the store
the sparse and CLK indexes use too.  Mutations hold the index lock;
``search`` holds it only long enough to gather the probed rows' codes
into private arrays, then scores and sorts outside it, so a concurrent
in-place replace can never produce a torn read.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..data.rowstore import RowStore
from .kernels import fused_scaled_dot, quantize_int8, topk_candidates

#: initial row capacity of the code store (doubles on growth)
_MIN_CAPACITY = 256


def kmeans(vectors: np.ndarray, k: int, seed: int = 0,
           iters: int = 8) -> np.ndarray:
    """Seeded Lloyd's k-means on unit vectors; returns (k, D) centroids.

    Initialization samples ``k`` distinct rows with a seeded generator;
    assignment maximizes the dot product (equivalent to minimizing L2 on
    normalized inputs).  An emptied cluster is re-seeded deterministically
    to the point worst-served by its current centroid.  Same inputs + seed
    -> bit-identical centroids, which is what makes IVF probing
    reproducible run-to-run.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    if n == 0 or k < 1:
        raise ValueError("kmeans needs k >= 1 and at least one vector")
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centroids = vectors[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(iters):
        sims = vectors @ centroids.T                     # (n, k)
        assign = sims.argmax(axis=1)
        best = sims[np.arange(n), assign]
        for c in range(k):
            members = assign == c
            if members.any():
                centroid = vectors[members].mean(axis=0)
                norm = np.linalg.norm(centroid)
                centroids[c] = centroid / norm if norm > 0 else centroid
            else:
                # deterministically steal the point its centroid serves worst
                worst = int(best.argmin())
                centroids[c] = vectors[worst]
                best[worst] = np.inf
    return centroids


class AnnIndex:
    """Interface + shared int8 storage for approximate-nearest-neighbor
    indexes over a mutable catalog of ``record_id -> vector``.

    Subclasses implement ``_link(row, vector)`` / ``_unlink(row)`` to
    maintain their routing structure and ``_probe(query)`` to return the
    candidate storage rows for a query; ``search`` handles exact int8
    re-ranking and deterministic ordering.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self._lock = threading.RLock()
        self._store = RowStore(_MIN_CAPACITY,
                               codes=((self.dim,), np.int8, 0),
                               scales=((), np.float32, 1.0))

    # -- catalog protocol ----------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, record_id: str) -> bool:
        with self._lock:
            return record_id in self._store

    def add(self, record_id: str, vector: np.ndarray) -> bool:
        """Insert (or replace) one vector; ``False`` means replaced."""
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ValueError(
                f"vector has dim {vector.shape[0]}, index expects {self.dim}")
        codes, scales = quantize_int8(vector[None, :])
        with self._lock:
            fresh = record_id not in self._store
            if not fresh:
                self._drop(record_id)
            row = self._store.take(record_id)
            self._store["codes"][row] = codes[0]
            self._store["scales"][row] = scales[0]
            self._link(row, vector)
        return fresh

    def add_many(self, items: Iterable[Tuple[str, np.ndarray]]) -> int:
        """Bulk insert; returns the number of *new* ids."""
        return sum(1 for record_id, vector in items
                   if self.add(record_id, vector))

    def remove(self, record_id: str) -> bool:
        """Drop a record by id; ``False`` when the id is unknown."""
        with self._lock:
            if record_id not in self._store:
                return False
            self._drop(record_id)
        return True

    def _drop(self, record_id: str) -> None:
        # caller holds the lock
        self._unlink(self._store.release(record_id))

    # -- routing hooks --------------------------------------------------
    def _link(self, row: int, vector: np.ndarray) -> None:
        raise NotImplementedError

    def _unlink(self, row: int) -> None:
        raise NotImplementedError

    def _probe(self, query: np.ndarray) -> np.ndarray:
        """Candidate storage rows for a query (caller holds the lock)."""
        raise NotImplementedError

    # -- search ---------------------------------------------------------
    def search(self, query: np.ndarray, k: int
               ) -> List[Tuple[str, float]]:
        """Top-k ``(record_id, score)`` by quantized inner product.

        Ordered by ``(-score, record_id)``; ties at the k-th score are
        resolved by id, never by storage order.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query = np.ascontiguousarray(
            np.asarray(query, dtype=np.float32).reshape(-1))
        if query.shape[0] != self.dim:
            raise ValueError(
                f"query has dim {query.shape[0]}, index expects {self.dim}")
        with self._lock:
            rows = self._probe(query)
            if len(rows) == 0:
                return []
            # snapshot the probed rows under the lock: a concurrent
            # replace writes codes in place, so scoring must not read them
            codes = self._store["codes"][rows]
            scales = self._store["scales"][rows]
            ids = list(self._store.ids)
        scores = fused_scaled_dot(query, codes, scales)
        keep = topk_candidates(scores, k)
        ranked = sorted(((float(scores[i]), ids[rows[i]]) for i in keep),
                        key=lambda item: (-item[0], item[1]))
        return [(record_id, score) for score, record_id in ranked[:k]]

    def stats(self) -> dict:
        with self._lock:
            return {
                "records": len(self._store),
                "capacity": self._store.capacity,
                "tombstones": len(self._store.free),
                "dim": self.dim,
            }


class LshIndex(AnnIndex):
    """Random-hyperplane LSH with banded signatures.

    Each of ``num_bands`` bands hashes a vector to a ``band_bits``-bit key
    (sign pattern against seeded hyperplanes); a query probes the union of
    its bands' buckets, optionally widened by ``probes`` single-bit flips
    per band (flipping the planes with the smallest margin first -- the
    standard multi-probe order, deterministic given the query).
    """

    def __init__(self, dim: int, num_bands: int = 16, band_bits: int = 12,
                 probes: int = 0, seed: int = 0) -> None:
        super().__init__(dim)
        if num_bands < 1 or band_bits < 1:
            raise ValueError("num_bands and band_bits must be >= 1")
        if not 0 <= probes <= band_bits:
            raise ValueError("probes must be in [0, band_bits]")
        self.num_bands = num_bands
        self.band_bits = band_bits
        self.probes = probes
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._planes = rng.standard_normal(
            (num_bands, band_bits, dim)).astype(np.float32)
        self._weights = (1 << np.arange(band_bits)).astype(np.int64)
        self._buckets: Dict[Tuple[int, int], set] = {}
        self._row_keys: Dict[int, List[Tuple[int, int]]] = {}

    def _signature(self, vector: np.ndarray) -> np.ndarray:
        """(num_bands,) integer band keys of a vector."""
        proj = self._planes @ vector                 # (bands, bits)
        return ((proj >= 0) @ self._weights).astype(np.int64)

    def _link(self, row: int, vector: np.ndarray) -> None:
        keys = [(band, int(key))
                for band, key in enumerate(self._signature(vector))]
        self._row_keys[row] = keys
        for key in keys:
            self._buckets.setdefault(key, set()).add(row)

    def _unlink(self, row: int) -> None:
        for key in self._row_keys.pop(row, ()):
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del self._buckets[key]

    def _probe(self, query: np.ndarray) -> np.ndarray:
        proj = self._planes @ query                  # (bands, bits)
        bits = proj >= 0
        keys = (bits @ self._weights).astype(np.int64)
        rows: set = set()
        for band in range(self.num_bands):
            rows |= self._buckets.get((band, int(keys[band])), set())
            if self.probes:
                # flip the lowest-margin bits first: those are the planes
                # the query sits closest to, so their flips are the
                # likeliest buckets for true neighbors
                order = np.argsort(np.abs(proj[band]), kind="stable")
                for bit in order[: self.probes]:
                    flipped = int(keys[band]) ^ int(self._weights[bit])
                    rows |= self._buckets.get((band, flipped), set())
        return np.fromiter(rows, dtype=np.int64, count=len(rows))

    def stats(self) -> dict:
        base = super().stats()
        with self._lock:
            base.update({
                "kind": "lsh",
                "bands": self.num_bands,
                "band_bits": self.band_bits,
                "probes": self.probes,
                "buckets": len(self._buckets),
            })
        return base


class IvfIndex(AnnIndex):
    """Inverted-file index with a seeded k-means coarse quantizer.

    Untrained, it degrades to an exact flat scan (every row probed).
    :meth:`train` fits ``nlist`` centroids on a seeded subsample of the
    supplied vectors and re-assigns the whole catalog; subsequent ``add``
    routes each vector to its nearest centroid list.  A query scores the
    centroids, takes the ``nprobe`` best lists (ties broken by list id),
    and re-ranks their members with the fused int8 kernel.
    """

    def __init__(self, dim: int, nlist: int = 64, nprobe: int = 8,
                 seed: int = 0, train_cap: int = 20000,
                 kmeans_iters: int = 8) -> None:
        super().__init__(dim)
        if nlist < 1 or nprobe < 1:
            raise ValueError("nlist and nprobe must be >= 1")
        self.nlist = nlist
        self.nprobe = min(nprobe, nlist)
        self.seed = seed
        self.train_cap = train_cap
        self.kmeans_iters = kmeans_iters
        self._centroids: Optional[np.ndarray] = None   # (nlist, D) float32
        self._lists: List[set] = []
        self._row_list: Dict[int, int] = {}

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def train(self, vectors: np.ndarray) -> "IvfIndex":
        """Fit the coarse quantizer and re-route every stored row."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) training vectors")
        if vectors.shape[0] > self.train_cap:
            rng = np.random.default_rng(self.seed)
            pick = rng.choice(vectors.shape[0], size=self.train_cap,
                              replace=False)
            pick.sort()                       # deterministic row order
            vectors = vectors[pick]
        centroids = kmeans(vectors, self.nlist, seed=self.seed,
                           iters=self.kmeans_iters)
        with self._lock:
            self._centroids = centroids
            self._lists = [set() for _ in range(centroids.shape[0])]
            self._row_list = {}
            codes, scales = self._store["codes"], self._store["scales"]
            for row in self._store.rows.values():
                vector = codes[row].astype(np.float32) * scales[row]
                self._route(row, vector)
        return self

    def _nearest_list(self, vector: np.ndarray) -> int:
        sims = self._centroids @ vector
        # argmax is already lowest-index-first on ties
        return int(sims.argmax())

    def _route(self, row: int, vector: np.ndarray) -> None:
        lst = self._nearest_list(vector)
        self._lists[lst].add(row)
        self._row_list[row] = lst

    def _link(self, row: int, vector: np.ndarray) -> None:
        if self._centroids is not None:
            self._route(row, vector)

    def _unlink(self, row: int) -> None:
        lst = self._row_list.pop(row, None)
        if lst is not None:
            self._lists[lst].discard(row)

    def _probe(self, query: np.ndarray) -> np.ndarray:
        if self._centroids is None:
            return self._store.live_rows()
        sims = self._centroids @ query
        nprobe = min(self.nprobe, len(sims))
        # deterministic list order: (-similarity, list_id)
        order = np.lexsort((np.arange(len(sims)), -sims))[:nprobe]
        rows: List[int] = []
        for lst in order:
            rows.extend(self._lists[int(lst)])
        return np.asarray(rows, dtype=np.int64)

    def stats(self) -> dict:
        base = super().stats()
        with self._lock:
            sizes = [len(lst) for lst in self._lists]
            base.update({
                "kind": "ivf",
                "nlist": self.nlist,
                "nprobe": self.nprobe,
                "trained": self.is_trained,
                "max_list": max(sizes) if sizes else 0,
                "mean_list": (sum(sizes) / len(sizes)) if sizes else 0.0,
            })
        return base


def make_index(kind: str, dim: int, seed: int = 0, **kwargs) -> AnnIndex:
    """Factory used by the blocker, the serving layer and the CLI."""
    if kind == "lsh":
        return LshIndex(dim, seed=seed, **kwargs)
    if kind == "ivf":
        return IvfIndex(dim, seed=seed, **kwargs)
    raise ValueError(f"unknown ANN index kind {kind!r}; choose lsh or ivf")
