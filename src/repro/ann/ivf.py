"""IVF (inverted-file) approximate nearest-neighbor index, pure numpy.

The classic two-level ANN structure the FAISS/DRKG serving ecosystem
deploys, reduced to its numpy essentials:

* a **coarse quantizer** — k-means centroids over the entity vectors
  (:func:`repro.ann.kmeans.kmeans`, seeded and deterministic);
* **inverted lists** — entity ids grouped by nearest centroid and laid
  out contiguously (``ids`` permutation + ``offsets``), so probing a
  list is one slice, not a gather;
* a **stored vector table** — the permuted entity vectors held in a
  :class:`repro.nn.quant.QuantizedTable` (int8 / float16 / float32 /
  float64), dequantized only for the rows a probe touches.

Search ranks centroids under the index metric, probes the ``nprobe``
best lists, scores their stored vectors, and returns the top-k with the
serving tie-break (score descending, entity id ascending).  Recall is
controlled entirely by ``nprobe``: ``nprobe == nlist`` probes every
list and is exhaustive over the *stored* (possibly quantized) vectors.

Serving does not rank on stored-vector scores directly — the
:class:`repro.serve.ann.AnnServing` wrapper treats ``probe`` as a
candidate generator and re-scores candidates through the model's real
scoring function, so quantization error can cost recall but never a
wrong score.

Metrics (scores are "higher is better" throughout):

* ``"l2"`` — ``-||q - x||^2`` (squared Euclidean);
* ``"l1"`` — ``-||q - x||_1`` (Manhattan; TransE's native ranking);
* ``"ip"`` — ``q . x`` (inner product; DistMult / ComplEx ranking).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..graph import build_csr
from ..nn.quant import QUANT_MODES, QuantizedTable
from .kmeans import kmeans

__all__ = ["IVFIndex", "METRICS", "default_nlist", "default_nprobe",
           "topk_indices"]

METRICS = ("l2", "l1", "ip")


def topk_indices(row: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best scores, ties broken by ascending id.

    Deterministic: equal scores always rank lower ids first, so serving
    results are reproducible across processes.  ``-inf`` cells (filtered
    known triples) are excluded even if fewer than ``k`` finite scores
    remain.
    """
    finite = int(np.sum(row > -np.inf))
    k = min(k, len(row), finite)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    # A partition alone keeps an arbitrary member of a tie straddling
    # the cut, so gather every id scoring at least the k-th best score
    # and order only those by (score desc, id asc).
    neg = -row
    kth = np.partition(neg, k - 1)[k - 1]
    cand = np.flatnonzero(neg <= kth)
    order = np.lexsort((cand, neg[cand]))[:k]
    return cand[order].astype(np.int64)


def default_nlist(num_vectors: int) -> int:
    """The usual IVF heuristic: ``~sqrt(N)`` lists."""
    return max(1, int(round(math.sqrt(max(1, num_vectors)))))


def default_nprobe(nlist: int) -> int:
    """Probe a quarter of the lists by default — a recall-leaning
    setting that still skips ~75% of the table at scale."""
    return max(1, math.ceil(nlist / 4))


def _metric_scores(metric: str, queries: np.ndarray,
                   vectors: np.ndarray) -> np.ndarray:
    """``(Q, M)`` scores of every query against every vector row."""
    if metric == "ip":
        return queries @ vectors.T
    diff = queries[:, None, :] - vectors[None, :, :]
    if metric == "l2":
        return -(diff * diff).sum(axis=-1)
    return -np.abs(diff).sum(axis=-1)


@dataclass
class IVFIndex:
    """Coarse quantizer + contiguous inverted lists + stored vectors."""

    metric: str
    centroids: np.ndarray        # (nlist, d) float64
    ids: np.ndarray              # (N,) int64 — entity ids, list-contiguous
    offsets: np.ndarray          # (nlist + 1,) int64 row offsets into ids
    table: QuantizedTable        # (N, d) stored vectors, aligned with ids
    default_nprobe: int
    seed: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, vectors: np.ndarray, *, metric: str,
              nlist: int | None = None, store: str = "int8",
              nprobe: int | None = None, seed: int = 0,
              iters: int = 20) -> "IVFIndex":
        """Train the coarse quantizer and lay out the inverted lists.

        ``vectors[i]`` is the indexed vector of entity ``i``; ``store``
        selects the stored-table dtype (see :data:`QUANT_MODES`).
        """
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
        if store not in QUANT_MODES:
            raise ValueError(f"unknown store dtype {store!r}; "
                             f"choose from {QUANT_MODES}")
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(vectors) == 0:
            raise ValueError(f"expected a non-empty (N, d) table, "
                             f"got shape {vectors.shape}")
        n = len(vectors)
        nlist = min(n, int(nlist) if nlist else default_nlist(n))
        centroids, assign = kmeans(vectors, nlist, seed=seed, iters=iters)
        nlist = len(centroids)
        # The inverted-list layout is a CSR build: rows = centroid
        # assignments, payload = entity ids (the stable permutation).
        offsets, order = build_csr(assign, nlist)
        table = QuantizedTable.quantize(vectors[order], store)
        nprobe = int(nprobe) if nprobe else default_nprobe(nlist)
        return cls(metric=metric, centroids=centroids, ids=order,
                   offsets=offsets, table=table,
                   default_nprobe=min(nprobe, nlist), seed=int(seed))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nlist(self) -> int:
        return len(self.centroids)

    @property
    def num_vectors(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    @property
    def store(self) -> str:
        return self.table.mode

    def list_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def memory(self) -> dict[str, Any]:
        """Byte accounting, including the ratio vs a float64 table."""
        structure = int(self.centroids.nbytes + self.ids.nbytes
                        + self.offsets.nbytes)
        full = self.num_vectors * self.dim * 8
        return {
            "store": self.store,
            "table_bytes": self.table.nbytes,
            "structure_bytes": structure,
            "total_bytes": self.table.nbytes + structure,
            "float64_table_bytes": full,
            "table_ratio_vs_float64": (self.table.nbytes / full) if full else 1.0,
        }

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _probe_positions(self, queries: np.ndarray,
                         nprobe: int) -> list[np.ndarray]:
        """Positions (rows of ``table`` / ``ids``) probed per query."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        cscores = _metric_scores(self.metric, queries, self.centroids)
        nprobe = max(1, min(int(nprobe), self.nlist))
        if nprobe < self.nlist:
            lists = np.argpartition(-cscores, nprobe - 1, axis=1)[:, :nprobe]
        else:
            lists = np.tile(np.arange(self.nlist), (len(queries), 1))
        out: list[np.ndarray] = []
        for row in lists:
            # Sorted list order keeps each probe's slices cache-friendly
            # and the concatenated positions deterministic.
            row = np.sort(row)
            out.append(np.concatenate(
                [np.arange(self.offsets[c], self.offsets[c + 1]) for c in row]))
        return out

    def probe(self, queries: np.ndarray,
              nprobe: int | None = None) -> list[np.ndarray]:
        """Candidate **entity ids** from the ``nprobe`` best lists.

        This is the serving entry point: the caller re-scores the
        returned candidates exactly, so only membership matters here.
        """
        nprobe = self.default_nprobe if nprobe is None else nprobe
        return [self.ids[pos] for pos in self._probe_positions(queries, nprobe)]

    def search(self, queries: np.ndarray, k: int,
               nprobe: int | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Top-``k`` per query under the index metric on *stored* vectors.

        Returns one ``(entity_ids, scores)`` pair per query, ordered by
        score descending with ties broken by ascending entity id — the
        same contract as :func:`topk_indices`.  Used directly by tests
        and benchmarks; serving reranks through the model instead.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nprobe = self.default_nprobe if nprobe is None else nprobe
        results = []
        for query, pos in zip(queries, self._probe_positions(queries, nprobe)):
            # Ascending ids let topk_indices break score ties by id.
            pos = pos[np.argsort(self.ids[pos], kind="stable")]
            cand_ids = self.ids[pos]
            vecs = self.table.gather(pos)
            scores = _metric_scores(self.metric, query[None], vecs)[0]
            sel = topk_indices(scores, k)
            results.append((cand_ids[sel].astype(np.int64), scores[sel]))
        return results

    # ------------------------------------------------------------------
    # Serialization (bundle artifact)
    # ------------------------------------------------------------------
    def to_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """``(meta, arrays)`` — JSON-safe metadata + numpy payload."""
        meta = {
            "metric": self.metric,
            "store": self.store,
            "nlist": self.nlist,
            "dim": self.dim,
            "num_vectors": self.num_vectors,
            "default_nprobe": int(self.default_nprobe),
            "seed": int(self.seed),
        }
        arrays = {"centroids": self.centroids, "ids": self.ids,
                  "offsets": self.offsets}
        arrays.update(self.table.to_arrays(prefix="table_"))
        return meta, arrays

    @classmethod
    def from_arrays(cls, meta: dict[str, Any],
                    arrays: dict[str, np.ndarray]) -> "IVFIndex":
        for key in ("centroids", "ids", "offsets", "table_codes"):
            if key not in arrays:
                raise KeyError(f"IVF payload is missing array {key!r}")
        table = QuantizedTable.from_arrays(arrays, meta["store"], prefix="table_")
        return cls(metric=meta["metric"],
                   centroids=np.asarray(arrays["centroids"], np.float64),
                   ids=np.asarray(arrays["ids"], np.int64),
                   offsets=np.asarray(arrays["offsets"], np.int64),
                   table=table,
                   default_nprobe=int(meta.get("default_nprobe") or
                                      default_nprobe(len(arrays["centroids"]))),
                   seed=int(meta.get("seed", 0)))
