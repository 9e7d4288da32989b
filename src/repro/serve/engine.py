"""Batched link-prediction engine over a loaded registry model.

Wraps any model exposing ``predict_tails(heads, rels) -> (B, E)`` with
the query API the serving front ends need:

* ``top_k_tails(h, r, k)`` / ``top_k_heads(t, r, k)`` — head-side
  queries rank through the inverse-relation convention
  (``r + num_relations``), exactly as the evaluator does;
* ``score_triples(triples)`` — served from cached score rows when one
  is resident; cache misses use the model's direct per-cell path
  (``score_cells``) when it has one, so scoring ``B`` explicit triples
  costs ``O(B * d)`` instead of ``B`` full ``(1, E)`` rows (models
  without a direct path fall back to row scoring);
* optional known-triple filtering through the evaluator's CSR filter
  (``CSRFilter.mask_known``), built once per engine;
* an LRU cache of per-``(h, r)`` score rows with hit/miss/eviction
  counters — repeated queries for a hot ``(head, relation)`` pair never
  touch the model twice;
* an optional **approximate fast path** (``top_k_tails(...,
  approx=True)``): an attached :class:`repro.serve.ann.AnnServing`
  (IVF index over the entity table, usually loaded cold from the
  bundle) generates ``nprobe``-controlled candidates that are reranked
  through the model's exact ``score_cells`` — sublinear in the entity
  count, with scores identical to the exact path for every returned
  entity.  Requests fall back to the exact path (and a fallback
  counter) when no index is attached or the model lacks the hooks.

The engine puts its model in eval mode once, at construction; every
model's ``predict_tails`` scores under ``inference_mode``, which leaves
an eval-mode model's mode untouched.  The engine is thread-safe: the
HTTP front end scores from handler threads while the micro-batcher
drives it from its worker thread.

Every counter lives on a :class:`repro.obs.MetricsRegistry` (one per
engine unless the caller shares one), so the ``/stats`` JSON and the
Prometheus ``/metrics`` exposition read the *same* values — the legacy
``cache_hits`` / ``predict_seconds`` attributes are read-through
properties over the registry, and increments are safe under concurrent
``MicroBatcher`` / HTTP-handler access.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict

import numpy as np

from ..ann.ivf import topk_indices
from ..eval.evaluator import CSRFilter, build_csr_filter
from ..kg import KGSplit, Vocabulary
from ..obs import MetricsRegistry, current_span, exponential_buckets, trace
from .ann import AnnError, AnnServing, supports_ann

__all__ = ["PredictionEngine", "topk_indices"]

#: Rerank-set / probe-count histogram bounds (candidates per query).
_CANDIDATE_BUCKETS = exponential_buckets(1, 4, 10)

logger = logging.getLogger("repro.serve.engine")


class PredictionEngine:
    """Query API + score-row LRU cache around one loaded model."""

    def __init__(self, model, split: KGSplit, *, model_name: str = "model",
                 cache_size: int = 512,
                 filter_parts: tuple[str, ...] = ("train", "valid", "test"),
                 registry: MetricsRegistry | None = None,
                 ann: AnnServing | None = None,
                 approx_default: bool = False,
                 bundle_version: int | None = None) -> None:
        # Served models never train: eval mode from construction means no
        # predict path toggles modes, so overlapping requests cannot flip it.
        if getattr(model, "training", False):
            model.eval()
        self.model = model
        self.model_name = model_name
        self.bundle_version = bundle_version
        self.split = split
        self.num_entities = split.num_entities
        self.num_relations = split.num_relations
        self.entities: Vocabulary = split.graph.entities
        self.relations: Vocabulary = split.graph.relations
        self.cache_size = int(cache_size)
        self.filter_parts = filter_parts
        self._filter: CSRFilter | None = None
        #: Triples known to the engine but absent from the split parts
        #: (streaming appends); folded in when the filter is lazily built.
        self._extra_filter_triples: list[np.ndarray] = []
        #: Bumped whenever the known-triple filter changes; cached score
        #: rows from an older epoch were already dropped by the matching
        #: ``invalidate`` call, so readers can assert freshness cheaply.
        self.filter_epoch = 0
        #: Streaming delta-log generation this engine has applied.
        self.stream_generation = 0
        self._cache: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        if ann is not None:
            ann.validate_for(model, self.num_entities)
        self.ann = ann
        self.ann_rebuild_threshold: float | None = None
        self.approx_default = bool(approx_default)
        self.metrics = registry if registry is not None else MetricsRegistry()
        cache_result = self.metrics.counter(
            "serve_cache_lookups_total",
            "score-row LRU cache lookups by result", labels=("result",))
        self._m_hits = cache_result.labels(result="hit")
        self._m_misses = cache_result.labels(result="miss")
        self._m_evictions = self.metrics.counter(
            "serve_cache_evictions_total", "score rows evicted from the LRU")
        self._m_queries = self.metrics.counter(
            "serve_queries_total", "(head, relation) score rows served")
        self._m_predict_calls = self.metrics.counter(
            "serve_predict_calls_total", "batched model predict_tails calls")
        self._m_predict_seconds = self.metrics.histogram(
            "serve_predict_seconds", "model predict_tails call latency")
        self._g_cache_entries = self.metrics.gauge(
            "serve_cache_entries", "score rows currently cached")
        self._g_cache_hit_rate = self.metrics.gauge(
            "serve_cache_hit_rate", "lifetime hits / lookups of the row cache")
        self._m_cell_calls = self.metrics.counter(
            "serve_cell_score_calls_total",
            "direct per-cell scoring calls (score_triples fast path)")
        self._m_cells_scored = self.metrics.counter(
            "serve_cells_scored_total",
            "(h, r, t) cells scored through the direct path")
        self._m_cell_seconds = self.metrics.histogram(
            "serve_cell_score_seconds", "direct per-cell scoring latency")
        self._m_ann_queries = self.metrics.counter(
            "serve_ann_queries_total", "top-k queries answered by the ANN path")
        self._m_ann_fallbacks = self.metrics.counter(
            "serve_ann_fallbacks_total",
            "approx requests served exactly (no index / unsupported model)")
        self._m_ann_probed = self.metrics.histogram(
            "serve_ann_probed_lists", "inverted lists probed per ANN query",
            buckets=_CANDIDATE_BUCKETS)
        self._m_ann_rerank = self.metrics.histogram(
            "serve_ann_rerank_candidates",
            "candidates exactly reranked per ANN query",
            buckets=_CANDIDATE_BUCKETS)
        self._g_ann_recall = self.metrics.gauge(
            "serve_ann_recall_check",
            "recall@k of the ANN path vs the exact path (last self-check)")
        self._g_ann_stale = self.metrics.gauge(
            "ann_stale_rows",
            "entity rows appended after the attached ANN index was built")
        self._m_invalidations = self.metrics.counter(
            "serve_cache_invalidations_total",
            "score rows dropped by explicit cache invalidation")
        self._m_ann_rebuilds = self.metrics.counter(
            "serve_ann_rebuilds_total",
            "ANN index rebuilds triggered by the staleness threshold")
        self._refresh_ann_staleness()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_bundle(cls, path: str, strict: bool = True, ann: str = "auto",
                    **kwargs) -> "PredictionEngine":
        """Load a checkpoint bundle and wrap its model in an engine.

        ``ann`` controls the approximate-serving index:

        * ``"auto"`` (default) — attach the bundle's precomputed index
          when one is present, otherwise serve exactly;
        * ``"off"`` — ignore any bundled index;
        * ``"require"`` — raise :class:`AnnError` unless the bundle
          ships an index;
        * ``"build"`` — use the bundled index, or train one now from the
          loaded model's entity table (raises for unsupported models).

        The model is returned in eval mode.
        """
        from .ann import resolve_ann_policy
        from .bundle import load_bundle

        bundle = load_bundle(path, strict=strict)
        model = bundle.build_model(strict=strict)
        serving = resolve_ann_policy(bundle, model, ann)
        logger.info("loaded bundle %s (model=%s, entities=%d, relations=%d)",
                    path, bundle.model_name, bundle.split.num_entities,
                    bundle.split.num_relations)
        engine = cls(model, bundle.split, model_name=bundle.model_name,
                     ann=serving,
                     bundle_version=bundle.manifest.get("format_version"),
                     **kwargs)
        if len(bundle.appended):
            # v3 streaming appends: part of the known graph (and filter)
            # without belonging to any train/valid/test part.
            engine.append_filter_rows(bundle.appended)
        engine.stream_generation = bundle.stream_generation
        return engine

    def replica(self) -> "PredictionEngine":
        """A fresh engine serving this engine's model, split and settings.

        Shares the model, the known-triple filter and the ANN index, and
        carries over the filter epoch and stream generation; starts with
        its own lock, an empty row cache and a zeroed metrics registry.
        Pool workers serve one of these over the parent's engine after
        the fork, so no counter is double-counted when the front end
        merges their registries.
        """
        copy = PredictionEngine(
            self.model, self.split, model_name=self.model_name,
            cache_size=self.cache_size, filter_parts=self.filter_parts,
            ann=self.ann, approx_default=self.approx_default,
            bundle_version=self.bundle_version)
        copy._filter = self._filter
        copy._extra_filter_triples = list(self._extra_filter_triples)
        copy.filter_epoch = self.filter_epoch
        copy.stream_generation = self.stream_generation
        copy.ann_rebuild_threshold = self.ann_rebuild_threshold
        return copy

    @property
    def filter(self) -> CSRFilter:
        """Known-triple CSR filter, built lazily on first filtered query."""
        if self._filter is None:
            tick = time.perf_counter()
            built = build_csr_filter(self.split, self.filter_parts)
            for triples in self._extra_filter_triples:
                built = built.append_rows(triples,
                                          num_relations=self.num_relations,
                                          num_entities=self.num_entities)
            self._filter = built
            logger.info("built CSR filter: %d known cells in %.1f ms",
                        self._filter.nnz, 1e3 * (time.perf_counter() - tick))
        return self._filter

    # ------------------------------------------------------------------
    # Streaming mutation hooks
    # ------------------------------------------------------------------
    def _invalidate_unlocked(self, keys) -> int:
        if keys is None:
            dropped = len(self._cache)
            self._cache.clear()
        else:
            dropped = 0
            for key in keys:
                if self._cache.pop((int(key[0]), int(key[1])), None) is not None:
                    dropped += 1
        self._g_cache_entries.set(len(self._cache))
        return dropped

    def _fold_filter_unlocked(self, triples: np.ndarray) -> None:
        if self._filter is None:
            self._extra_filter_triples.append(triples)
        else:
            self._filter = self._filter.append_rows(
                triples, num_relations=self.num_relations,
                num_entities=self.num_entities)
        self.filter_epoch += 1

    def invalidate(self, keys=None) -> int:
        """Drop cached score rows; returns the number of rows dropped.

        ``keys=None`` clears the whole cache (required whenever the
        entity count changes: resident rows have the old width).  With
        an iterable of ``(head, rel)`` pairs only those rows are
        dropped — the cheap path when a mutation touched a handful of
        ``(h, r)`` filter cells but left the entity table alone.
        """
        with self._lock:
            dropped = self._invalidate_unlocked(keys)
        if dropped:
            self._m_invalidations.inc(dropped)
        return dropped

    def append_filter_rows(self, triples: np.ndarray) -> None:
        """Fold appended known triples into the filter and stamp an epoch.

        New cells only *add* ``-inf`` masks, so cached score rows stay
        correct for ranking but would stop matching filtered queries —
        callers pair this with :meth:`invalidate` on the touched keys
        (the streaming applier does).  When the filter has not been
        built yet the triples are stashed for the lazy build instead of
        forcing construction now.
        """
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if len(triples) == 0:
            return
        with self._lock:
            self._fold_filter_unlocked(triples)

    def adopt_append(self, grow, num_new_entities: int, triples: np.ndarray,
                     touched_keys=()) -> None:
        """Atomically adopt one streaming append.

        ``grow`` is a thunk that mutates the model/vocabulary (row
        growth happens *under the scoring lock*, so no concurrent
        ``scores`` call can mix old- and new-width rows).  Afterwards
        the entity count is bumped, the score cache is cleared (or only
        ``touched_keys`` dropped when no entities were added), the
        appended known triples are folded into the CSR filter, and the
        ANN staleness gauge / rebuild policy are refreshed.

        Pre-existing predictions stay bit-identical: every model scores
        candidate columns independently, so extra rows never perturb
        old cells.
        """
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        with self._lock:
            grow()
            self.num_entities = int(self.num_entities) + int(num_new_entities)
            dropped = self._invalidate_unlocked(
                None if num_new_entities else touched_keys)
            if len(triples):
                self._fold_filter_unlocked(triples)
        if dropped:
            self._m_invalidations.inc(dropped)
        self._refresh_ann_staleness()
        self.maybe_rebuild_ann()

    # ------------------------------------------------------------------
    # Score rows (cached)
    # ------------------------------------------------------------------
    def scores(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        """``(B, E)`` candidate scores, served from the row cache.

        Uncached ``(h, r)`` pairs are deduplicated and scored in a single
        ``predict_tails`` call; every returned row is a copy, so callers
        may scatter ``-inf`` into it freely.
        """
        heads = np.asarray(heads, dtype=np.int64).reshape(-1)
        rels = np.asarray(rels, dtype=np.int64).reshape(-1)
        keys = [(int(h), int(r)) for h, r in zip(heads, rels)]
        with self._lock:
            # Snapshot every needed row into a local map first: inserting
            # freshly-computed rows can evict keys that were cache hits a
            # moment ago, so assembly must never read through the cache.
            rows: dict[tuple[int, int], np.ndarray] = {}
            missing: list[tuple[int, int]] = []
            for key in dict.fromkeys(keys):
                cached = self._cache.get(key)
                if cached is not None:
                    rows[key] = cached
                    self._cache.move_to_end(key)
                else:
                    missing.append(key)
            if missing:
                tick = time.perf_counter()
                mh = np.array([k[0] for k in missing], dtype=np.int64)
                mr = np.array([k[1] for k in missing], dtype=np.int64)
                with trace("serve.predict", rows=len(missing)):
                    fresh = np.asarray(self.model.predict_tails(mh, mr))
                elapsed = time.perf_counter() - tick
                self._m_predict_calls.inc()
                self._m_predict_seconds.observe(elapsed)
                for i, key in enumerate(missing):
                    # copy: a cached row must not pin the whole batch
                    # array alive after its siblings are evicted
                    rows[key] = fresh[i].copy()
                    if self.cache_size > 0:
                        self._insert_row(key, rows[key])
                logger.debug("scored %d/%d uncached rows in %.1f ms",
                             len(missing), len(keys), 1e3 * elapsed)
            # A duplicate of a just-computed key counts as a hit: only the
            # first occurrence paid for the model call.
            unpaid = set(missing)
            out = np.empty((len(keys), self.num_entities))
            hits = 0
            for i, key in enumerate(keys):
                out[i] = rows[key]
                if key in unpaid:
                    unpaid.discard(key)
                else:
                    hits += 1
            self._record_lookups(hits, len(keys) - hits)
            self._m_queries.inc(len(keys))
            # Request-scoped: hangs cache behaviour off whichever span is
            # active (serve.request directly, serve.batch when batched).
            span = current_span()
            span.set_attr("cache_hits", hits)
            span.set_attr("cache_misses", len(keys) - hits)
        return out

    def _insert_row(self, key: tuple[int, int], row: np.ndarray) -> None:
        """Cache a row (lock held); evictions keep the entries gauge live."""
        self._cache[key] = row
        evicted = 0
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            evicted += 1
        if evicted:
            self._m_evictions.inc(evicted)
        self._g_cache_entries.set(len(self._cache))

    def _record_lookups(self, hits: int, misses: int) -> None:
        """Bump hit/miss counters and refresh the derived hit-rate gauge."""
        if hits:
            self._m_hits.inc(hits)
        if misses:
            self._m_misses.inc(misses)
        lookups = self._m_hits.value + self._m_misses.value
        if lookups:
            self._g_cache_hit_rate.set(self._m_hits.value / lookups)

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def top_k_tails(self, head: int, rel: int, k: int = 10,
                    filter_known: bool = False, approx: bool | None = None,
                    nprobe: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Best ``k`` tail candidates for ``(head, rel, ?)``.

        Returns ``(entity_ids, scores)`` sorted by descending score (ties
        by ascending id).  ``rel`` may be an inverse id (``>= num_relations``)
        for head-side queries.  With ``filter_known=True`` every tail
        already present in the bundled train/valid/test triples is
        removed from the candidates before ranking.

        ``approx=True`` routes through the attached ANN index (candidate
        probing + exact rerank; ``nprobe`` overrides the index default);
        ``approx=None`` follows the engine's ``approx_default``.  With
        ``approx=False`` (or no usable index — counted as a fallback)
        the result is bit-identical to the pre-ANN exact path.
        """
        if approx is None:
            approx = self.approx_default
        if approx:
            if self.ann is not None and supports_ann(self.model):
                return self._top_k_approx(head, rel, k, filter_known, nprobe)
            self._m_ann_fallbacks.inc()
        row = self.scores([head], [rel])[0]
        if filter_known:
            self.filter.mask_known(row[None], np.array([head]), np.array([rel]))
        ids = topk_indices(row, k)
        return ids, row[ids]

    def _top_k_approx(self, head: int, rel: int, k: int, filter_known: bool,
                      nprobe: int | None) -> tuple[np.ndarray, np.ndarray]:
        """IVF candidate generation + exact rerank for one query."""
        index = self.ann.index
        probed = index.default_nprobe if nprobe is None else max(1, min(int(nprobe), index.nlist))
        request_span = current_span()  # serve.request (ANN skips the batcher)
        request_span.set_attr("ann_nprobe", probed)
        with trace("serve.ann_search", nprobe=probed, k=k):
            cands = self.ann.candidates(self.model, [head], [rel], probed)[0]
            if index.num_vectors < self.num_entities:
                # Stale-prefix degradation: rows appended after the index
                # was built are always exact-reranked candidates, so a
                # stale index can never silently hide a new entity.
                cands = np.concatenate([
                    np.asarray(cands, dtype=np.int64),
                    np.arange(index.num_vectors, self.num_entities,
                              dtype=np.int64)])
            if filter_known and len(cands):
                known = self.filter.row(head, rel)
                if len(known):
                    cands = cands[~np.isin(cands, known)]
            # Ascending ids let topk_indices break score ties by id.
            cands = np.sort(cands)
            self._m_ann_probed.observe(probed)
            self._m_ann_rerank.observe(len(cands))
            request_span.set_attr("ann_rerank", int(len(cands)))
            self._m_ann_queries.inc()
            self._m_queries.inc()
            if len(cands) == 0:
                return np.empty(0, dtype=np.int64), np.empty(0)
            fill = np.full(len(cands), 0, dtype=np.int64)
            scores = np.asarray(self.model.score_cells(
                fill + int(head), fill + int(rel), cands))
            sel = topk_indices(scores, k)
            return cands[sel].astype(np.int64), scores[sel]

    def top_k_heads(self, tail: int, rel: int, k: int = 10,
                    filter_known: bool = False, approx: bool | None = None,
                    nprobe: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Best ``k`` head candidates for ``(?, rel, tail)``.

        Ranks through the inverse relation ``rel + num_relations`` — the
        same convention the evaluator uses for head-side ranking.
        """
        if not 0 <= rel < self.num_relations:
            raise ValueError(
                f"top_k_heads expects an original relation id in "
                f"[0, {self.num_relations}); got {rel}"
            )
        return self.top_k_tails(tail, rel + self.num_relations, k,
                                filter_known=filter_known, approx=approx,
                                nprobe=nprobe)

    def score_triples(self, triples: np.ndarray) -> np.ndarray:
        """Scores for explicit ``(h, r, t)`` rows.

        Rows already resident in the LRU cache are gathered from the
        cached ``(1, E)`` score row (consistent with any ranking that
        surfaced them).  Cache misses use the model's direct per-cell
        path (``score_cells``) when it has one — ``O(d)`` per triple
        instead of a full entity row — and never populate the row cache.
        The direct path evaluates the same scoring function in the same
        float64 arithmetic; for GEMM-based models the per-cell result
        may differ from the row path in the final ulp.  Models without
        ``score_cells`` keep the original row-scoring behaviour exactly.
        """
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if len(triples) == 0:
            return np.empty(0)
        cell_fn = getattr(self.model, "score_cells", None)
        if cell_fn is None:
            scores = self.scores(triples[:, 0], triples[:, 1])
            return scores[np.arange(len(triples)), triples[:, 2]]
        with self._lock:
            out = np.empty(len(triples))
            missing: list[int] = []
            hits = 0
            for i, (h, r, t) in enumerate(triples.tolist()):
                row = self._cache.get((h, r))
                if row is not None:
                    self._cache.move_to_end((h, r))
                    out[i] = row[t]
                    hits += 1
                else:
                    missing.append(i)
            if missing:
                sub = triples[missing]
                tick = time.perf_counter()
                with trace("serve.score_cells", cells=len(missing)):
                    out[missing] = np.asarray(
                        cell_fn(sub[:, 0], sub[:, 1], sub[:, 2]))
                self._m_cell_seconds.observe(time.perf_counter() - tick)
                self._m_cell_calls.inc()
                self._m_cells_scored.inc(len(missing))
            self._record_lookups(hits, len(missing))
            span = current_span()
            span.set_attr("cache_hits", hits)
            span.set_attr("cache_misses", len(missing))
        return out

    # ------------------------------------------------------------------
    # ANN management
    # ------------------------------------------------------------------
    def attach_ann(self, ann: AnnServing, approx_default: bool | None = None,
                   rebuild_threshold: float | None = None) -> None:
        """Attach (and validate) an ANN index after construction.

        ``rebuild_threshold`` sets the staleness policy for streaming
        appends: when the fraction of entity rows *not* covered by the
        index (``ann_stale_rows / num_entities``) exceeds the threshold,
        the index is rebuilt from the live entity table with the same
        ``nlist`` / ``nprobe`` / quantization settings.  Below the
        threshold stale rows are served through the exact-rerank
        fallback (they are appended to every probe's candidate set), so
        approximate serving degrades gracefully — recall on old rows is
        unchanged and new rows are always visible — at ``O(stale)``
        extra rerank cost per query.  ``None`` (default) never rebuilds
        automatically.
        """
        ann.validate_for(self.model, self.num_entities)
        self.ann = ann
        if approx_default is not None:
            self.approx_default = bool(approx_default)
        if rebuild_threshold is not None:
            if not 0.0 < rebuild_threshold <= 1.0:
                raise ValueError(
                    f"rebuild_threshold must be in (0, 1], got {rebuild_threshold}")
            self.ann_rebuild_threshold = float(rebuild_threshold)
        self._refresh_ann_staleness()
        self.maybe_rebuild_ann()

    def _refresh_ann_staleness(self) -> int:
        """Recompute the ``ann_stale_rows`` gauge; returns the stale count."""
        stale = self.ann.stale_rows(self.num_entities) if self.ann is not None else 0
        self._g_ann_stale.set(stale)
        return stale

    def maybe_rebuild_ann(self) -> bool:
        """Apply the ``rebuild_threshold`` policy; True when rebuilt."""
        if self.ann is None or self.ann_rebuild_threshold is None:
            return False
        stale = self.ann.stale_rows(self.num_entities)
        if stale == 0 or stale / self.num_entities <= self.ann_rebuild_threshold:
            return False
        index = self.ann.index
        self.ann = AnnServing.build(
            self.model, nlist=index.nlist, nprobe=index.default_nprobe,
            store=index.store)
        self._m_ann_rebuilds.inc()
        self._refresh_ann_staleness()
        logger.info("rebuilt ANN index after %d stale rows crossed the "
                    "%.2f threshold", stale, self.ann_rebuild_threshold)
        return True

    def ann_self_check(self, num_queries: int = 32, k: int = 10,
                       nprobe: int | None = None, seed: int = 0) -> float:
        """Measured recall@k of the ANN path against the exact path.

        Samples ``num_queries`` seeded ``(head, relation)`` pairs,
        compares approximate and exact top-k id sets, stores the mean
        recall on the ``serve_ann_recall_check`` gauge, and returns it.
        The exact rows are computed directly on the model so the serving
        row cache is neither consulted nor polluted.
        """
        if self.ann is None:
            raise AnnError("no ANN index attached to this engine")
        rng = np.random.default_rng(seed)
        heads = rng.integers(0, self.num_entities, size=num_queries)
        rels = rng.integers(0, 2 * self.num_relations, size=num_queries)
        recalls = []
        with self._lock:
            rows = np.asarray(self.model.predict_tails(heads, rels))
            for head, rel, row in zip(heads, rels, rows):
                exact = set(topk_indices(row, k).tolist())
                if not exact:
                    continue
                ids, _ = self._top_k_approx(int(head), int(rel), k, False,
                                            nprobe)
                recalls.append(len(exact & set(ids.tolist())) / len(exact))
        recall = float(np.mean(recalls)) if recalls else 0.0
        self._g_ann_recall.set(recall)
        logger.info("ANN self-check: recall@%d = %.4f over %d queries "
                    "(nprobe=%s)", k, recall, num_queries,
                    nprobe if nprobe is not None else "default")
        return recall

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    # Legacy counter attributes read through the registry, so existing
    # callers (tests, dashboards) keep working after the migration.
    @property
    def cache_hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def cache_misses(self) -> int:
        return int(self._m_misses.value)

    @property
    def cache_evictions(self) -> int:
        return int(self._m_evictions.value)

    @property
    def queries_served(self) -> int:
        return int(self._m_queries.value)

    @property
    def predict_calls(self) -> int:
        return int(self._m_predict_calls.value)

    @property
    def predict_seconds(self) -> float:
        return float(self._m_predict_seconds.sum)

    def stats(self) -> dict:
        """Counters for ``/stats`` and the instrumentation logger."""
        lookups = self.cache_hits + self.cache_misses
        ann: dict | None = None
        if self.ann is not None:
            reranked = self._m_ann_rerank
            ann = dict(self.ann.stats())
            ann.update({
                "approx_default": self.approx_default,
                "queries": int(self._m_ann_queries.value),
                "fallbacks": int(self._m_ann_fallbacks.value),
                "mean_rerank_candidates": round(reranked.mean, 3),
                "recall_check": round(float(self._g_ann_recall.value), 4),
                "stale_rows": self.ann.stale_rows(self.num_entities),
                "rebuild_threshold": self.ann_rebuild_threshold,
                "rebuilds": int(self._m_ann_rebuilds.value),
            })
        return {
            "model": self.model_name,
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
            "queries_served": self.queries_served,
            "predict_calls": self.predict_calls,
            "predict_seconds": round(self.predict_seconds, 6),
            "cell_score_calls": int(self._m_cell_calls.value),
            "cells_scored": int(self._m_cells_scored.value),
            "cache": {
                "capacity": self.cache_size,
                "size": len(self._cache),
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "lookups": lookups,
                "hit_rate": round(self.cache_hits / lookups, 4) if lookups else 0.0,
            },
            "ann": ann,
            "filter_built": self._filter is not None,
            "filter_epoch": self.filter_epoch,
            "stream_generation": self.stream_generation,
            "cache_invalidations": int(self._m_invalidations.value),
        }
