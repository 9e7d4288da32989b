"""Filtered ranking evaluation (Bordes et al. protocol, Section V-B).

Every model under test exposes ``predict_tails(heads, rels) ->
(B, num_entities)`` scores (:class:`TailScorer`).  For each test triple
``(h, r, t)`` the true tail is ranked against all entities with every
*other* known-true tail filtered out; the inverse query
``(t, r^-1, h)`` ranks the head side, matching the paper's protocol of
training with inverse triples and "ranking with whole entities".  Ties
take the mean rank (average of optimistic and pessimistic rank), so
constant scorers cannot cheat.

:class:`RankingEvaluator` is the one ranking path:

* the filter is built **once per split** in a single vectorized pass
  (``np.lexsort`` over the inverse-augmented triple set) and stored as a
  CSR-packed structure — one sorted ``int64`` key array plus
  ``indptr``/``indices`` arrays, exactly like a ``scipy.sparse.csr_matrix``
  without the dependency;
* whole score batches are ranked at once: target extraction, the
  filtered-cell correction through the CSR rows, and the mean-rank tie
  convention (``1 + #greater + #equal / 2``) are all batched numpy
  reductions with no per-row loop.

Ranks are bit-for-bit identical to the per-row oracle in
``tests/eval/oracle.py`` (see ``tests/eval/test_evaluator.py`` for the
parity proof, including constant and heavily-tied scorers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..graph import pack_csr_rows
from ..kg import KGSplit
from ..obs import trace
from .metrics import RankingMetrics

__all__ = ["CSRFilter", "build_csr_filter", "RankingEvaluator", "TailScorer"]


class TailScorer(Protocol):
    """Anything that scores all candidate tails for (head, relation) queries."""

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        """Return ``(B, num_entities)`` scores."""
        ...  # pragma: no cover


@dataclass(frozen=True)
class CSRFilter:
    """``(h, r) -> true tails`` packed in CSR form.

    ``keys`` holds the sorted, de-duplicated query codes
    ``h * code_mult + r`` (``code_mult = 2 * num_relations`` so inverse
    relations fit); row ``i`` of the structure is
    ``indices[indptr[i]:indptr[i + 1]]``.  Lookup is a single
    ``np.searchsorted`` over the whole query batch.
    """

    keys: np.ndarray      # (K,) int64, sorted unique query codes
    indptr: np.ndarray    # (K + 1,) int64 row offsets into ``indices``
    indices: np.ndarray   # (nnz,) int64 true-tail entity ids
    code_mult: int        # 2 * num_relations

    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    def lookup(self, heads: np.ndarray, rels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-query ``(start, end)`` offsets into ``indices`` (0/0 on miss)."""
        codes = heads.astype(np.int64) * self.code_mult + rels.astype(np.int64)
        if len(self.keys) == 0:
            zeros = np.zeros(len(codes), dtype=np.int64)
            return zeros, zeros.copy()
        pos = np.searchsorted(self.keys, codes)
        clipped = np.minimum(pos, len(self.keys) - 1)
        hit = self.keys[clipped] == codes
        starts = np.where(hit, self.indptr[clipped], 0)
        ends = np.where(hit, self.indptr[clipped + 1], 0)
        return starts, ends

    def gather(self, heads: np.ndarray, rels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(row_ids, entity_ids)`` of every filtered cell in the batch.

        The pair is ready to use as a fancy-index scatter target:
        ``scores[row_ids, entity_ids] = -inf``.
        """
        starts, ends = self.lookup(heads, rels)
        counts = ends - starts
        total = int(counts.sum())
        row_ids = np.repeat(np.arange(len(heads), dtype=np.int64), counts)
        if total == 0:
            return row_ids, np.empty(0, dtype=np.int64)
        # Position j of the flat output maps to indices[starts[row] + offset]
        # where offset counts from the start of that row's span.
        span_begin = np.cumsum(counts) - counts
        flat = np.arange(total, dtype=np.int64) - np.repeat(span_begin, counts) \
            + np.repeat(starts, counts)
        return row_ids, self.indices[flat]

    def mask_known(self, scores: np.ndarray, heads: np.ndarray,
                   rels: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
        """Scatter ``-inf`` into every known-true cell of a score batch.

        ``scores`` is ``(B, E)`` and is modified in place (and returned).
        ``keep`` optionally names one entity per row whose cell is left
        untouched — the filtered-ranking convention of masking every true
        answer *except* the query's own target (the Fig. 7 case study).
        The serving layer uses it with ``keep=None`` to drop
        already-known triples from top-k predictions.
        """
        row_ids, entity_ids = self.gather(np.asarray(heads), np.asarray(rels))
        if keep is not None:
            keep = np.asarray(keep, dtype=np.int64)
            mask = entity_ids != keep[row_ids]
            row_ids, entity_ids = row_ids[mask], entity_ids[mask]
        scores[row_ids, entity_ids] = -np.inf
        return scores

    def row(self, head: int, rel: int) -> np.ndarray:
        """True tails of a single query."""
        starts, ends = self.lookup(np.array([head]), np.array([rel]))
        return self.indices[int(starts[0]):int(ends[0])]

    def append_rows(self, triples: np.ndarray, *, num_relations: int,
                    num_entities: int) -> "CSRFilter":
        """A new filter additionally covering ``triples`` (both directions).

        The structure is frozen, so streaming appends build a fresh one:
        the existing ``(code, value)`` pairs are reconstructed from the
        CSR arrays, the new triples contribute ``(h, r) -> t`` and
        ``(t, r + num_relations) -> h`` exactly like
        :func:`build_csr_filter`, and the union is re-packed through the
        shared :func:`repro.graph.pack_csr_rows` pass (which also
        de-duplicates already-known cells).  ``num_entities`` must be
        the *post-append* entity count so appended ids pack correctly.
        """
        if 2 * num_relations != self.code_mult:
            raise ValueError(
                f"filter was built with code_mult={self.code_mult}, not "
                f"2 * {num_relations}; relation count cannot change")
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if len(triples) == 0:
            return self
        counts = np.diff(self.indptr)
        old_codes = np.repeat(self.keys, counts)
        h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
        codes = np.concatenate([
            old_codes, h * self.code_mult + r,
            t * self.code_mult + (r + num_relations)])
        values = np.concatenate([self.indices, t, h])
        keys, indptr, indices = pack_csr_rows(codes, values, num_entities)
        return CSRFilter(keys=keys, indptr=indptr, indices=indices,
                         code_mult=self.code_mult)


def build_csr_filter(split: KGSplit,
                     parts: tuple[str, ...] = ("train", "valid", "test")) -> CSRFilter:
    """Build the full filtered-ranking CSR structure in one vectorized pass.

    Both query directions are covered: every triple ``(h, r, t)``
    contributes ``(h, r) -> t`` and ``(t, r + num_relations) -> h``.
    Duplicate ``(query, tail)`` pairs across partitions collapse via the
    sorted de-duplication step, so scatters touch each cell once.
    """
    num_relations = split.num_relations
    code_mult = 2 * num_relations
    blocks = [np.asarray(getattr(split, part)) for part in parts]
    blocks = [b.reshape(-1, 3) for b in blocks if len(b)]
    if not blocks:
        empty = np.empty(0, dtype=np.int64)
        return CSRFilter(keys=empty, indptr=np.zeros(1, dtype=np.int64),
                         indices=empty.copy(), code_mult=code_mult)
    triples = np.concatenate(blocks).astype(np.int64, copy=False)
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
    codes = np.concatenate([h * code_mult + r, t * code_mult + (r + num_relations)])
    values = np.concatenate([t, h])
    # The sort/de-dup/group pass (including the fused-int64-key fast
    # path) is the shared CSR packer from the graph substrate.
    keys, indptr, indices = pack_csr_rows(codes, values, split.num_entities)
    return CSRFilter(keys=keys, indptr=indptr, indices=indices,
                     code_mult=code_mult)


class RankingEvaluator:
    """Filtered-ranking evaluation with a construct-once CSR filter.

    Parameters
    ----------
    split:
        Dataset partition; the filter covers ``parts`` of it (both query
        directions, inverse relations included).
    parts:
        Which partitions feed the filter.  The standard protocol filters
        against train+valid+test.
    batch_size:
        Default number of queries scored per ``predict_tails`` call.
    """

    def __init__(self, split: KGSplit,
                 parts: tuple[str, ...] = ("train", "valid", "test"),
                 batch_size: int = 128) -> None:
        self.split = split
        self.num_relations = split.num_relations
        self.batch_size = batch_size
        self.filter = build_csr_filter(split, parts)

    # ------------------------------------------------------------------
    # Core batched ranking
    # ------------------------------------------------------------------
    def rank_scores(self, scores: np.ndarray, heads: np.ndarray,
                    rels: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Filtered mean-ranks of ``targets`` within a ``(B, E)`` score batch.

        The batch is ranked with no per-row loop and no score-matrix
        copy: the greater/equal tie counts are computed over the *raw*
        scores with two batched reductions, then corrected by
        subtracting the contribution of every known-true cell (gathered
        through the CSR rows — a few entries per query).  That equals
        the oracle's semantics of scattering ``-inf`` into a copied
        row before counting, because a ``-inf`` cell contributes to
        neither count, while costing O(nnz) instead of O(B*E) extra
        work.  (Sole divergence: a target whose own score is ``-inf``,
        which no finite scorer produces.)  The mean-rank tie convention
        is ``1 + #greater + #equal / 2``; the target's own cell is a
        known-true triple, so its ``equal`` contribution is subtracted
        like any other filtered cell.
        """
        scores = np.asarray(scores, dtype=np.float64)
        batch = len(scores)
        targets = np.asarray(targets, dtype=np.int64)
        target_scores = scores[np.arange(batch), targets][:, None]
        greater = (scores > target_scores).sum(axis=1)
        equal = (scores == target_scores).sum(axis=1)
        row_ids, entity_ids = self.filter.gather(np.asarray(heads), np.asarray(rels))
        filtered_scores = scores[row_ids, entity_ids]
        filtered_targets = target_scores[row_ids, 0]
        greater -= np.bincount(row_ids[filtered_scores > filtered_targets],
                               minlength=batch)
        equal -= np.bincount(row_ids[filtered_scores == filtered_targets],
                             minlength=batch)
        return 1.0 + greater + equal / 2.0

    # ------------------------------------------------------------------
    # Query-set evaluation
    # ------------------------------------------------------------------
    def _ranks_for_queries(self, model, queries: np.ndarray, targets: np.ndarray,
                           batch_size: int) -> np.ndarray:
        ranks = np.zeros(len(queries))
        for start in range(0, len(queries), batch_size):
            q = queries[start:start + batch_size]
            tgt = targets[start:start + batch_size]
            with trace("eval.batch", size=len(q)):
                scores = model.predict_tails(q[:, 0], q[:, 1])
                ranks[start:start + len(q)] = self.rank_scores(
                    scores, q[:, 0], q[:, 1], tgt)
        return ranks

    def compute_ranks(self, model: TailScorer, triples: np.ndarray,
                      max_queries: int | None = None,
                      rng: np.random.Generator | None = None,
                      batch_size: int | None = None,
                      both_directions: bool = True) -> np.ndarray:
        """Filtered ranks for ``triples`` (tail side, plus head side via inverses)."""
        if max_queries is not None and len(triples) > max_queries:
            gen = rng if rng is not None else np.random.default_rng(0)
            triples = triples[gen.choice(len(triples), max_queries, replace=False)]
        size = batch_size if batch_size is not None else self.batch_size
        tail_queries = triples[:, [0, 1]]
        ranks = [self._ranks_for_queries(model, tail_queries, triples[:, 2], size)]
        if both_directions:
            head_queries = np.stack(
                [triples[:, 2], triples[:, 1] + self.num_relations], axis=1)
            ranks.append(self._ranks_for_queries(model, head_queries,
                                                 triples[:, 0], size))
        return np.concatenate(ranks)

    def evaluate(self, model: TailScorer, part: str = "test",
                 max_queries: int | None = None,
                 rng: np.random.Generator | None = None,
                 batch_size: int | None = None,
                 both_directions: bool = True) -> RankingMetrics:
        """Filtered MR / MRR / Hits@{1,3,10} on a split partition."""
        triples = {"train": self.split.train, "valid": self.split.valid,
                   "test": self.split.test}[part]
        with trace("eval.evaluate", part=part):
            ranks = self.compute_ranks(model, triples, max_queries=max_queries,
                                       rng=rng, batch_size=batch_size,
                                       both_directions=both_directions)
            return RankingMetrics.from_ranks(ranks)
