"""Per-row filtered-ranking oracle (Bordes et al. protocol, Section V-B).

The straightforward reading of the protocol, kept as the parity oracle
for :class:`repro.eval.RankingEvaluator` and as the "old path" the
evaluation microbenchmark times: a dict ``(h, r) -> true tails`` filter
rebuilt from train+valid+test on every call, and a Python loop that
scatters ``-inf`` into a copy of each score row before counting.  Head
queries rank through the inverse relation ``r + num_relations``; ties
take the mean rank ``1 + #greater + #equal / 2``.  Do not use it on hot
paths.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.kg import KGSplit

__all__ = ["build_filter", "compute_ranks_reference"]


def build_filter(split: KGSplit) -> dict[tuple[int, int], np.ndarray]:
    """Map every ``(h, r)`` query (both directions) to its true tails."""
    num_relations = split.num_relations
    grouped: dict[tuple[int, int], set[int]] = defaultdict(set)
    for part in (split.train, split.valid, split.test):
        for h, r, t in part:
            grouped[(int(h), int(r))].add(int(t))
            grouped[(int(t), int(r) + num_relations)].add(int(h))
    return {key: np.fromiter(vals, dtype=np.int64) for key, vals in grouped.items()}


def _ranks_for_queries(model, queries: np.ndarray, targets: np.ndarray,
                       true_tails: dict[tuple[int, int], np.ndarray],
                       batch_size: int) -> np.ndarray:
    ranks = np.zeros(len(queries))
    for start in range(0, len(queries), batch_size):
        q = queries[start:start + batch_size]
        tgt = targets[start:start + batch_size]
        scores = np.array(model.predict_tails(q[:, 0], q[:, 1]), dtype=np.float64)
        for row in range(len(q)):
            target = int(tgt[row])
            target_score = scores[row, target]
            filtered = true_tails.get((int(q[row, 0]), int(q[row, 1])))
            row_scores = scores[row]
            if filtered is not None:
                row_scores = row_scores.copy()
                row_scores[filtered] = -np.inf
            greater = int((row_scores > target_score).sum())
            equal = int((row_scores == target_score).sum())  # target filtered out
            ranks[start + row] = 1.0 + greater + equal / 2.0
    return ranks


def compute_ranks_reference(model, split: KGSplit, triples: np.ndarray,
                            max_queries: int | None = None,
                            rng: np.random.Generator | None = None,
                            batch_size: int = 128,
                            both_directions: bool = True) -> np.ndarray:
    """Filtered ranks for ``triples`` (tail side, plus head side via inverses)."""
    if max_queries is not None and len(triples) > max_queries:
        gen = rng if rng is not None else np.random.default_rng(0)
        triples = triples[gen.choice(len(triples), max_queries, replace=False)]
    true_tails = build_filter(split)
    num_relations = split.num_relations

    ranks = [_ranks_for_queries(model, triples[:, [0, 1]], triples[:, 2],
                                true_tails, batch_size)]
    if both_directions:
        head_queries = np.stack([triples[:, 2], triples[:, 1] + num_relations], axis=1)
        ranks.append(_ranks_for_queries(model, head_queries, triples[:, 0],
                                        true_tails, batch_size))
    return np.concatenate(ranks)
