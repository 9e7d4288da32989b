"""Reference computations the benchmark checks CamE's outputs against.

Plain numpy and Python, sharing no code with the program's own filter
(``CSRFilter``), batched ranking (``RankingEvaluator.rank_scores``) or
top-k selection (``topk_indices``).
"""

from __future__ import annotations

import numpy as np


class KnownTails:
    """``(h, r) -> known tails`` for both query directions, from raw triples.

    A triple ``(h, r, t)`` makes ``t`` a known tail of ``(h, r)`` and
    ``h`` a known tail of the inverse query ``(t, r + num_relations)``.
    """

    def __init__(self, num_relations: int) -> None:
        self.num_relations = num_relations
        self._tails: dict[tuple[int, int], set[int]] = {}

    def add(self, triples) -> None:
        inverse = self.num_relations
        for h, r, t in np.asarray(triples, dtype=np.int64).reshape(-1, 3).tolist():
            self._tails.setdefault((h, r), set()).add(t)
            self._tails.setdefault((t, r + inverse), set()).add(h)

    def get(self, head: int, rel: int) -> np.ndarray:
        return np.array(sorted(self._tails.get((int(head), int(rel)), ())),
                        dtype=np.int64)


def filtered_ranks(scores: np.ndarray, heads, rels, targets,
                   known: KnownTails) -> np.ndarray:
    """Filtered ranks with the tie rule ``1 + #greater + #equal / 2``.

    Every known tail of the query, the target included, is set to
    ``-inf`` in a copy of the row; the target's own score is read
    before masking, so it counts in neither ``#greater`` nor ``#equal``.
    """
    ranks = np.empty(len(targets))
    for i, target in enumerate(np.asarray(targets).tolist()):
        row = np.array(scores[i], dtype=np.float64)
        target_score = row[target]
        row[known.get(heads[i], rels[i])] = -np.inf
        greater = int(np.count_nonzero(row > target_score))
        equal = int(np.count_nonzero(row == target_score))
        ranks[i] = 1.0 + greater + equal / 2.0
    return ranks


def ranking_summary(ranks: np.ndarray) -> dict[str, float]:
    """MR, MRR (%) and Hits@{1,3,10} (%) of a rank array."""
    summary = {"mr": float(ranks.mean()),
               "mrr": float((1.0 / ranks).mean() * 100.0)}
    for n in (1, 3, 10):
        summary[f"hits@{n}"] = float((ranks <= n).mean() * 100.0)
    return summary


def random_mrr(heads, rels, targets, num_entities: int,
               known: KnownTails) -> float:
    """Expected MRR (%) of a uniformly random ranking under the same filter.

    A query with ``n`` candidates left after filtering has a uniform
    rank on ``1..n``, so its expected reciprocal rank is ``H(n) / n``.
    """
    total = 0.0
    for h, r, t in zip(heads, rels, targets):
        masked = known.get(h, r)
        n = num_entities - int(np.count_nonzero(masked != t))
        total += float(np.sum(1.0 / np.arange(1, n + 1))) / n
    return 100.0 * total / len(targets)


def top_k(row: np.ndarray, known_ids: np.ndarray, k: int) -> np.ndarray:
    """Best ``k`` ids of ``row`` by descending score, ties by ascending id.

    ``known_ids`` are left out, as are cells already at ``-inf``.
    """
    row = np.array(row, dtype=np.float64)
    row[known_ids] = -np.inf
    order = np.lexsort((np.arange(len(row)), -row))
    return order[row[order] > -np.inf][:k].astype(np.int64)
