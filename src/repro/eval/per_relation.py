"""Per-relation-family evaluation (Tables IV & V of the paper).

The paper trains on the whole KG and reports MRR/Hits per relation
*family* (Disease-Gene, Gene-Gene, Compound-Compound, ...).  We group
test triples by the family label derived from endpoint entity types and
evaluate each group with the standard filtered protocol.
"""

from __future__ import annotations

import numpy as np

from ..kg import KGSplit
from .evaluator import RankingEvaluator, TailScorer
from .metrics import RankingMetrics

__all__ = ["family_of_triples", "evaluate_per_relation_family", "family_triple_counts"]


def _canonical(family: str) -> str:
    left, _, right = family.partition("-")
    return "-".join(sorted((left, right))) if right else family


def family_of_triples(split: KGSplit, triples: np.ndarray) -> np.ndarray:
    """Canonical family label of each triple (endpoint-type pair)."""
    types = split.graph.entity_types
    labels = np.empty(len(triples), dtype=object)
    for i, (h, _, t) in enumerate(triples):
        labels[i] = _canonical(f"{types[int(h)]}-{types[int(t)]}")
    return labels


def family_triple_counts(split: KGSplit) -> dict[str, int]:
    """Triple counts per family over the full KG (Table V)."""
    return split.graph.family_triple_counts()


def evaluate_per_relation_family(
    model: TailScorer,
    split: KGSplit,
    max_queries_per_family: int | None = None,
    rng: np.random.Generator | None = None,
    batch_size: int = 128,
    evaluator: RankingEvaluator | None = None,
) -> dict[str, RankingMetrics]:
    """Filtered metrics per relation family on the test partition.

    One :class:`RankingEvaluator` (hence one filter construction) is
    shared across all families instead of rebuilding the full
    train+valid+test filter per family.
    """
    labels = family_of_triples(split, split.test)
    ev = evaluator if evaluator is not None else RankingEvaluator(split)
    results: dict[str, RankingMetrics] = {}
    for family in sorted(set(labels)):
        subset = split.test[labels == family]
        ranks = ev.compute_ranks(model, subset,
                                 max_queries=max_queries_per_family,
                                 rng=rng, batch_size=batch_size)
        results[family] = RankingMetrics.from_ranks(ranks)
    return results
