"""``repro.eval`` — filtered link-prediction evaluation.

MR / MRR / Hits metrics (:mod:`repro.eval.metrics`), the filtered
ranking protocol over both query directions with its construct-once
CSR filter (:mod:`repro.eval.evaluator` — the only code that ranks),
per-relation-family breakdowns (:mod:`repro.eval.per_relation`) and the
inductive split (:mod:`repro.eval.inductive`).
"""

from .evaluator import CSRFilter, RankingEvaluator, TailScorer, build_csr_filter
from .inductive import (
    InductiveReport,
    InductiveSplit,
    UnseenEntity,
    evaluate_inductive,
    make_unseen_split,
)
from .metrics import RankingMetrics
from .per_relation import (
    evaluate_per_relation_family,
    family_of_triples,
    family_triple_counts,
)

__all__ = [
    "CSRFilter",
    "RankingEvaluator",
    "RankingMetrics",
    "TailScorer",
    "build_csr_filter",
    "evaluate_per_relation_family",
    "family_of_triples",
    "family_triple_counts",
    "InductiveReport",
    "InductiveSplit",
    "UnseenEntity",
    "evaluate_inductive",
    "make_unseen_split",
]
