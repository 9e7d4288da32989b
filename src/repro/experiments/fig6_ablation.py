"""Fig. 6 — ablation study (RQ3).

Retrains CamE with each component removed:

* ``w/o EX``      — no information exchanging in MMF;
* ``w/o TCA``     — no triple co-attention anywhere;
* ``w/o MMF``     — fusion replaced by simple multiplication;
* ``w/o RIC``     — no multimodal entity-relation interaction;
* ``w/o M and R`` — both modules removed (plain stacking);
* ``w/o TD``      — textual descriptions zeroed;
* ``w/o MS``      — molecular structures zeroed.

Expected shape (paper): every removal hurts; removing both modules is
worst; molecule matters more than text on DRKG-MM.
"""

from __future__ import annotations

import numpy as np

from ..core import CamE, CamEConfig
from ..eval import RankingMetrics
from ..train import OneToNObjective, TrainingEngine
from .reporting import format_table
from .runner import get_prepared
from .scale import Scale

__all__ = ["ABLATIONS", "run_fig6", "render_fig6"]

ABLATIONS = ("full", "w/o EX", "w/o TCA", "w/o MMF", "w/o RIC",
             "w/o M and R", "w/o TD", "w/o MS")


def run_fig6(scale: Scale, dataset: str = "drkg-mm", seed: int = 0,
             ablations: tuple[str, ...] = ABLATIONS) -> dict[str, RankingMetrics]:
    """Train each ablation variant and report test metrics."""
    mkg, feats = get_prepared(dataset, scale, seed)
    results: dict[str, RankingMetrics] = {}
    base = CamEConfig(entity_dim=scale.model_dim, relation_dim=scale.model_dim)
    for name in ablations:
        cfg = CamEConfig.ablation(name, base)
        rng = np.random.default_rng(800 + seed)
        model = CamE(mkg.num_entities, mkg.num_relations, feats, cfg, rng=rng)
        engine = TrainingEngine(model, mkg.split, rng,
                                OneToNObjective(batch_size=128),
                                lr=cfg.learning_rate)
        engine.fit(scale.epochs_came, eval_every=scale.eval_every,
                   eval_max_queries=scale.eval_max_queries)
        results[name] = engine.evaluator.evaluate(
            model, part="test", max_queries=scale.test_max_queries,
            rng=np.random.default_rng(900 + seed),
        )
    return results


def render_fig6(results: dict[str, RankingMetrics], dataset: str = "drkg-mm") -> str:
    headers = ["Variant", "MRR", "Hits@1", "Hits@10", "delta MRR vs full"]
    full_mrr = results.get("full").mrr if "full" in results else float("nan")
    rows = []
    for name, metrics in results.items():
        delta = metrics.mrr - full_mrr
        rows.append([name, f"{metrics.mrr:.1f}", f"{metrics.hits[1]:.1f}",
                     f"{metrics.hits[10]:.1f}", f"{delta:+.1f}"])
    return format_table(headers, rows, title=f"Fig. 6 ({dataset}): ablation study")
