"""Fig. 5 — parameter evaluation (RQ2).

Sweeps the three CamE-specific hyperparameters:

(a) number of TCA heads ``m`` (paper peaks at 2 on DRKG-MM, 3 on
    OMAHA-MM; too many heads overfit);
(b) exchanging factor ``theta`` (paper best: -0.5 / -2.0);
(c) temperature interval ``lambda`` with ``m = 2`` (paper best: 5).

Each sweep point retrains CamE at a reduced budget and reports test MRR.
"""

from __future__ import annotations

import numpy as np

from ..core import CamE, CamEConfig
from ..train import OneToNObjective, TrainingEngine
from .reporting import format_series
from .runner import get_prepared
from .scale import Scale

__all__ = ["run_fig5", "render_fig5", "SWEEPS"]

SWEEPS = {
    "heads": (1, 2, 3, 4),
    "theta": (-2.0, -1.0, -0.5, 0.0, 0.5),
    "interval": (1.0, 5.0, 10.0, 20.0),
}


def _train_mrr(mkg, feats, cfg: CamEConfig, scale: Scale, seed: int) -> float:
    rng = np.random.default_rng(600 + seed)
    model = CamE(mkg.num_entities, mkg.num_relations, feats, cfg, rng=rng)
    engine = TrainingEngine(model, mkg.split, rng,
                            OneToNObjective(batch_size=128),
                            lr=cfg.learning_rate)
    # Reduced budget: the sweep needs relative ordering, not convergence.
    engine.fit(max(scale.epochs_came // 2, 1))
    metrics = engine.evaluator.evaluate(model, part="test",
                                        max_queries=scale.test_max_queries // 2,
                                        rng=np.random.default_rng(700 + seed))
    return metrics.mrr


def run_fig5(scale: Scale, dataset: str = "drkg-mm", seed: int = 0,
             sweeps: dict[str, tuple] | None = None) -> dict[str, list[tuple[float, float]]]:
    """Run all three sweeps; returns ``{sweep: [(value, MRR), ...]}``."""
    mkg, feats = get_prepared(dataset, scale, seed)
    plan = sweeps or SWEEPS
    base = CamEConfig(entity_dim=scale.model_dim, relation_dim=scale.model_dim)
    out: dict[str, list[tuple[float, float]]] = {}
    if "heads" in plan:
        out["heads"] = [
            (m, _train_mrr(mkg, feats, base.variant(num_heads=int(m)), scale, seed))
            for m in plan["heads"]
        ]
    if "theta" in plan:
        out["theta"] = [
            (th, _train_mrr(mkg, feats, base.variant(exchange_theta=float(th)), scale, seed))
            for th in plan["theta"]
        ]
    if "interval" in plan:
        out["interval"] = [
            (lam, _train_mrr(mkg, feats,
                             base.variant(num_heads=2, interval=float(lam)), scale, seed))
            for lam in plan["interval"]
        ]
    return out


def render_fig5(results: dict[str, list[tuple[float, float]]], dataset: str = "drkg-mm") -> str:
    return format_series(
        results, x_label="value", y_label="test MRR",
        title=f"Fig. 5 ({dataset}): parameter evaluation "
              "(a) #heads m  (b) exchanging factor theta  (c) interval lambda",
    )
