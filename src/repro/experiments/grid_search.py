"""Hyperparameter grid search on the validation set (Section V-B).

The paper selects hyperparameters by grid search on valid Hits@10.  This
utility reproduces that protocol for CamE: it trains one model per grid
point at a reduced budget, scores each on the validation split, and
returns the ranked results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..core import CamE, CamEConfig
from ..eval import RankingMetrics
from ..train import OneToNObjective, TrainingEngine
from .runner import get_prepared
from .scale import Scale

__all__ = ["GridPoint", "grid_search_came"]


@dataclass
class GridPoint:
    """One evaluated grid cell."""

    settings: dict
    valid_metrics: RankingMetrics

    @property
    def key(self) -> float:
        """Selection criterion: valid Hits@10 (the paper's choice)."""
        return self.valid_metrics.hits.get(10, self.valid_metrics.mrr)


def grid_search_came(
    scale: Scale,
    grid: dict[str, tuple],
    dataset: str = "drkg-mm",
    seed: int = 0,
    epochs: int | None = None,
) -> list[GridPoint]:
    """Evaluate every combination in ``grid``; best first.

    Parameters
    ----------
    grid:
        Mapping of :class:`~repro.core.CamEConfig` field names to the
        values to sweep, e.g. ``{"num_heads": (1, 2, 3),
        "exchange_theta": (-2.0, -0.5)}``.
    epochs:
        Per-point training budget; defaults to half the scale's CamE
        budget (relative ordering stabilises early).
    """
    mkg, feats = get_prepared(dataset, scale, seed)
    budget = epochs if epochs is not None else max(scale.epochs_came // 2, 1)
    base = CamEConfig(entity_dim=scale.model_dim, relation_dim=scale.model_dim)

    keys = sorted(grid)
    points: list[GridPoint] = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        settings = dict(zip(keys, combo))
        cfg = base.variant(**settings)
        rng = np.random.default_rng(1234 + seed)
        model = CamE(mkg.num_entities, mkg.num_relations, feats, cfg, rng=rng)
        engine = TrainingEngine(model, mkg.split, rng,
                                OneToNObjective(batch_size=128),
                                lr=cfg.learning_rate)
        engine.fit(budget)
        metrics = engine.evaluator.evaluate(model, part="valid",
                                            max_queries=scale.eval_max_queries,
                                            rng=np.random.default_rng(4321 + seed))
        points.append(GridPoint(settings=settings, valid_metrics=metrics))
    points.sort(key=lambda p: p.key, reverse=True)
    return points
