"""Fig. 9 — scalability: per-epoch train/test time vs KG size (RQ7).

Measures the wall-clock cost of one training epoch and one test pass at
growing fractions of the training triples, for CamE and the module
ablations.  The paper's findings to reproduce:

* training time scales ~linearly with KG size;
* testing time also scales ~linearly but with a steeper slope (ranking
  against all entities);
* variants without TCA (w/o TCA, w/o M and R) are the cheapest — the
  TCA operator dominates training cost;
* different modules have similar *testing* time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core import CamE, CamEConfig
from ..train import OneToNObjective, TrainingEngine
from .reporting import format_series
from .runner import get_prepared
from .scale import Scale

__all__ = ["ScalabilityPoint", "run_fig9", "render_fig9"]

FIG9_VARIANTS = ("full", "w/o TCA", "w/o MMF", "w/o M and R", "w/o TD", "w/o MS")
FRACTIONS = (0.25, 0.5, 0.75, 1.0)


@dataclass
class ScalabilityPoint:
    """Timing at one (variant, fraction) grid cell."""

    variant: str
    fraction: float
    train_seconds: float
    test_seconds: float


def run_fig9(scale: Scale, dataset: str = "drkg-mm", seed: int = 0,
             variants: tuple[str, ...] = FIG9_VARIANTS,
             fractions: tuple[float, ...] = FRACTIONS,
             eval_batch_size: int = 128) -> list[ScalabilityPoint]:
    """Time one epoch + one test pass per (variant, fraction).

    ``eval_batch_size`` tunes the ranking batch so the scalability sweep
    can trade peak memory against throughput.
    """
    mkg, feats = get_prepared(dataset, scale, seed)
    base = CamEConfig(entity_dim=scale.model_dim, relation_dim=scale.model_dim)
    rng_master = np.random.default_rng(950 + seed)
    points: list[ScalabilityPoint] = []
    for variant in variants:
        cfg = CamEConfig.ablation(variant, base)
        for fraction in fractions:
            keep = max(1, int(len(mkg.split.train) * fraction))
            sub_split = type(mkg.split)(
                graph=mkg.graph,
                train=mkg.split.train[:keep],
                valid=mkg.split.valid,
                test=mkg.split.test,
            )
            rng = np.random.default_rng(rng_master.integers(1 << 31))
            model = CamE(mkg.num_entities, mkg.num_relations, feats, cfg, rng=rng)
            engine = TrainingEngine(model, sub_split, rng,
                                    OneToNObjective(batch_size=128),
                                    lr=cfg.learning_rate)
            tick = time.perf_counter()
            engine.train_epoch()
            train_seconds = time.perf_counter() - tick
            n_test = max(1, int(scale.test_max_queries * fraction / 2))
            tick = time.perf_counter()
            engine.evaluator.evaluate(model, part="test", max_queries=n_test,
                                      rng=np.random.default_rng(1),
                                      batch_size=eval_batch_size)
            test_seconds = time.perf_counter() - tick
            points.append(ScalabilityPoint(variant, fraction,
                                           train_seconds, test_seconds))
    return points


def render_fig9(points: list[ScalabilityPoint]) -> str:
    train_series: dict[str, list[tuple[float, float]]] = {}
    test_series: dict[str, list[tuple[float, float]]] = {}
    for p in points:
        train_series.setdefault(p.variant, []).append((p.fraction, p.train_seconds))
        test_series.setdefault(p.variant, []).append((p.fraction, p.test_seconds))
    return "\n\n".join([
        format_series(train_series, x_label="KG fraction", y_label="train s/epoch",
                      title="Fig. 9: training time per epoch vs KG size"),
        format_series(test_series, x_label="KG fraction", y_label="test s",
                      title="Fig. 9: testing time vs KG size"),
    ])
