#!/usr/bin/env python3
"""Quickstart: train CamE on synthetic DRKG-MM and evaluate link prediction.

Runs in about a minute on one CPU core::

    python examples/quickstart.py [--epochs N] [--scale S]
"""

import argparse

import numpy as np

from repro.core import CamE, CamEConfig
from repro.datasets import build_features, get_dataset
from repro.train import OneToNObjective, TrainingEngine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=30,
                        help="training epochs (default: 30)")
    parser.add_argument("--scale", type=float, default=0.35,
                        help="dataset size multiplier (default: 0.35)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)

    # 1. Build the multimodal BKG: entities with molecules + descriptions.
    mkg = get_dataset("drkg-mm", scale=args.scale, seed=args.seed)
    print(f"dataset : {mkg.graph}")
    print(f"split   : {mkg.split.summary()}")

    # 2. Pre-train the modality features (GIN molecules, n-gram text,
    #    CompGCN structure) -- the paper's fixed inputs.
    feats = build_features(mkg, rng, d_m=24, d_t=24, d_s=24)
    print(f"features: molecular/textual/structural dims = {feats.dims}")

    # 3. Build and train CamE with the 1-to-N protocol (Eqn. 16 loss).
    config = CamEConfig(entity_dim=48, relation_dim=48)
    model = CamE(mkg.num_entities, mkg.num_relations, feats, config, rng=rng)
    print(f"model   : CamE with {model.num_parameters():,} parameters")

    engine = TrainingEngine(model, mkg.split, rng, OneToNObjective(batch_size=128),
                            lr=config.learning_rate)
    report = engine.fit(args.epochs, eval_every=max(args.epochs // 3, 1),
                        eval_max_queries=100, verbose=True)
    print(f"trained : final loss {report.final_loss:.4f}, "
          f"{report.mean_epoch_seconds:.2f}s/epoch")

    # 4. Filtered link-prediction evaluation (MR / MRR / Hits@n).
    metrics = engine.evaluator.evaluate(model, part="test", max_queries=300, rng=rng)
    print(f"test    : {metrics}")


if __name__ == "__main__":
    main()
