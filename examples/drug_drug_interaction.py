#!/usr/bin/env python3
"""Drug-drug interaction screening, comparing CamE to a unimodal model.

Trains both CamE and ConvE, then measures filtered Hits@10 specifically
on the Compound-Compound (DDI) test triples — the relation family where
the paper's Table IV shows the largest multimodal advantage, because
molecular structure is directly informative about interactions.

    python examples/drug_drug_interaction.py [--epochs N]
"""

import argparse

import numpy as np

from repro.baselines import ConvE
from repro.core import CamE, CamEConfig
from repro.datasets import build_features, get_dataset
from repro.eval import RankingMetrics
from repro.train import OneToNObjective, TrainingEngine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    mkg = get_dataset("drkg-mm", scale=args.scale, seed=args.seed)
    feats = build_features(mkg, rng, d_m=24, d_t=24, d_s=24)

    types = mkg.graph.entity_types
    ddi_tests = np.array([t for t in mkg.split.test
                          if types[int(t[0])] == "Compound"
                          and types[int(t[2])] == "Compound"])
    print(f"{len(ddi_tests)} compound-compound test triples\n")

    results = {}
    for name in ("ConvE", "CamE"):
        model_rng = np.random.default_rng(args.seed + 1)
        if name == "CamE":
            model = CamE(mkg.num_entities, mkg.num_relations, feats,
                         CamEConfig(entity_dim=48, relation_dim=48), rng=model_rng)
            epochs = int(args.epochs * 1.5)  # CamE converges slower (Fig. 8)
        else:
            model = ConvE(mkg.num_entities, mkg.num_relations, dim=48, rng=model_rng)
            epochs = args.epochs
        engine = TrainingEngine(model, mkg.split, model_rng,
                                OneToNObjective(batch_size=128),
                                lr=1e-3 if name == "CamE" else 3e-3)
        engine.fit(epochs)
        ranks = engine.evaluator.compute_ranks(model, ddi_tests,
                                               rng=np.random.default_rng(2))
        results[name] = RankingMetrics.from_ranks(ranks)
        print(f"{name:6s} on DDI triples: {results[name]}")

    lift = results["CamE"].mrr - results["ConvE"].mrr
    print(f"\nCamE vs ConvE on drug-drug interactions: {lift:+.1f} MRR points "
          "(the molecule modality at work)")


if __name__ == "__main__":
    main()
