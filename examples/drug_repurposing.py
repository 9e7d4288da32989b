#!/usr/bin/env python3
"""Drug repurposing: rank candidate diseases for every drug.

The Compound-Disease relation is the paper's motivating application —
predicting missing (drug, treats, disease) links proposes repurposing
hypotheses.  This example trains CamE, then for a handful of drugs
prints the top diseases the model predicts beyond what the KG already
contains, alongside the drug's scaffold and description so the
multimodal rationale is visible.

    python examples/drug_repurposing.py [--epochs N]
"""

import argparse

import numpy as np

from repro.core import CamE, CamEConfig
from repro.datasets import build_features, get_dataset
from repro.eval import build_csr_filter
from repro.serve import topk_indices
from repro.train import OneToNObjective, TrainingEngine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--drugs", type=int, default=5,
                        help="number of example drugs to query")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    mkg = get_dataset("drkg-mm", scale=args.scale, seed=args.seed)
    feats = build_features(mkg, rng, d_m=24, d_t=24, d_s=24)
    model = CamE(mkg.num_entities, mkg.num_relations, feats,
                 CamEConfig(entity_dim=48, relation_dim=48), rng=rng)
    TrainingEngine(model, mkg.split, rng, OneToNObjective(batch_size=128),
                   lr=1e-3).fit(args.epochs)

    graph = mkg.graph
    treats = graph.relations.id("treats")
    not_disease = np.ones(mkg.num_entities, dtype=bool)
    not_disease[mkg.entities_of_type("Disease")] = False
    known = build_csr_filter(mkg.split)

    compounds = mkg.entities_of_type("Compound")
    picks = rng.choice(compounds, size=min(args.drugs, len(compounds)), replace=False)
    print("=== drug repurposing candidates (relation: treats) ===\n")
    for drug in picks:
        drug = int(drug)
        # Only diseases the KG does not already link to the drug compete.
        scores = np.array(model.predict_tails(np.array([drug]), np.array([treats])))
        scores = known.mask_known(scores, [drug], [treats])[0]
        scores[not_disease] = -np.inf
        ranked = topk_indices(scores, 3)
        name = graph.entities.name(drug)
        print(f"{name}  [{mkg.scaffold_of.get(drug, '?')}]")
        print(f"  \"{mkg.descriptions.get(drug, '')}\"")
        for rank, disease in enumerate(ranked, 1):
            print(f"  candidate {rank}: {graph.entities.name(disease):20s} "
                  f"score={scores[disease]:+.2f}  "
                  f"({mkg.descriptions.get(disease, '')})")
        print()


if __name__ == "__main__":
    main()
