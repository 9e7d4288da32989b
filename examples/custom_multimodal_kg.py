#!/usr/bin/env python3
"""Build a custom multimodal BKG from scratch with the public API.

Demonstrates the full pipeline on a hand-made toy knowledge graph:
defining entities/relations/triples, attaching molecules (built
atom-by-atom) and text descriptions, pre-training modality features,
training CamE, and asking it a question.  Use this as a template for
loading your own biological data.

    python examples/custom_multimodal_kg.py
"""

import numpy as np

from repro.core import CamE, CamEConfig
from repro.datasets import MultimodalKG, build_features
from repro.kg import KnowledgeGraph, Vocabulary, split_triples
from repro.mol import MoleculeGenerator, scaffold_by_name
from repro.train import OneToNObjective, TrainingEngine


def build_toy_kg(rng: np.random.Generator) -> MultimodalKG:
    """A tiny hand-wired BKG: two drug classes, genes, diseases."""
    entities = Vocabulary()
    entity_types, descriptions, molecules, scaffold_of = [], {}, {}, {}
    mol_gen = MoleculeGenerator(rng)

    def add(name, etype, description, scaffold=None):
        idx = entities.add(name)
        entity_types.append(etype)
        descriptions[idx] = description
        if scaffold is not None:
            sc = scaffold_by_name(scaffold)
            molecules[idx] = mol_gen.generate(sc)
            scaffold_of[idx] = scaffold
        return idx

    # Penicillin-class antibiotics and statins, with their targets.
    drugs = {
        "Amoxicillin": add("Amoxicillin", "Compound",
                           "Amoxicillin is a penicillin-type antibiotic.", "beta_lactam"),
        "Oxacillin": add("Oxacillin", "Compound",
                         "Oxacillin is a penicillin-type antibiotic.", "beta_lactam"),
        "Lovastatin": add("Lovastatin", "Compound",
                          "Lovastatin lowers cholesterol.", "statin"),
        "Simvastatin": add("Simvastatin", "Compound",
                           "Simvastatin lowers cholesterol.", "statin"),
    }
    genes = {g: add(g, "Gene", f"{g} encodes a drug target.")
             for g in ("PBP1A", "PBP2B", "HMGCR", "CYP3A4")}
    diseases = {d: add(d, "Disease", f"{d} is a disease.")
                for d in ("Pneumonia", "Sepsis", "Hypercholesterolemia")}

    relations = Vocabulary(["targets", "treats", "resembles"])
    triples = []

    def link(h, r, t):
        triples.append((h, relations.id(r), t))

    for antibiotic in ("Amoxicillin", "Oxacillin"):
        link(drugs[antibiotic], "targets", genes["PBP1A"])
        link(drugs[antibiotic], "targets", genes["PBP2B"])
        link(drugs[antibiotic], "treats", diseases["Pneumonia"])
    link(drugs["Amoxicillin"], "treats", diseases["Sepsis"])
    link(drugs["Amoxicillin"], "resembles", drugs["Oxacillin"])
    for statin in ("Lovastatin", "Simvastatin"):
        link(drugs[statin], "targets", genes["HMGCR"])
        link(drugs[statin], "targets", genes["CYP3A4"])
        link(drugs[statin], "treats", diseases["Hypercholesterolemia"])
    link(drugs["Lovastatin"], "resembles", drugs["Simvastatin"])

    graph = KnowledgeGraph(entities=entities, relations=relations,
                           triples=np.asarray(triples, dtype=np.int64),
                           entity_types=entity_types, name="toy-bkg")
    # Tiny KG: keep almost everything in train.
    split = split_triples(graph, rng, ratios=(0.9, 0.05, 0.05))
    return MultimodalKG(split=split, molecules=molecules,
                        descriptions=descriptions, scaffold_of=scaffold_of)


def main() -> None:
    rng = np.random.default_rng(7)
    mkg = build_toy_kg(rng)
    print(f"built {mkg.graph}")

    feats = build_features(mkg, rng, d_m=12, d_t=12, d_s=12)
    model = CamE(mkg.num_entities, mkg.num_relations, feats,
                 CamEConfig(entity_dim=16, relation_dim=16,
                            fusion_dim=16, fusion_height=4, fusion_width=4,
                            conv_channels=8),
                 rng=rng)
    TrainingEngine(model, mkg.split, rng, OneToNObjective(batch_size=16),
                   lr=5e-3).fit(60)

    # Ask: what does Oxacillin treat?  (The KG only says Pneumonia for
    # Oxacillin; a good model should also surface Sepsis by analogy with
    # Amoxicillin -- same scaffold, same targets.)
    graph = mkg.graph
    oxacillin = graph.entities.id("Oxacillin")
    treats = graph.relations.id("treats")
    scores = model.predict_tails(np.array([oxacillin]), np.array([treats]))[0]
    disease_ids = mkg.entities_of_type("Disease")
    ranked = sorted(((float(scores[d]), graph.entities.name(int(d)))
                     for d in disease_ids), reverse=True)
    print("\nWhat might Oxacillin treat?")
    for score, name in ranked:
        print(f"  {name:22s} score={score:+.2f}")


if __name__ == "__main__":
    main()
