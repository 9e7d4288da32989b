"""CamE: multimodal biological knowledge graph completion (ICDE 2023).

A complete from-scratch reproduction of *"Multimodal Biological
Knowledge Graph Completion via Triple Co-attention Mechanism"* (Xu et
al., ICDE 2023), including every substrate the paper depends on:

* :mod:`repro.nn`          — numpy autograd deep-learning framework
* :mod:`repro.kg`          — knowledge-graph data structures & protocols
* :mod:`repro.mol`         — molecular graphs, scaffolds, GIN pre-training
* :mod:`repro.text`        — biomedical text corpus & character encoders
* :mod:`repro.gnn`         — CompGCN structural embeddings
* :mod:`repro.datasets`    — synthetic DRKG-MM / OMAHA-MM
* :mod:`repro.core`        — the CamE model (TCA, MMF, RIC)
* :mod:`repro.baselines`   — the 13 Table III comparison models
* :mod:`repro.eval`        — filtered ranking metrics
* :mod:`repro.train`       — unified training engine + callbacks
* :mod:`repro.serve`       — checkpoint bundles + HTTP prediction service
* :mod:`repro.obs`         — metrics, tracing, autograd profiling
* :mod:`repro.experiments` — one harness per paper table/figure

Quickstart::

    import numpy as np
    from repro.datasets import get_dataset, build_features
    from repro.core import CamE, CamEConfig
    from repro.train import OneToNObjective, TrainingEngine

    mkg = get_dataset("drkg-mm", scale=0.5)
    feats = build_features(mkg, np.random.default_rng(0))
    model = CamE(mkg.num_entities, mkg.num_relations, feats,
                 CamEConfig(entity_dim=48, relation_dim=48))
    engine = TrainingEngine(model, mkg.split, np.random.default_rng(1),
                            OneToNObjective(batch_size=64), lr=1e-3)
    engine.fit(epochs=60)
    print(engine.evaluator.evaluate(model))
"""

__version__ = "1.0.0"

__all__ = [
    "nn", "kg", "mol", "text", "gnn", "datasets", "core", "baselines",
    "eval", "train", "serve", "obs", "experiments", "__version__",
]
