"""End-to-end integration: the full paper pipeline at smoke scale.

These tests exercise the complete chain — dataset generation, modality
pre-training, CamE training, filtered evaluation — and assert learning
actually happens (trained model beats its untrained self).
"""

import numpy as np
import pytest

from repro.core import CamE, CamEConfig
from repro.datasets import build_features, get_dataset
from repro.eval import RankingEvaluator
from repro.nn import load_module, save_module
from repro.train import OneToNObjective, TrainingEngine


@pytest.fixture(scope="module")
def pipeline():
    mkg = get_dataset("drkg-mm", scale=0.2, seed=5)
    feats = build_features(mkg, np.random.default_rng(0), d_m=8, d_t=8, d_s=8,
                           gin_epochs=1, compgcn_epochs=2)
    return mkg, feats


def train(model, split, rng, epochs):
    TrainingEngine(model, split, rng, OneToNObjective(batch_size=64),
                   lr=5e-3).fit(epochs)


CFG = CamEConfig(entity_dim=16, relation_dim=16, fusion_dim=16,
                 fusion_height=4, fusion_width=4, conv_channels=8)


class TestEndToEnd:
    def test_training_beats_untrained(self, pipeline):
        mkg, feats = pipeline
        rng = np.random.default_rng(1)
        model = CamE(mkg.num_entities, mkg.num_relations, feats, CFG, rng=rng)
        evaluator = RankingEvaluator(mkg.split)
        before = evaluator.evaluate(model, part="valid", max_queries=40,
                                    rng=np.random.default_rng(2))
        train(model, mkg.split, rng, 10)
        after = evaluator.evaluate(model, part="valid", max_queries=40,
                                   rng=np.random.default_rng(2))
        assert after.mrr > before.mrr
        assert after.mr < before.mr

    def test_checkpoint_roundtrip_preserves_predictions(self, pipeline, tmp_path):
        mkg, feats = pipeline
        rng = np.random.default_rng(1)
        model = CamE(mkg.num_entities, mkg.num_relations, feats, CFG, rng=rng)
        train(model, mkg.split, rng, 2)
        path = str(tmp_path / "came.npz")
        save_module(model, path)
        clone = CamE(mkg.num_entities, mkg.num_relations, feats, CFG,
                     rng=np.random.default_rng(99))
        load_module(clone, path)
        heads, rels = np.array([0, 1]), np.array([0, 1])
        np.testing.assert_allclose(clone.predict_tails(heads, rels),
                                   model.predict_tails(heads, rels), atol=1e-10)

    def test_multimodal_beats_structure_only_on_drkg(self, pipeline):
        """The paper's core claim in miniature: modalities carry signal."""
        mkg, feats = pipeline

        def train_and_eval(cfg, seed=1):
            rng = np.random.default_rng(seed)
            model = CamE(mkg.num_entities, mkg.num_relations, feats, cfg, rng=rng)
            train(model, mkg.split, rng, 15)
            return RankingEvaluator(mkg.split).evaluate(
                model, part="valid", max_queries=60,
                rng=np.random.default_rng(3)).mrr

        full = np.mean([train_and_eval(CFG, s) for s in (1, 2)])
        stripped_cfg = CFG.variant(use_text=False, use_molecule=False)
        stripped = np.mean([train_and_eval(stripped_cfg, s) for s in (1, 2)])
        # Allow noise, but the stripped model should not dominate.
        assert full >= stripped * 0.85
