"""Model registry and negative-sampling training through the engine."""

import numpy as np
import pytest

from repro.baselines import (
    MODEL_REGISTRY,
    TransE,
    build_model,
    get_spec,
    model_names,
)
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.train import NegativeSamplingObjective, TrainingEngine


@pytest.fixture(scope="module")
def prepared():
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.15))
    feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6, d_s=6,
                           gin_epochs=1, compgcn_epochs=1)
    return mkg, feats


class TestRegistry:
    def test_fourteen_models(self):
        assert len(MODEL_REGISTRY) == 14

    def test_groups(self):
        groups = {spec.group for spec in MODEL_REGISTRY.values()}
        assert groups == {"unimodal", "multimodal", "ours"}
        assert len(model_names(("unimodal",))) == 9
        assert len(model_names(("multimodal",))) == 4

    def test_unknown_model_raises(self, prepared):
        mkg, feats = prepared
        with pytest.raises(ValueError, match="valid names"):
            build_model("GPT", mkg, feats, np.random.default_rng(0))

    def test_get_spec_by_name(self):
        spec = get_spec("CamE")
        assert spec.name == "CamE" and spec.group == "ours"

    def test_get_spec_miss_lists_every_valid_name(self):
        with pytest.raises(ValueError) as excinfo:
            get_spec("BERT")
        message = str(excinfo.value)
        for name in MODEL_REGISTRY:
            assert name in message

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_build_and_one_epoch(self, prepared, name):
        mkg, feats = prepared
        model, trainer = build_model(name, mkg, feats,
                                     np.random.default_rng(1), dim=16)
        loss = trainer.train_epoch()
        assert np.isfinite(loss), name
        scores = model.predict_tails(np.array([0]), np.array([0]))
        assert scores.shape == (1, mkg.num_entities)

    def test_negatives_1ton_flag(self, prepared):
        mkg, feats = prepared
        model, trainer = build_model("ConvE", mkg, feats,
                                     np.random.default_rng(1), dim=16,
                                     negatives_1ton=10)
        assert trainer.batcher.negatives == 10


class TestNegativeSamplingEngine:
    def test_loss_decreases(self, prepared):
        mkg, _ = prepared
        rng = np.random.default_rng(3)
        model = TransE(mkg.num_entities, mkg.num_relations, dim=16, rng=rng)
        trainer = TrainingEngine(model, mkg.split, rng,
                                 NegativeSamplingObjective(), lr=0.02)
        first = trainer.train_epoch()
        for _ in range(4):
            last = trainer.train_epoch()
        assert last < first

    def test_self_adversarial_mode_runs(self, prepared):
        mkg, _ = prepared
        rng = np.random.default_rng(3)
        model = TransE(mkg.num_entities, mkg.num_relations, dim=16, rng=rng)
        trainer = TrainingEngine(
            model, mkg.split, rng,
            NegativeSamplingObjective(self_adversarial=True), lr=0.02)
        assert np.isfinite(trainer.train_epoch())

    def test_fit_restores_best_state(self, prepared):
        mkg, _ = prepared
        rng = np.random.default_rng(3)
        model = TransE(mkg.num_entities, mkg.num_relations, dim=16, rng=rng)
        trainer = TrainingEngine(model, mkg.split, rng,
                                 NegativeSamplingObjective(), lr=0.02)
        report = trainer.fit(2, eval_every=1, eval_max_queries=20)
        assert report.best_state is not None
        assert len(report.eval_history) == 2
        assert len(report.epoch_seconds) == 2

    def test_inverse_triples_used(self, prepared):
        mkg, _ = prepared
        rng = np.random.default_rng(3)
        model = TransE(mkg.num_entities, mkg.num_relations, dim=8, rng=rng)
        trainer = TrainingEngine(model, mkg.split, rng,
                                 NegativeSamplingObjective(), lr=0.01)
        assert len(trainer.train_triples) == 2 * len(mkg.split.train)
        assert trainer.train_triples[:, 1].max() >= mkg.num_relations
