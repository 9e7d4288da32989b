"""CamE model: config validation, scoring, ablations, training."""

import numpy as np
import pytest

from repro.core import CamE, CamEConfig, reshape_to_2d_shape
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.train import OneToNObjective, TrainingEngine


@pytest.fixture(scope="module")
def prepared():
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.15))
    feats = build_features(mkg, np.random.default_rng(0), d_m=8, d_t=8, d_s=8,
                           gin_epochs=1, compgcn_epochs=1)
    return mkg, feats


TINY = CamEConfig(entity_dim=16, relation_dim=16, fusion_dim=16,
                  fusion_height=4, fusion_width=4, conv_channels=4)


class TestConfig:
    def test_defaults_valid(self):
        CamEConfig()

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError, match="fusion_dim"):
            CamEConfig(fusion_dim=32, fusion_height=3, fusion_width=5)

    def test_bad_heads_rejected(self):
        with pytest.raises(ValueError):
            CamEConfig(num_heads=0)

    def test_bad_dropout_rejected(self):
        with pytest.raises(ValueError):
            CamEConfig(dropout=1.0)

    def test_variant_replaces(self):
        cfg = CamEConfig().variant(num_heads=3)
        assert cfg.num_heads == 3
        assert CamEConfig().num_heads == 2  # original untouched

    @pytest.mark.parametrize("name,field,value", [
        ("w/o EX", "use_exchange", False),
        ("w/o TCA", "use_tca", False),
        ("w/o MMF", "use_mmf", False),
        ("w/o RIC", "use_ric", False),
        ("w/o TD", "use_text", False),
        ("w/o MS", "use_molecule", False),
    ])
    def test_named_ablations(self, name, field, value):
        cfg = CamEConfig.ablation(name)
        assert getattr(cfg, field) is value

    def test_w_o_m_and_r_disables_both(self):
        cfg = CamEConfig.ablation("w/o M and R")
        assert not cfg.use_mmf and not cfg.use_ric

    def test_unknown_ablation(self):
        with pytest.raises(KeyError):
            CamEConfig.ablation("w/o everything")


class TestReshape2D:
    @pytest.mark.parametrize("length,expected", [
        (64, (8, 8)), (96, (8, 12)), (100, (10, 10)), (7, (1, 7)), (12, (3, 4)),
    ])
    def test_factorisation(self, length, expected):
        h, w = reshape_to_2d_shape(length)
        assert (h, w) == expected
        assert h * w == length


class TestCamEScoring:
    def test_full_scoring_shape(self, prepared):
        mkg, feats = prepared
        model = CamE(mkg.num_entities, mkg.num_relations, feats, TINY,
                     rng=np.random.default_rng(0))
        heads = np.array([0, 1, 2])
        rels = np.array([0, 1, 0])
        scores = model.score_queries(heads, rels)
        assert scores.shape == (3, mkg.num_entities)

    def test_candidate_scores_match_full(self, prepared):
        mkg, feats = prepared
        model = CamE(mkg.num_entities, mkg.num_relations, feats, TINY,
                     rng=np.random.default_rng(0))
        model.eval()  # deterministic (no dropout / BN batch stats)
        heads, rels = np.array([0, 1]), np.array([0, 1])
        candidates = np.array([[3, 4, 5], [0, 2, 9]])
        full = model.score_queries(heads, rels).data
        sub = model.score_queries(heads, rels, candidates).data
        for row in range(2):
            np.testing.assert_allclose(sub[row], full[row, candidates[row]],
                                       atol=1e-10)

    def test_predict_tails_inference_mode(self, prepared):
        mkg, feats = prepared
        model = CamE(mkg.num_entities, mkg.num_relations, feats, TINY,
                     rng=np.random.default_rng(0))
        model.train()
        a = model.predict_tails(np.array([0]), np.array([0]))
        b = model.predict_tails(np.array([0]), np.array([0]))
        np.testing.assert_allclose(a, b)  # deterministic despite dropout config
        assert model.training  # mode restored

    def test_inverse_relations_supported(self, prepared):
        mkg, feats = prepared
        model = CamE(mkg.num_entities, mkg.num_relations, feats, TINY,
                     rng=np.random.default_rng(0))
        inv_rel = np.array([mkg.num_relations])  # first inverse id
        scores = model.predict_tails(np.array([0]), inv_rel)
        assert scores.shape == (1, mkg.num_entities)

    @pytest.mark.parametrize("ablation", ["w/o TCA", "w/o EX", "w/o MMF",
                                          "w/o RIC", "w/o M and R",
                                          "w/o TD", "w/o MS"])
    def test_ablation_variants_forward(self, prepared, ablation):
        mkg, feats = prepared
        cfg = CamEConfig.ablation(ablation, TINY)
        model = CamE(mkg.num_entities, mkg.num_relations, feats, cfg,
                     rng=np.random.default_rng(0))
        scores = model.score_queries(np.array([0, 1]), np.array([0, 0]))
        assert scores.shape == (2, mkg.num_entities)
        assert np.isfinite(scores.data).all()

    def test_dropped_modality_zeroes_table(self, prepared):
        mkg, feats = prepared
        cfg = TINY.variant(use_molecule=False)
        model = CamE(mkg.num_entities, mkg.num_relations, feats, cfg,
                     rng=np.random.default_rng(0))
        np.testing.assert_allclose(model.h_m_table, 0.0)

    def test_gradients_reach_all_parameters(self, prepared):
        mkg, feats = prepared
        model = CamE(mkg.num_entities, mkg.num_relations, feats, TINY,
                     rng=np.random.default_rng(0))
        from repro.nn import functional as F
        scores = model.score_queries(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 0]))
        labels = np.zeros(scores.shape)
        labels[:, 0] = 1.0
        F.bce_with_logits(scores, labels).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing, f"no gradient reached: {missing}"


class TestCamETraining:
    def test_loss_decreases(self, prepared):
        mkg, feats = prepared
        rng = np.random.default_rng(1)
        model = CamE(mkg.num_entities, mkg.num_relations, feats, TINY, rng=rng)
        trainer = TrainingEngine(model, mkg.split, rng,
                                 OneToNObjective(batch_size=64), lr=3e-3)
        first = trainer.train_epoch()
        for _ in range(3):
            last = trainer.train_epoch()
        assert last < first

    def test_fit_reports_history_and_restores_best(self, prepared):
        mkg, feats = prepared
        rng = np.random.default_rng(1)
        model = CamE(mkg.num_entities, mkg.num_relations, feats, TINY, rng=rng)
        trainer = TrainingEngine(model, mkg.split, rng,
                                 OneToNObjective(batch_size=64), lr=3e-3)
        report = trainer.fit(3, eval_every=1, eval_max_queries=20)
        assert len(report.epoch_losses) == 3
        assert len(report.eval_history) == 3
        assert report.best_metrics is not None
        assert report.best_state is not None

    def test_candidate_sampling_mode(self, prepared):
        mkg, feats = prepared
        rng = np.random.default_rng(1)
        model = CamE(mkg.num_entities, mkg.num_relations, feats, TINY, rng=rng)
        trainer = TrainingEngine(model, mkg.split, rng,
                                 OneToNObjective(batch_size=32, negatives=20),
                                 lr=3e-3)
        loss = trainer.train_epoch()
        assert np.isfinite(loss)
