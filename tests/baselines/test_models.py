"""Every baseline model: scoring consistency, shapes, gradients."""

import numpy as np
import pytest

from repro.baselines import (
    ComplEx,
    CompGCNLinkPredictor,
    ConvE,
    DistMult,
    DualE,
    IKRL,
    MKGformer,
    MTAKGR,
    PairRE,
    RotatE,
    TransAE,
    TransE,
)
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm

E, R = 20, 4


@pytest.fixture(scope="module")
def modal_features():
    rng = np.random.default_rng(0)
    return {
        "text": rng.normal(size=(E, 6)),
        "mol": rng.normal(size=(E, 6)),
        "struct": rng.normal(size=(E, 6)),
    }


def _translational_models(feats):
    rng = np.random.default_rng(1)
    return [
        TransE(E, R, dim=8, rng=rng),
        DistMult(E, R, dim=8, rng=rng),
        ComplEx(E, R, dim=4, rng=rng),
        RotatE(E, R, dim=4, rng=rng),
        PairRE(E, R, dim=8, rng=rng),
        DualE(E, R, dim=4, rng=rng),
        IKRL(E, R, feats["mol"], dim=8, rng=rng),
        MTAKGR(E, R, feats["text"], feats["mol"], dim=8, rng=rng),
        TransAE(E, R, feats["text"], feats["mol"], dim=8, rng=rng),
    ]


class TestTripleScorers:
    def test_triple_scores_shape(self, modal_features):
        triples = np.array([[0, 0, 1], [2, 3, 4], [5, 1, 6]])
        for model in _translational_models(modal_features):
            scores = model.triple_scores(triples)
            assert scores.shape == (3,), type(model).__name__

    def test_predict_tails_shape_covers_inverse(self, modal_features):
        heads = np.array([0, 1])
        rels = np.array([0, R + 1])  # one inverse relation id
        for model in _translational_models(modal_features):
            scores = model.predict_tails(heads, rels)
            assert scores.shape == (2, E), type(model).__name__
            assert np.isfinite(scores).all(), type(model).__name__

    def test_training_and_inference_scores_agree(self, modal_features):
        """score of (h,r,t) must equal column t of predict_tails(h,r)."""
        triples = np.array([[0, 0, 1], [2, 3, 4], [7, 2, 9]])
        for model in _translational_models(modal_features):
            name = type(model).__name__
            if name == "TransAE":
                continue  # folds a batch-level reconstruction term into scores
            train_scores = model.triple_scores(triples).data
            infer = model.predict_tails(triples[:, 0], triples[:, 1])
            picked = infer[np.arange(3), triples[:, 2]]
            np.testing.assert_allclose(train_scores, picked, atol=1e-8,
                                       err_msg=name)

    def test_gradients_flow(self, modal_features):
        triples = np.array([[0, 0, 1], [2, 3, 4]])
        for model in _translational_models(modal_features):
            model.zero_grad()
            model.triple_scores(triples).sum().backward()
            grads = [p.grad is not None for p in model.parameters()]
            assert any(grads), type(model).__name__


class TestRotatESpecifics:
    def test_rotation_preserves_modulus(self):
        model = RotatE(E, R, dim=4, rng=np.random.default_rng(0))
        cos, sin = model._unit_rotation(np.array([0, 1]))
        modulus = cos.data ** 2 + sin.data ** 2
        np.testing.assert_allclose(modulus, np.ones_like(modulus), atol=1e-6)

    def test_perfect_triple_scores_gamma(self):
        model = RotatE(3, 1, dim=2, gamma=12.0, rng=np.random.default_rng(0))
        # Force tail = rotation of head: copy rotated head into tail row.
        cos, sin = model._unit_rotation(np.array([0]))
        h = model.entity_embedding.weight.data[0]
        h_re, h_im = h[:2], h[2:]
        t_re = h_re * cos.data[0] - h_im * sin.data[0]
        t_im = h_re * sin.data[0] + h_im * cos.data[0]
        model.entity_embedding.weight.data[1] = np.concatenate([t_re, t_im])
        score = float(model.triple_scores(np.array([[0, 0, 1]])).data[0])
        assert score == pytest.approx(12.0, abs=1e-3)


class TestDualESpecifics:
    def test_relation_normalised_to_unit_dual_quaternion(self):
        model = DualE(E, R, dim=3, rng=np.random.default_rng(0))
        comps = model._normalized_relation(np.array([0, 1]))
        q_r = [c.data for c in comps[:4]]
        q_d = [c.data for c in comps[4:]]
        norm = sum(c * c for c in q_r)
        np.testing.assert_allclose(norm, np.ones_like(norm), atol=1e-6)
        dot = sum(cr * cd for cr, cd in zip(q_r, q_d))
        np.testing.assert_allclose(dot, np.zeros_like(dot), atol=1e-6)


class TestOneToNModels:
    @pytest.fixture(scope="class")
    def prepared(self):
        mkg = generate_drkg_mm(DRKGConfig().scaled(0.15))
        feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6, d_s=6,
                               gin_epochs=1, compgcn_epochs=1)
        return mkg, feats

    def _models(self, mkg, feats):
        rng = np.random.default_rng(2)
        return [
            ConvE(mkg.num_entities, mkg.num_relations, dim=16, rng=rng),
            CompGCNLinkPredictor(mkg.num_entities, mkg.num_relations,
                                 mkg.split.train, dim=8, rng=rng),
            MKGformer(mkg.num_entities, mkg.num_relations, feats.textual,
                      feats.molecular, feats.structural, dim=16, rng=rng),
        ]

    def test_score_queries_full(self, prepared):
        mkg, feats = prepared
        for model in self._models(mkg, feats):
            scores = model.score_queries(np.array([0, 1]), np.array([0, 1]))
            assert scores.shape == (2, mkg.num_entities), type(model).__name__

    def test_score_queries_candidates_match_full(self, prepared):
        mkg, feats = prepared
        cands = np.array([[0, 5, 9], [1, 2, 3]])
        for model in self._models(mkg, feats):
            name = type(model).__name__
            model.eval()
            full = model.score_queries(np.array([0, 1]), np.array([0, 1])).data
            sub = model.score_queries(np.array([0, 1]), np.array([0, 1]), cands).data
            for row in range(2):
                np.testing.assert_allclose(sub[row], full[row, cands[row]],
                                           atol=1e-8, err_msg=name)

    def test_predict_tails_finite(self, prepared):
        mkg, feats = prepared
        for model in self._models(mkg, feats):
            out = model.predict_tails(np.array([0]), np.array([mkg.num_relations]))
            assert np.isfinite(out).all(), type(model).__name__
