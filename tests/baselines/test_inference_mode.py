"""Every model's ``predict_tails`` must be a clean inference path.

Audited properties (the ``inference_mode`` contract shared via
``baselines.base``): dropout and batch-norm run in eval mode (so
repeated calls are deterministic), the model's training flag is
restored afterwards, and batch-norm running statistics are untouched.
"""

import numpy as np
import pytest

from repro import nn
from repro.baselines import MODEL_REGISTRY, build_model
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm


@pytest.fixture(scope="module")
def prepared():
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.15))
    feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6, d_s=6,
                           gin_epochs=1, compgcn_epochs=1)
    return mkg, feats


@pytest.fixture(scope="module")
def models(prepared):
    mkg, feats = prepared
    built = {}
    for name in sorted(MODEL_REGISTRY):
        model, _ = build_model(name, mkg, feats, np.random.default_rng(1), dim=16)
        built[name] = model
    return mkg, built


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
class TestPredictTailsInferenceMode:
    def test_deterministic_and_mode_restored(self, models, name):
        mkg, built = models
        model = built[name]
        heads = np.array([0, 1, 2])
        rels = np.array([0, 1, 0])
        if hasattr(model, "train"):
            model.train(True)
        first = model.predict_tails(heads, rels)
        second = model.predict_tails(heads, rels)
        # Dropout/batch-norm in eval mode -> two calls agree exactly.
        np.testing.assert_array_equal(first, second)
        assert getattr(model, "training", True) is True
        if hasattr(model, "train"):
            model.train(False)

    def test_batchnorm_stats_untouched(self, models, name):
        mkg, built = models
        model = built[name]
        if not hasattr(model, "state_dict"):
            pytest.skip("model has no buffers")
        before = {k: v.copy() for k, v in model.state_dict().items()
                  if k.startswith("buffer::")}
        if not before:
            pytest.skip("model has no buffers")
        if hasattr(model, "train"):
            model.train(True)
        model.predict_tails(np.array([0, 1]), np.array([0, 0]))
        after = {k: v for k, v in model.state_dict().items()
                 if k.startswith("buffer::")}
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value, err_msg=key)
        if hasattr(model, "train"):
            model.train(False)


def test_inference_mode_restores_on_error():
    layer = nn.Linear(4, 4)
    layer.train(True)
    with pytest.raises(RuntimeError):
        with nn.inference_mode(layer):
            assert layer.training is False
            assert not nn.is_grad_enabled()
            raise RuntimeError("boom")
    assert layer.training is True
    assert nn.is_grad_enabled()
