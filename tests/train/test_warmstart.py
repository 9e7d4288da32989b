"""Warm-start fine-tuning: frozen backbone, trained new rows, row deltas."""

import copy
import threading

import numpy as np
import pytest

from repro.baselines import build_model
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.nn import Parameter
from repro.serve import PredictionEngine
from repro.stream import apply_append_to_model
from repro.train import (
    FrozenRowsAdam,
    WarmStartObjective,
    apply_row_delta,
    entity_row_parameters,
    export_row_delta,
    warm_start,
)


@pytest.fixture(scope="module")
def base():
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.12))
    feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6, d_s=6,
                           gin_epochs=1, compgcn_epochs=1)
    return mkg, feats


def grown(base, name, seed=1):
    """A private model + split with one streamed entity already applied."""
    mkg, feats = copy.deepcopy(base)
    model, _ = build_model(name, mkg, feats, np.random.default_rng(seed), dim=16)
    old = model.num_entities
    body = {"entities": [{"name": "WS::1", "type": "Compound",
                          "description": "warm start probe"}],
            "triples": [["WS::1", 0, 3], [5, 1, "WS::1"]]}
    delta, _ = apply_append_to_model(model, mkg.split, body, features=feats)
    return mkg, model, old, delta


class TestFrozenRowsAdam:
    def test_frozen_rows_never_move(self):
        param = Parameter(np.arange(12, dtype=np.float64).reshape(4, 3))
        opt = FrozenRowsAdam([param], frozen_rows=2, lr=0.1)
        for _ in range(3):
            param.grad = np.ones_like(param.data)
            opt.step()
        np.testing.assert_array_equal(param.data[:2],
                                      np.arange(6).reshape(2, 3))
        assert np.all(param.data[2:] < np.arange(6, 12).reshape(2, 3))

    def test_negative_frozen_rows_rejected(self):
        with pytest.raises(ValueError):
            FrozenRowsAdam([Parameter(np.zeros(2))], frozen_rows=-1)


class TestWarmStart:
    @pytest.mark.parametrize("name", ["TransE", "CamE"])
    def test_backbone_bit_identical_new_rows_move(self, base, name):
        mkg, model, old, delta = grown(base, name)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        new_rows = model.entity_embedding.weight.data[old:].copy()
        report = warm_start(model, mkg.split, delta.triples,
                            old_num_entities=old, epochs=2,
                            rng=np.random.default_rng(7))
        assert len(report.epoch_losses) == 2
        after = model.state_dict()
        row_keys = {n for n, _ in entity_row_parameters(model)}
        for key, value in before.items():
            if key in row_keys:
                np.testing.assert_array_equal(after[key][:old], value[:old],
                                              err_msg=key)
            else:
                np.testing.assert_array_equal(after[key], value, err_msg=key)
        assert not np.array_equal(model.entity_embedding.weight.data[old:],
                                  new_rows)
        assert model.training  # mode restored

    def test_served_model_stays_in_eval_mode_while_warm_starting(
            self, base, monkeypatch):
        """The engine scores while a warm start on its model is paused
        inside a training step: neither side flips the served model's
        mode, before, during or after."""
        mkg, model, old, delta = grown(base, "CamE")
        engine = PredictionEngine(model, mkg.split, cache_size=0)
        in_step, scored = threading.Event(), threading.Event()
        loss = WarmStartObjective.loss

        def paused_loss(objective, model_, batch):
            in_step.set()
            scored.wait(10)
            return loss(objective, model_, batch)

        monkeypatch.setattr(WarmStartObjective, "loss", paused_loss)
        thread = threading.Thread(target=warm_start, args=(
            model, mkg.split, delta.triples),
            kwargs=dict(old_num_entities=old, epochs=1,
                        rng=np.random.default_rng(7)))
        thread.start()
        assert in_step.wait(10)
        seen = [model.training]
        engine.scores([0], [0])
        seen.append(model.training)
        scored.set()
        thread.join(30)
        assert not thread.is_alive()
        assert seen == [False, False]
        assert model.training is False

    def test_objective_requires_applied_append(self, base):
        mkg, model, old, delta = grown(base, "TransE")
        bogus = np.array([[old + 99, 0, 1]])
        with pytest.raises(ValueError, match="beyond the graph"):
            WarmStartObjective(bogus).prepare(model, mkg.split,
                                              np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one"):
            WarmStartObjective(np.empty((0, 3))).prepare(
                model, mkg.split, np.random.default_rng(0))


class TestRowDelta:
    def test_export_apply_round_trip(self, base):
        mkg, model, old, delta = grown(base, "CamE")
        warm_start(model, mkg.split, delta.triples, old_num_entities=old,
                   epochs=2, rng=np.random.default_rng(7))
        payload = export_row_delta(model, old)
        assert set(payload["state"]) == {"entity_embedding.weight",
                                         "entity_bias"}
        # Replay onto an identically-grown clone (same seeds, no warm start).
        _, clone, clone_old, _ = grown(base, "CamE")
        assert clone_old == old
        updated = apply_row_delta(clone, payload)
        assert sorted(updated) == sorted(payload["state"])
        np.testing.assert_array_equal(clone.entity_embedding.weight.data,
                                      model.entity_embedding.weight.data)
        np.testing.assert_array_equal(clone.entity_bias.data,
                                      model.entity_bias.data)

    def test_apply_requires_grown_model(self, base):
        mkg, model, old, _ = grown(base, "TransE")
        payload = export_row_delta(model, old)
        fresh_mkg, fresh_feats = copy.deepcopy(base)
        ungrown, _ = build_model("TransE", fresh_mkg, fresh_feats,
                                 np.random.default_rng(1), dim=16)
        with pytest.raises(ValueError, match="stream append"):
            apply_row_delta(ungrown, payload)

    def test_export_range_checked(self, base):
        _, model, old, _ = grown(base, "TransE")
        with pytest.raises(ValueError):
            export_row_delta(model, model.num_entities + 1)
