"""TrainingEngine ``fit`` corner cases (1-to-N objective) beyond the happy path."""

import numpy as np
import pytest

from repro.baselines import DistMult
from repro.datasets import DRKGConfig, generate_drkg_mm
from repro.train import OneToNObjective, TrainingEngine


@pytest.fixture(scope="module")
def mkg():
    return generate_drkg_mm(DRKGConfig().scaled(0.15))


def make_trainer(mkg, **kwargs):
    rng = np.random.default_rng(0)
    model = DistMult(mkg.num_entities, mkg.num_relations, dim=16, rng=rng)
    return model, TrainingEngine(model, mkg.split, rng,
                                 OneToNObjective(batch_size=64), lr=0.01, **kwargs)


class TestFitBehaviour:
    def test_no_eval_when_eval_every_none(self, mkg):
        _, trainer = make_trainer(mkg)
        report = trainer.fit(2)
        assert report.eval_history == []
        assert report.best_metrics is None

    def test_final_epoch_always_evaluated(self, mkg):
        _, trainer = make_trainer(mkg)
        report = trainer.fit(3, eval_every=10, eval_max_queries=10)
        # eval_every > epochs: still one eval at the last epoch.
        assert len(report.eval_history) == 1
        assert report.eval_history[0][0] == 3

    def test_keep_best_false_keeps_final_weights(self, mkg):
        model, trainer = make_trainer(mkg)
        report = trainer.fit(2, eval_every=1, eval_max_queries=10, keep_best=False)
        assert report.best_state is None

    def test_keep_best_restores_checkpoint(self, mkg):
        model, trainer = make_trainer(mkg)
        report = trainer.fit(2, eval_every=1, eval_max_queries=10)
        best = report.best_state
        for name, param in model.named_parameters():
            np.testing.assert_allclose(param.data, best[name])

    def test_report_timing_fields(self, mkg):
        _, trainer = make_trainer(mkg)
        report = trainer.fit(2)
        assert len(report.epoch_seconds) == 2
        assert report.mean_epoch_seconds > 0
        assert np.isfinite(report.final_loss)

    def test_grad_clip_zero_disables(self, mkg):
        _, trainer = make_trainer(mkg, grad_clip=0.0)
        assert np.isfinite(trainer.train_epoch())

    def test_eval_on_test_part(self, mkg):
        _, trainer = make_trainer(mkg)
        report = trainer.fit(1, eval_every=1, eval_part="test", eval_max_queries=10)
        assert report.eval_history[0][2].num_queries > 0


class TestGridSearch:
    def test_grid_search_orders_by_valid_hits(self):
        from repro.experiments import SMOKE, grid_search_came

        points = grid_search_came(SMOKE, {"num_heads": (1, 2)}, epochs=1)
        assert len(points) == 2
        assert points[0].key >= points[1].key
        assert set(points[0].settings) == {"num_heads"}
