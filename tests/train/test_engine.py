"""TrainingEngine construction, registry wiring, and report round-trips."""

import numpy as np
import pytest

from repro.baselines import DistMult, build_model
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.eval import RankingMetrics
from repro.train import (
    Callback,
    NegativeSamplingObjective,
    OneToNObjective,
    TrainingEngine,
    TrainReport,
)


@pytest.fixture(scope="module")
def mkg():
    return generate_drkg_mm(DRKGConfig().scaled(0.15))


@pytest.fixture(scope="module")
def feats(mkg):
    rng = np.random.default_rng(5)
    return build_features(mkg, rng, d_m=8, d_t=8, d_s=8,
                          gin_epochs=1, compgcn_epochs=1)


def make_engine(mkg, objective, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    model = DistMult(mkg.num_entities, mkg.num_relations, dim=16, rng=rng)
    return model, TrainingEngine(model, mkg.split, rng, objective, **kwargs)


class TestEngineSurface:
    def test_1ton_objective_exposes_batcher_only(self, mkg):
        _, engine = make_engine(mkg, OneToNObjective(batch_size=64))
        assert engine.batcher is engine.objective.batcher
        assert not hasattr(engine, "sampler")
        assert not hasattr(engine, "train_triples")

    def test_neg_objective_exposes_sampler_and_triples(self, mkg):
        _, engine = make_engine(mkg, NegativeSamplingObjective(batch_size=128))
        assert engine.sampler is engine.objective.sampler
        assert engine.train_triples is engine.objective.train_triples
        assert not hasattr(engine, "batcher")

    def test_evaluator_constructed_once(self, mkg):
        _, engine = make_engine(mkg, OneToNObjective(batch_size=64))
        assert engine.evaluator is engine.evaluator

    def test_fit_level_callbacks_receive_hooks(self, mkg):
        calls = []

        class Recorder(Callback):
            def on_fit_start(self, state):
                calls.append("start")

            def on_fit_end(self, state):
                calls.append("end")

        _, engine = make_engine(mkg, OneToNObjective(batch_size=64))
        engine.fit(1, callbacks=[Recorder()])
        assert calls == ["start", "end"]

    def test_engine_level_callbacks_run_every_fit(self, mkg):
        calls = []

        class Recorder(Callback):
            def on_fit_start(self, state):
                calls.append("start")

        _, engine = make_engine(mkg, OneToNObjective(batch_size=64),
                                callbacks=[Recorder()])
        engine.fit(1)
        engine.fit(1)
        assert calls == ["start", "start"]


class TestBuildModel:
    def test_build_model_returns_engine(self, mkg, feats):
        rng = np.random.default_rng(0)
        _, engine = build_model("DistMult", mkg, feats, rng, dim=16)
        assert isinstance(engine, TrainingEngine)
        assert isinstance(engine.objective, NegativeSamplingObjective)

        rng = np.random.default_rng(0)
        _, engine = build_model("ConvE", mkg, feats, rng, dim=16)
        assert isinstance(engine.objective, OneToNObjective)

    def test_build_model_self_adversarial_flag(self, mkg, feats):
        rng = np.random.default_rng(0)
        _, engine = build_model("a-RotatE", mkg, feats, rng, dim=16)
        assert engine.objective.self_adversarial is True


class TestTrainReportRoundTrip:
    def sample_report(self):
        metrics = RankingMetrics(mr=12.5, mrr=31.25,
                                 hits={1: 10.0, 3: 25.0, 10: 50.0},
                                 num_queries=40)
        return TrainReport(
            epoch_losses=[0.9, 0.5, 0.30000000000000004],
            epoch_seconds=[0.12, 0.11, 0.13],
            eval_history=[(2, 0.25, metrics), (3, 0.4, metrics)],
            best_metrics=metrics,
            best_state={"w": np.arange(6, dtype=np.float64).reshape(2, 3),
                        "b": np.array([1.5, -2.5])},
        )

    def test_round_trip_without_state(self):
        report = self.sample_report()
        clone = TrainReport.from_dict(report.to_dict())
        assert clone.epoch_losses == report.epoch_losses
        assert clone.epoch_seconds == report.epoch_seconds
        assert len(clone.eval_history) == 2
        for (e0, t0, m0), (e1, t1, m1) in zip(report.eval_history,
                                              clone.eval_history):
            assert (e0, t0) == (e1, t1)
            assert m0.to_dict() == m1.to_dict()
        assert clone.best_metrics.to_dict() == report.best_metrics.to_dict()
        assert clone.best_state is None

    def test_round_trip_with_state_is_exact(self):
        report = self.sample_report()
        clone = TrainReport.from_dict(report.to_dict(include_state=True))
        assert set(clone.best_state) == set(report.best_state)
        for name, arr in report.best_state.items():
            got = clone.best_state[name]
            assert got.dtype == arr.dtype
            assert got.shape == arr.shape
            np.testing.assert_array_equal(got, arr)

    def test_survives_json_serialisation(self):
        import json

        report = self.sample_report()
        payload = json.loads(json.dumps(report.to_dict(include_state=True)))
        clone = TrainReport.from_dict(payload)
        # JSON round-trips floats exactly, so parity is bitwise.
        assert clone.epoch_losses == report.epoch_losses
        np.testing.assert_array_equal(clone.best_state["w"],
                                      report.best_state["w"])

    def test_empty_report_round_trip(self):
        clone = TrainReport.from_dict(TrainReport().to_dict())
        assert clone.epoch_losses == []
        assert clone.eval_history == []
        assert clone.best_metrics is None
        assert np.isnan(clone.final_loss)


class TestRankingMetricsRoundTrip:
    def test_to_from_dict(self):
        metrics = RankingMetrics(mr=3.75, mrr=66.66666666666667,
                                 hits={1: 50.0, 10: 100.0}, num_queries=8)
        clone = RankingMetrics.from_dict(metrics.to_dict())
        assert clone.mr == metrics.mr
        assert clone.mrr == metrics.mrr
        assert clone.hits == metrics.hits
        assert all(isinstance(k, int) for k in clone.hits)
        assert clone.num_queries == metrics.num_queries
