"""Golden parity: the engine reproduces the pre-refactor loops bit for bit.

``tests/data/golden_train_parity.json`` was captured from the seed
trainers *before* they were folded into :class:`TrainingEngine`.  These
tests replay the exact same seeded runs through the engine and
compare losses via ``repr`` (full float precision), metrics via their
exact values, and the best state via per-array SHA-256 — any change in
RNG consumption order or float accumulation fails loudly.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.baselines.conve import ConvE
from repro.baselines.rotate import RotatE
from repro.datasets import DRKGConfig, generate_drkg_mm
from repro.train import NegativeSamplingObjective, OneToNObjective, TrainingEngine

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "data",
                           "golden_train_parity.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def mkg(golden):
    assert golden["dataset"]["generator"] == "generate_drkg_mm"
    return generate_drkg_mm(DRKGConfig().scaled(golden["dataset"]["config_scale"]))


def metrics_dict(m):
    return {"mr": m.mr, "mrr": m.mrr,
            "hits": {str(k): v for k, v in sorted(m.hits.items())},
            "num_queries": m.num_queries}


def state_digest(state):
    return {name: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
            for name, arr in sorted(state.items())}


def assert_trace_matches(report, expected):
    assert [repr(x) for x in report.epoch_losses] == expected["epoch_losses"]
    got_evals = [{"epoch": e, "metrics": metrics_dict(m)}
                 for e, _, m in report.eval_history]
    assert got_evals == expected["eval_history"]
    assert metrics_dict(report.best_metrics) == expected["best_metrics"]
    assert state_digest(report.best_state) == expected["best_state_sha256"]


class TestOneToNParity:
    def test_engine_direct_bit_identical(self, mkg, golden):
        spec = golden["conve_1ton"]
        rng = np.random.default_rng(spec["seed"])
        model = ConvE(mkg.num_entities, mkg.num_relations, spec["dim"], rng=rng)
        engine = TrainingEngine(model, mkg.split, rng,
                                OneToNObjective(batch_size=spec["batch_size"]),
                                lr=spec["lr"])
        report = engine.fit(spec["epochs"], eval_every=spec["eval_every"],
                            eval_max_queries=spec["eval_max_queries"])
        assert_trace_matches(report, spec["trace"])


class TestNegativeSamplingParity:
    def test_engine_direct_bit_identical(self, mkg, golden):
        spec = golden["rotate_neg"]
        rng = np.random.default_rng(spec["seed"])
        model = RotatE(mkg.num_entities, mkg.num_relations, spec["dim_half"],
                       rng=rng)
        engine = TrainingEngine(
            model, mkg.split, rng,
            NegativeSamplingObjective(batch_size=spec["batch_size"],
                                      num_negatives=spec["num_negatives"]),
            lr=spec["lr"])
        report = engine.fit(spec["epochs"], eval_every=spec["eval_every"],
                            eval_max_queries=spec["eval_max_queries"])
        assert_trace_matches(report, spec["trace"])
