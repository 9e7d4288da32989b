"""Vectorized evaluator: CSR filter correctness, rank parity, caching.

The parity class is the acceptance proof for the evaluator: the batched
CSR path must agree rank-for-rank (mean-rank tie convention included)
with the per-row oracle in ``tests/eval/oracle.py``, on randomized,
constant, and heavily-tied scorers.
"""

import numpy as np
import pytest

import repro.eval.evaluator as evaluator_module
from repro.baselines import ConvE, TransE
from repro.eval import (
    RankingEvaluator,
    build_csr_filter,
    evaluate_per_relation_family,
)
from repro.kg import KGSplit, KnowledgeGraph, Vocabulary
from repro.train import NegativeSamplingObjective, OneToNObjective, TrainingEngine

from .oracle import build_filter, compute_ranks_reference


def random_split(num_entities=40, num_relations=5, n_train=120, n_valid=25,
                 n_test=25, seed=0) -> KGSplit:
    rng = np.random.default_rng(seed)
    total = n_train + n_valid + n_test
    triples = np.stack([
        rng.integers(0, num_entities, total),
        rng.integers(0, num_relations, total),
        rng.integers(0, num_entities, total),
    ], axis=1)
    # Duplicate some triples across partitions to stress de-duplication.
    triples[n_train:n_train + 5] = triples[:5]
    g = KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(num_entities)]),
        relations=Vocabulary([f"r{i}" for i in range(num_relations)]),
        triples=triples,
        entity_types=["Compound"] * (num_entities // 2)
        + ["Gene"] * (num_entities - num_entities // 2),
    )
    return KGSplit(graph=g, train=triples[:n_train],
                   valid=triples[n_train:n_train + n_valid],
                   test=triples[n_train + n_valid:])


class RandomScorer:
    """Deterministic dense scores: per-head table + per-relation table."""

    def __init__(self, num_entities, num_relations, seed=0, quantize=None):
        rng = np.random.default_rng(seed)
        self.head_table = rng.normal(size=(num_entities, num_entities))
        self.rel_table = rng.normal(size=(2 * num_relations, num_entities))
        self.quantize = quantize

    def predict_tails(self, heads, rels):
        scores = self.head_table[heads] + self.rel_table[rels]
        if self.quantize is not None:
            # Few distinct levels -> heavy, adversarial tie structure.
            scores = np.round(scores * self.quantize) / self.quantize
        return scores


class ConstantScorer:
    def __init__(self, num_entities):
        self.num_entities = num_entities

    def predict_tails(self, heads, rels):
        return np.zeros((len(heads), self.num_entities))


class TestCSRFilter:
    def test_matches_dict_filter(self):
        split = random_split()
        csr = build_csr_filter(split)
        ref = build_filter(split)
        assert len(csr.keys) == len(ref)
        for (h, r), tails in ref.items():
            assert set(csr.row(h, r).tolist()) == set(tails.tolist()), (h, r)

    def test_rows_sorted_and_unique(self):
        split = random_split()
        csr = build_csr_filter(split)
        for i in range(len(csr.keys)):
            row = csr.indices[csr.indptr[i]:csr.indptr[i + 1]]
            assert (np.diff(row) > 0).all()

    def test_missing_query_is_empty(self):
        split = random_split()
        csr = build_csr_filter(split)
        assert len(csr.row(10 ** 6, 0)) == 0

    def test_gather_flattens_batch(self):
        split = random_split()
        csr = build_csr_filter(split)
        h, r = split.test[:8, 0], split.test[:8, 1]
        row_ids, entity_ids = csr.gather(h, r)
        assert len(row_ids) == len(entity_ids)
        for i in range(8):
            expected = csr.row(int(h[i]), int(r[i]))
            np.testing.assert_array_equal(np.sort(entity_ids[row_ids == i]),
                                          expected)

    def test_empty_split(self):
        split = random_split()
        empty = KGSplit(graph=split.graph,
                        train=np.empty((0, 3), dtype=np.int64),
                        valid=np.empty((0, 3), dtype=np.int64),
                        test=np.empty((0, 3), dtype=np.int64))
        csr = build_csr_filter(empty)
        assert csr.nnz == 0
        assert len(csr.row(0, 0)) == 0


class TestParity:
    """Vectorized ranks must match the per-row oracle exactly."""

    def assert_parity(self, scorer, split, **kwargs):
        ref = compute_ranks_reference(scorer, split, split.test,
                                      rng=np.random.default_rng(7), **kwargs)
        ev = RankingEvaluator(split)
        new = ev.compute_ranks(scorer, split.test,
                               rng=np.random.default_rng(7), **kwargs)
        assert ref.shape == new.shape
        np.testing.assert_array_equal(new, ref)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_scores(self, seed):
        split = random_split(seed=seed)
        scorer = RandomScorer(split.num_entities, split.num_relations, seed=seed)
        self.assert_parity(scorer, split)

    @pytest.mark.parametrize("quantize", [1, 2])
    def test_heavily_tied_scores(self, quantize):
        split = random_split(seed=3)
        scorer = RandomScorer(split.num_entities, split.num_relations,
                              seed=3, quantize=quantize)
        self.assert_parity(scorer, split)

    def test_constant_scores(self):
        split = random_split(seed=4)
        self.assert_parity(ConstantScorer(split.num_entities), split)

    def test_single_direction(self):
        split = random_split(seed=5)
        scorer = RandomScorer(split.num_entities, split.num_relations, seed=5)
        self.assert_parity(scorer, split, both_directions=False)

    def test_max_queries_subsample(self):
        split = random_split(seed=6)
        scorer = RandomScorer(split.num_entities, split.num_relations, seed=6)
        self.assert_parity(scorer, split, max_queries=10)

    def test_batch_size_invariance(self):
        split = random_split(seed=8)
        scorer = RandomScorer(split.num_entities, split.num_relations, seed=8)
        ev = RankingEvaluator(split)
        full = ev.compute_ranks(scorer, split.test, batch_size=128)
        for batch_size in (1, 7, 32):
            np.testing.assert_array_equal(
                ev.compute_ranks(scorer, split.test, batch_size=batch_size), full)


class _CountingBuilder:
    def __init__(self):
        self.calls = 0
        self._real = evaluator_module.build_csr_filter

    def __call__(self, split, parts=("train", "valid", "test")):
        self.calls += 1
        return self._real(split, parts)


class TestFilterBuiltOncePerFit:
    """The CSR filter must be constructed exactly once per ``fit()``."""

    def test_negative_sampling_trainer(self, monkeypatch):
        counter = _CountingBuilder()
        monkeypatch.setattr(evaluator_module, "build_csr_filter", counter)
        split = random_split(seed=11)
        rng = np.random.default_rng(0)
        model = TransE(split.num_entities, split.num_relations, dim=8, rng=rng)
        trainer = TrainingEngine(model, split, rng, NegativeSamplingObjective(),
                                 lr=0.01)
        trainer.fit(3, eval_every=1, eval_max_queries=10)
        assert counter.calls == 1

    def test_one_to_n_trainer(self, monkeypatch):
        counter = _CountingBuilder()
        monkeypatch.setattr(evaluator_module, "build_csr_filter", counter)
        split = random_split(seed=12)
        rng = np.random.default_rng(0)
        model = ConvE(split.num_entities, split.num_relations, dim=9,
                      conv_channels=4, rng=rng)
        trainer = TrainingEngine(model, split, rng, OneToNObjective(batch_size=32))
        trainer.fit(3, eval_every=1, eval_max_queries=10)
        assert counter.calls == 1

    def test_per_relation_family_builds_once(self, monkeypatch):
        counter = _CountingBuilder()
        monkeypatch.setattr(evaluator_module, "build_csr_filter", counter)
        split = random_split(seed=13)
        scorer = RandomScorer(split.num_entities, split.num_relations, seed=13)
        results = evaluate_per_relation_family(scorer, split)
        assert len(results) >= 2  # several families, one filter build
        assert counter.calls == 1


class TestEvalBatchSizeKnob:
    def test_fit_accepts_eval_batch_size(self):
        split = random_split(seed=14)
        rng = np.random.default_rng(0)
        model = TransE(split.num_entities, split.num_relations, dim=8, rng=rng)
        trainer = TrainingEngine(model, split, rng, NegativeSamplingObjective(),
                                 lr=0.01)
        report = trainer.fit(1, eval_every=1, eval_max_queries=10,
                             eval_batch_size=4)
        assert len(report.eval_history) == 1

    def test_evaluate_ranking_batch_size_invariant(self):
        split = random_split(seed=15)
        scorer = RandomScorer(split.num_entities, split.num_relations, seed=15)
        ev = RankingEvaluator(split)
        a = ev.evaluate(scorer, part="test", batch_size=3)
        b = ev.evaluate(scorer, part="test", batch_size=64)
        assert a.mrr == pytest.approx(b.mrr)
        assert a.mr == pytest.approx(b.mr)


class TestMaskKnown:
    def test_masks_every_known_cell(self):
        split = random_split(seed=21)
        filt = build_csr_filter(split)
        heads = split.test[:6, 0]
        rels = split.test[:6, 1]
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(6, split.num_entities))
        original = scores.copy()
        out = filt.mask_known(scores, heads, rels)
        assert out is scores  # in place
        for row in range(6):
            known = filt.row(int(heads[row]), int(rels[row]))
            assert np.all(scores[row, known] == -np.inf)
            untouched = np.setdiff1d(np.arange(split.num_entities), known)
            np.testing.assert_array_equal(scores[row, untouched],
                                          original[row, untouched])

    def test_keep_spares_one_target_per_row(self):
        split = random_split(seed=22)
        filt = build_csr_filter(split)
        h, r, t = (int(v) for v in split.train[0])
        assert t in filt.row(h, r).tolist()
        scores = np.zeros((1, split.num_entities))
        filt.mask_known(scores, np.array([h]), np.array([r]),
                        keep=np.array([t]))
        assert scores[0, t] == 0.0
        others = np.setdiff1d(filt.row(h, r), [t])
        assert np.all(scores[0, others] == -np.inf)
