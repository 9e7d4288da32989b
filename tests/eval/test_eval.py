"""Evaluation protocol: metrics math, filtering, tie handling."""

import numpy as np
import pytest

from repro.eval import (
    RankingEvaluator,
    RankingMetrics,
    build_csr_filter,
    evaluate_per_relation_family,
    family_of_triples,
)
from repro.kg import KGSplit, KnowledgeGraph, Vocabulary


class OracleScorer:
    """Scores every true tail highest for every known query.

    Under the filtered protocol all other true tails are removed from
    the candidate list, so this oracle must achieve rank 1 everywhere.
    """

    def __init__(self, split, num_entities):
        self.answers = build_csr_filter(split)
        self.num_entities = num_entities

    def predict_tails(self, heads, rels):
        scores = np.zeros((len(heads), self.num_entities))
        for i, (h, r) in enumerate(zip(heads, rels)):
            scores[i, self.answers.row(int(h), int(r))] = 10.0
        return scores


class ConstantScorer:
    def __init__(self, num_entities):
        self.num_entities = num_entities

    def predict_tails(self, heads, rels):
        return np.zeros((len(heads), self.num_entities))


def small_split():
    g = KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(10)]),
        relations=Vocabulary(["r0", "r1"]),
        triples=np.array([[0, 0, 1], [1, 0, 2], [2, 1, 3], [3, 0, 4],
                          [4, 1, 5], [5, 0, 6], [0, 0, 2]]),
        entity_types=["Compound"] * 5 + ["Gene"] * 5,
    )
    return KGSplit(graph=g, train=g.triples[:5], valid=g.triples[5:6],
                   test=g.triples[6:])


class TestRankingMetrics:
    def test_from_ranks_math(self):
        m = RankingMetrics.from_ranks(np.array([1, 2, 10]))
        assert m.mr == pytest.approx((1 + 2 + 10) / 3)
        assert m.mrr == pytest.approx((1 + 0.5 + 0.1) / 3 * 100)
        assert m.hits[1] == pytest.approx(100 / 3)
        assert m.hits[10] == pytest.approx(100.0)
        assert m.num_queries == 3

    def test_empty_ranks_nan(self):
        m = RankingMetrics.from_ranks(np.array([]))
        assert np.isnan(m.mrr) and m.num_queries == 0

    def test_as_row_rounding(self):
        row = RankingMetrics.from_ranks(np.array([3])).as_row()
        assert row["MRR"] == pytest.approx(33.3)
        assert set(row) == {"MRR", "MR", "Hits@1", "Hits@3", "Hits@10"}


class TestFilteredRanking:
    def test_oracle_gets_rank_one(self):
        split = small_split()
        oracle = OracleScorer(split, 10)
        metrics = RankingEvaluator(split).evaluate(oracle, part="test")
        assert metrics.mrr == pytest.approx(100.0)
        assert metrics.hits[1] == pytest.approx(100.0)

    def test_constant_scorer_gets_mid_rank(self):
        """Tie-breaking must give a constant model the expected mean rank."""
        split = small_split()
        scorer = ConstantScorer(10)
        ranks = RankingEvaluator(split).compute_ranks(scorer, split.test,
                                                      both_directions=False)
        # 10 entities, test query (0, r0, 2): 1 other true tail filtered
        # (train has (0,0,1)) -> 9 candidates all tied -> mean rank (1+9)/2.
        assert ranks[0] == pytest.approx(5.0)

    def test_filter_excludes_other_true_tails(self):
        split = small_split()
        filters = build_csr_filter(split)
        # (0, r0) has true tails {1, 2} across splits.
        assert set(filters.row(0, 0).tolist()) == {1, 2}

    def test_filter_has_inverse_queries(self):
        split = small_split()
        filters = build_csr_filter(split)
        # Inverse query for (0,0,1): (1, r0+2) -> head 0.
        assert 0 in filters.row(1, 0 + 2).tolist()

    def test_both_directions_doubles_queries(self):
        split = small_split()
        oracle = OracleScorer(split, 10)
        ev = RankingEvaluator(split)
        one = ev.compute_ranks(oracle, split.test, both_directions=False)
        two = ev.compute_ranks(oracle, split.test, both_directions=True)
        assert len(two) == 2 * len(one)

    def test_max_queries_subsamples(self):
        split = small_split()
        oracle = OracleScorer(split, 10)
        ranks = RankingEvaluator(split).compute_ranks(
            oracle, split.train, max_queries=2, rng=np.random.default_rng(0))
        assert len(ranks) == 4  # 2 queries x 2 directions

    def test_filtering_improves_rank(self):
        """A model that scores all true tails equally high must not be
        penalised for ranking other true tails above the target."""
        split = small_split()

        class TrueTailScorer:
            def predict_tails(self, heads, rels):
                scores = np.zeros((len(heads), 10))
                filters = build_csr_filter(split)
                for i, (h, r) in enumerate(zip(heads, rels)):
                    scores[i, filters.row(int(h), int(r))] = 5.0
                return scores

        ranks = RankingEvaluator(split).compute_ranks(
            TrueTailScorer(), split.test, both_directions=False)
        assert ranks[0] == pytest.approx(1.0)


class TestPerRelationFamily:
    def test_family_labels_canonical(self):
        split = small_split()
        labels = family_of_triples(split, split.test)
        assert labels[0] == "Compound-Compound"

    def test_per_family_evaluation(self):
        split = small_split()
        oracle = OracleScorer(split, 10)
        results = evaluate_per_relation_family(oracle, split)
        assert all(m.mrr == pytest.approx(100.0) for m in results.values())
        assert "Compound-Compound" in results


class TestMetricsAverage:
    def test_average_of_two(self):
        a = RankingMetrics(mr=10.0, mrr=40.0, hits={1: 20.0, 10: 60.0}, num_queries=100)
        b = RankingMetrics(mr=20.0, mrr=60.0, hits={1: 40.0, 10: 80.0}, num_queries=100)
        avg = RankingMetrics.average([a, b])
        assert avg.mr == pytest.approx(15.0)
        assert avg.mrr == pytest.approx(50.0)
        assert avg.hits[1] == pytest.approx(30.0)

    def test_average_empty_raises(self):
        with pytest.raises(ValueError):
            RankingMetrics.average([])

    def test_average_single_is_identity(self):
        a = RankingMetrics(mr=5.0, mrr=33.0, hits={1: 10.0}, num_queries=7)
        avg = RankingMetrics.average([a])
        assert avg.mrr == a.mrr and avg.num_queries == 7
