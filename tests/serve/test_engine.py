"""Prediction engine: top-k parity, filtering, caching, score_triples."""

import threading

import numpy as np
import pytest

from repro.baselines import build_model
from repro.datasets import build_features, get_dataset
from repro.eval import build_csr_filter
from repro.nn import inference_mode
from repro.serve import PredictionEngine, topk_indices


class TestTopK:
    def test_topk_matches_direct_predict(self, engine, transe):
        ids, scores = engine.top_k_tails(2, 0, k=5)
        row = transe.predict_tails(np.array([2]), np.array([0]))[0]
        ref = np.argsort(-row, kind="stable")[:5]
        np.testing.assert_array_equal(ids, ref)
        np.testing.assert_array_equal(scores, row[ids])  # bit-identical

    def test_tie_break_is_ascending_id(self):
        row = np.array([1.0, 3.0, 3.0, 0.5, 3.0])
        np.testing.assert_array_equal(topk_indices(row, 3), [1, 2, 4])

    def test_filtered_topk_excludes_known(self, engine, prepared):
        mkg, _ = prepared
        h, r, _t = (int(v) for v in mkg.split.train[0])
        known = set(build_csr_filter(mkg.split).row(h, r).tolist())
        assert known
        ids, scores = engine.top_k_tails(h, r, k=engine.num_entities,
                                         filter_known=True)
        assert not (known & set(ids.tolist()))
        assert np.all(scores > -np.inf)

    def test_filtered_and_unfiltered_agree_on_unknowns(self, engine, prepared):
        mkg, _ = prepared
        h, r, _t = (int(v) for v in mkg.split.train[0])
        plain = dict(zip(*map(lambda a: a.tolist(),
                              engine.top_k_tails(h, r, k=engine.num_entities))))
        ids, scores = engine.top_k_tails(h, r, k=engine.num_entities,
                                         filter_known=True)
        for i, s in zip(ids.tolist(), scores.tolist()):
            assert plain[i] == s

    def test_topk_heads_uses_inverse_convention(self, engine, transe):
        ids, scores = engine.top_k_heads(3, 1, k=4)
        row = transe.predict_tails(np.array([3]),
                                   np.array([1 + engine.num_relations]))[0]
        np.testing.assert_array_equal(scores, row[ids])

    def test_topk_heads_rejects_inverse_ids(self, engine):
        with pytest.raises(ValueError, match="original relation id"):
            engine.top_k_heads(0, engine.num_relations, k=3)

    def test_topk_heads_filter_known_excludes_known_heads(self, engine, prepared):
        """Head-side filtering works through the inverse-relation row."""
        mkg, _ = prepared
        _h, r, t = (int(v) for v in mkg.split.train[0])
        inverse = r + engine.num_relations
        known = set(build_csr_filter(mkg.split).row(t, inverse).tolist())
        assert known
        ids, scores = engine.top_k_heads(t, r, k=engine.num_entities,
                                         filter_known=True)
        assert not (known & set(ids.tolist()))
        # Survivors keep the scores of the unfiltered inverse-relation query.
        plain_ids, plain_scores = engine.top_k_heads(t, r,
                                                     k=engine.num_entities)
        lookup = dict(zip(plain_ids.tolist(), plain_scores.tolist()))
        for i, s in zip(ids.tolist(), scores.tolist()):
            assert lookup[i] == s


class TestTopKIndices:
    def test_k_at_least_num_entities_returns_full_ranking(self):
        row = np.array([0.5, 2.0, -1.0])
        for k in (3, 4, 100):
            np.testing.assert_array_equal(topk_indices(row, k), [1, 0, 2])

    def test_all_tie_row_ranks_by_ascending_id(self):
        row = np.full(6, 1.25)
        np.testing.assert_array_equal(topk_indices(row, 4), [0, 1, 2, 3])
        np.testing.assert_array_equal(topk_indices(row, 10), np.arange(6))
        # Only the 10th and 11th best tie, straddling the cut; on this row
        # argpartition alone keeps the higher id of the pair.
        row = np.random.default_rng(2).permutation(416).astype(np.float64)
        order = np.argsort(-row)
        row[order[10]] = row[order[9]]
        expected = np.lexsort((np.arange(len(row)), -row))[:10]
        np.testing.assert_array_equal(topk_indices(row, 10), expected)

    def test_all_filtered_row_is_empty(self):
        row = np.full(5, -np.inf)
        assert topk_indices(row, 3).shape == (0,)
        assert topk_indices(row, 3).dtype == np.int64

    def test_nonpositive_k(self):
        assert topk_indices(np.array([1.0, 2.0]), 0).shape == (0,)


class TestScoreTriples:
    def test_parity_with_predict_tails(self, engine, transe, prepared):
        mkg, _ = prepared
        triples = mkg.split.test[:9]
        got = engine.score_triples(triples)
        rows = transe.predict_tails(triples[:, 0], triples[:, 1])
        np.testing.assert_array_equal(
            got, rows[np.arange(len(triples)), triples[:, 2]])

    def test_empty_input(self, engine):
        assert engine.score_triples(np.empty((0, 3))).shape == (0,)

    def test_cold_cache_uses_direct_cells_not_rows(self, engine, prepared):
        """A cache miss scores only the requested cells: no predict_tails
        call, no row-cache population."""
        mkg, _ = prepared
        triples = mkg.split.test[:6]
        engine.score_triples(triples)
        stats = engine.stats()
        assert stats["predict_calls"] == 0
        assert stats["cell_score_calls"] == 1
        assert stats["cells_scored"] == 6
        assert stats["cache"]["size"] == 0

    def test_cached_rows_serve_hits(self, engine, prepared):
        """Triples whose (h, r) row is resident read from the cache and
        only the misses go through the direct-cell path."""
        mkg, _ = prepared
        h, r, t = (int(v) for v in mkg.split.test[0])
        engine.top_k_tails(h, r, k=3)          # primes the (h, r) row
        before = engine.stats()["cells_scored"]
        other = mkg.split.test[1]
        got = engine.score_triples(np.array([[h, r, t], list(other)]))
        stats = engine.stats()
        assert stats["cells_scored"] == before + 1  # only the uncached triple
        assert stats["cache"]["hits"] == 1
        row = engine.scores([h], [r])[0]
        assert got[0] == row[t]

    def test_row_fallback_for_models_without_score_cells(self, transe, prepared):
        """Models lacking the direct path keep the original row-scoring
        behaviour (and populate the row cache)."""
        mkg, _ = prepared

        class RowOnly:
            predict_tails = staticmethod(transe.predict_tails)

        engine = PredictionEngine(RowOnly(), mkg.split, cache_size=8)
        triples = mkg.split.test[:4]
        got = engine.score_triples(triples)
        stats = engine.stats()
        assert stats["predict_calls"] == 1
        assert stats["cell_score_calls"] == 0
        assert stats["cache"]["size"] > 0
        rows = transe.predict_tails(triples[:, 0], triples[:, 1])
        np.testing.assert_array_equal(
            got, rows[np.arange(len(triples)), triples[:, 2]])


class TestCache:
    def test_hit_miss_counters(self, engine):
        engine.top_k_tails(4, 0, k=3)
        engine.top_k_tails(4, 0, k=5)
        stats = engine.stats()
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["hit_rate"] == 0.5
        assert stats["predict_calls"] == 1  # second query never hit the model

    def test_batch_dedupes_before_model_call(self, engine):
        heads = np.array([1, 1, 2, 2, 1])
        rels = np.array([0, 0, 0, 0, 0])
        engine.scores(heads, rels)
        assert engine.stats()["predict_calls"] == 1
        assert engine.stats()["cache"]["misses"] == 2  # (1,0) and (2,0)
        assert engine.stats()["cache"]["hits"] == 3

    def test_eviction_bounds_cache(self, transe, prepared):
        mkg, _ = prepared
        engine = PredictionEngine(transe, mkg.split, cache_size=4)
        for h in range(10):
            engine.top_k_tails(h, 0, k=1)
        stats = engine.stats()
        assert stats["cache"]["size"] == 4
        assert stats["cache"]["evictions"] == 6

    def test_entries_gauge_tracks_evictions(self, transe, prepared):
        """The serve_cache_entries gauge must stay truthful after the
        cache fills: evictions update it, not just inserts."""
        mkg, _ = prepared
        engine = PredictionEngine(transe, mkg.split, cache_size=3)
        gauge = engine.metrics.gauge("serve_cache_entries", "")
        for h in range(3):
            engine.top_k_tails(h, 0, k=1)
        assert gauge.value == 3
        for h in range(3, 9):
            engine.top_k_tails(h, 0, k=1)
        assert gauge.value == 3  # evictions kept it at capacity, not 9
        assert len(engine._cache) == 3

    def test_hit_rate_gauge_and_stats_agree(self, engine):
        gauge = engine.metrics.gauge("serve_cache_hit_rate", "")
        engine.top_k_tails(6, 0, k=2)
        assert gauge.value == 0.0
        engine.top_k_tails(6, 0, k=2)
        engine.top_k_tails(6, 0, k=2)
        stats = engine.stats()["cache"]
        assert stats["lookups"] == 3
        assert stats["hit_rate"] == pytest.approx(2 / 3, abs=1e-4)
        assert gauge.value == pytest.approx(stats["hit_rate"], abs=1e-4)

    def test_score_on_a_cached_key_is_a_lookup_not_a_served_query(
            self, engine, prepared):
        """``queries_served`` counts rows the ranking path served;
        ``/score`` on a cached key is one more cache lookup (a hit), and
        a ``/score`` miss is a scored cell."""
        mkg, _ = prepared
        h, r, t = (int(v) for v in mkg.split.test[0])
        engine.top_k_tails(h, r, k=3)
        engine.score_triples(np.array([[h, r, t]]))
        stats = engine.stats()
        assert stats["queries_served"] == 1
        assert stats["cache"]["lookups"] == 2
        assert stats["cache"]["hits"] == 1
        assert stats["cells_scored"] == 0
        other = next(row for row in mkg.split.test.tolist()
                     if (row[0], row[1]) != (h, r))
        engine.score_triples(np.array([other]))
        stats = engine.stats()
        assert stats["queries_served"] == 1
        assert stats["cells_scored"] == 1
        assert stats["cache"]["lookups"] == 3

    def test_cached_row_is_not_aliased(self, engine, transe):
        ids, scores = engine.top_k_tails(5, 0, k=3, filter_known=False)
        # Mutating a filtered copy must not corrupt later unfiltered reads.
        engine.top_k_tails(5, 0, k=3, filter_known=True)
        ids2, scores2 = engine.top_k_tails(5, 0, k=3)
        np.testing.assert_array_equal(ids, ids2)
        np.testing.assert_array_equal(scores, scores2)


class TestBundleConstruction:
    def test_from_bundle_parity(self, transe_bundle, transe):
        engine = PredictionEngine.from_bundle(transe_bundle)
        assert engine.model_name == "TransE"
        ids, scores = engine.top_k_tails(0, 0, k=4)
        row = transe.predict_tails(np.array([0]), np.array([0]))[0]
        np.testing.assert_array_equal(scores, row[ids])

    @pytest.mark.parametrize("source", ["bundle", "direct"])
    def test_model_stays_in_eval_mode_across_overlapping_inference(
            self, source, transe_bundle, prepared):
        """Thread A leaves its inference block while thread B is still
        inside its own: B must keep scoring in eval mode, whether the
        engine loaded the model from a bundle or was handed a model
        fresh from its builder (still in training mode)."""
        if source == "bundle":
            model = PredictionEngine.from_bundle(transe_bundle).model
        else:
            mkg, feats = prepared
            model, _ = build_model("TransE", mkg, feats,
                                   np.random.default_rng(1), dim=16)
            assert model.training is True
            PredictionEngine(model, mkg.split)
        a_inside, a_leave, b_inside, b_check = (threading.Event()
                                                for _ in range(4))
        seen = {}

        def first():
            with inference_mode(model):
                a_inside.set()
                a_leave.wait(10)

        def second():
            a_inside.wait(10)
            with inference_mode(model):
                b_inside.set()
                b_check.wait(10)
                seen["training"] = model.training

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        assert b_inside.wait(10)
        a_leave.set()
        threads[0].join(10)
        b_check.set()
        threads[1].join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"training": False}
        assert model.training is False


class TestBatchComposition:
    """A row's scores depend on its batch only within a stated bound.

    Batched matrix products may round differently for different batch
    heights, so the same ``(h, r)`` row scored alone and inside a
    64-key batch need not be bit-identical.  The row cache keeps
    whichever came first; DESIGN.md states the bound this pins.
    """

    @pytest.fixture(scope="class")
    def came(self):
        # The benchmark-sized CamE (perfbench/workloads.py constants).
        mkg = get_dataset("drkg-mm", scale=1.0, seed=0)
        feats = build_features(mkg, np.random.default_rng(1), d_m=24, d_t=24,
                               d_s=24, gin_epochs=2, compgcn_epochs=2)
        model, _ = build_model("CamE", mkg, feats, np.random.default_rng(2),
                               dim=48)
        return mkg, model

    def test_row_alone_matches_row_in_batch_within_bound(self, came):
        mkg, model = came
        rng = np.random.default_rng(3)
        heads = rng.integers(0, mkg.num_entities, 64)
        rels = rng.integers(0, 2 * mkg.num_relations, 64)
        engine = PredictionEngine(model, mkg.split, cache_size=0)
        batched = engine.scores(heads, rels)
        alone = np.concatenate([engine.scores(heads[i:i + 1], rels[i:i + 1])
                                for i in range(64)])
        np.testing.assert_allclose(alone, batched, rtol=0, atol=1e-12)
