"""IVF index: layout invariants, exactness at full probe, recall, payload."""

import numpy as np
import pytest

from repro.ann import IVFIndex, METRICS, default_nlist, default_nprobe
from repro.serve import topk_indices


def _brute_force(metric, query, vectors, k):
    if metric == "ip":
        scores = vectors @ query
    elif metric == "l2":
        scores = -((vectors - query) ** 2).sum(axis=1)
    else:
        scores = -np.abs(vectors - query).sum(axis=1)
    return topk_indices(scores, k), scores


class TestLayout:
    def test_ids_are_a_permutation(self, clustered):
        index = IVFIndex.build(clustered, metric="l2")
        np.testing.assert_array_equal(np.sort(index.ids),
                                      np.arange(len(clustered)))

    def test_offsets_partition_the_table(self, clustered):
        index = IVFIndex.build(clustered, metric="l2")
        assert index.offsets[0] == 0
        assert index.offsets[-1] == len(clustered)
        assert np.all(np.diff(index.offsets) > 0)  # no empty lists
        assert len(index.offsets) == index.nlist + 1

    def test_defaults(self, clustered):
        index = IVFIndex.build(clustered, metric="ip")
        assert index.nlist == default_nlist(len(clustered))
        assert index.default_nprobe == default_nprobe(index.nlist)

    def test_full_probe_covers_everything(self, clustered):
        index = IVFIndex.build(clustered, metric="l1")
        cands = index.probe(clustered[:3], nprobe=index.nlist)
        for cand in cands:
            np.testing.assert_array_equal(np.sort(cand),
                                          np.arange(len(clustered)))

    def test_rejects_bad_config(self, clustered):
        with pytest.raises(ValueError, match="metric"):
            IVFIndex.build(clustered, metric="cosine")
        with pytest.raises(ValueError, match="store"):
            IVFIndex.build(clustered, metric="l2", store="int4")
        with pytest.raises(ValueError, match="non-empty"):
            IVFIndex.build(np.empty((0, 4)), metric="l2")


class TestSearch:
    @pytest.mark.parametrize("metric", METRICS)
    def test_full_probe_float64_matches_brute_force(self, clustered, metric):
        index = IVFIndex.build(clustered, metric=metric, store="float64")
        queries = clustered[:5] + 0.01
        results = index.search(queries, k=10, nprobe=index.nlist)
        for query, (ids, scores) in zip(queries, results):
            ref_ids, ref_scores = _brute_force(metric, query, clustered, 10)
            np.testing.assert_array_equal(ids, ref_ids)
            np.testing.assert_allclose(scores, ref_scores[ids], rtol=1e-10)

    @pytest.mark.parametrize("metric", METRICS)
    def test_probe_recall_at_default_nprobe(self, clustered, metric):
        """>= 0.95 candidate recall@10 on clustered vectors at the
        default probe.

        This is the quantity serving depends on: ``probe`` only has to
        *contain* the true top-k (the exact rerank fixes the order), so
        recall here is membership of the brute-force top-10 in the
        probed candidate set.  Probing ranks float64 centroids, so the
        stored-table dtype does not affect it.
        """
        index = IVFIndex.build(clustered, metric=metric, seed=0)
        rng = np.random.default_rng(2)
        queries = clustered[rng.integers(0, len(clustered), 64)] + 0.02
        cands = index.probe(queries)
        recalls = []
        for query, cand in zip(queries, cands):
            ref_ids, _ = _brute_force(metric, query, clustered, 10)
            recalls.append(len(set(cand) & set(ref_ids)) / len(ref_ids))
        assert np.mean(recalls) >= 0.95, (metric, np.mean(recalls))

    def test_int8_ranking_recovers_with_nprobe(self, clustered):
        """Ranking on int8 *stored* vectors (``search``) loses a little
        recall to quantization noise; more probes buy it back.  Serving
        sidesteps this entirely by reranking exactly."""
        index = IVFIndex.build(clustered, metric="l2", store="int8")
        rng = np.random.default_rng(3)
        queries = clustered[rng.integers(0, len(clustered), 32)] + 0.02

        def search_recall(nprobe):
            recalls = []
            for query, (ids, _) in zip(queries,
                                       index.search(queries, 10, nprobe)):
                ref_ids, _ = _brute_force("l2", query, clustered, 10)
                recalls.append(len(set(ids) & set(ref_ids)) / len(ref_ids))
            return float(np.mean(recalls))

        assert search_recall(index.nlist) >= search_recall(index.default_nprobe) >= 0.85

    def test_nprobe_monotonically_improves_recall(self, clustered):
        index = IVFIndex.build(clustered, metric="l2", store="float64")
        query = clustered[7] + 0.05
        ref_ids, _ = _brute_force("l2", query, clustered, 10)
        recalls = []
        for nprobe in (1, index.default_nprobe, index.nlist):
            (ids, _), = index.search(query[None], k=10, nprobe=nprobe)
            recalls.append(len(set(ids) & set(ref_ids)) / 10)
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0

    def test_tie_break_ascending_id(self):
        # Four identical vectors: stored scores tie; ids must come back sorted.
        x = np.tile(np.array([[1.0, 2.0]]), (4, 1))
        index = IVFIndex.build(x, metric="ip", store="float64", nlist=1)
        (ids, _), = index.search(np.array([[1.0, 1.0]]), k=4, nprobe=1)
        np.testing.assert_array_equal(ids, [0, 1, 2, 3])
        # A tie straddling the cut: the 11th-best vector equals the 10th,
        # so the top-10 must keep the lower id of the two.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(400, 8))
            query = rng.normal(size=8)
            order = np.argsort(-(x @ query), kind="stable")
            x[order[10]] = x[order[9]]
            index = IVFIndex.build(x, metric="ip", store="float64")
            (ids, _), = index.search(query[None], k=10, nprobe=index.nlist)
            np.testing.assert_array_equal(ids, topk_indices(x @ query, 10),
                                          err_msg=f"seed {seed}")


class TestPayload:
    def test_round_trip_preserves_search(self, clustered):
        index = IVFIndex.build(clustered, metric="l1", seed=5)
        clone = IVFIndex.from_arrays(*index.to_arrays())
        queries = clustered[10:13]
        for (ids_a, sc_a), (ids_b, sc_b) in zip(index.search(queries, 8),
                                                clone.search(queries, 8)):
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(sc_a, sc_b)
        assert clone.default_nprobe == index.default_nprobe
        assert clone.store == index.store

    def test_missing_array_raises_keyerror(self, clustered):
        index = IVFIndex.build(clustered, metric="l2")
        meta, arrays = index.to_arrays()
        del arrays["offsets"]
        with pytest.raises(KeyError, match="offsets"):
            IVFIndex.from_arrays(meta, arrays)

    def test_int8_memory_budget(self, clustered):
        index = IVFIndex.build(clustered, metric="l2", store="int8")
        memory = index.memory()
        assert memory["table_ratio_vs_float64"] <= 0.30
        assert memory["table_bytes"] < memory["float64_table_bytes"]
