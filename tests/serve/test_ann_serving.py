"""Approximate serving: exact-path identity, rerank parity, bundles, HTTP."""

import numpy as np
import pytest

from repro.baselines import TransE
from repro.kg import KGSplit, KnowledgeGraph, Vocabulary
from repro.serve import (
    AnnError,
    AnnServing,
    PredictionEngine,
    ServiceApp,
    load_bundle,
    save_bundle,
    supports_ann,
)


@pytest.fixture()
def ann(transe):
    return AnnServing.build(transe, seed=0)


@pytest.fixture()
def ann_engine(transe, prepared, ann):
    mkg, _ = prepared
    return PredictionEngine(transe, mkg.split, model_name="TransE",
                            cache_size=32, ann=ann)


def _clustered_split(num_entities=600, num_relations=4, num_clusters=24,
                     dim=16, seed=0):
    """A TransE whose entity table is a tight gaussian mixture (the
    distribution IVF is built for), plus a matching synthetic split."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_clusters, dim))
    table = centers[rng.integers(0, num_clusters, num_entities)]
    table += 0.05 * rng.normal(size=table.shape)
    triples = np.stack([rng.integers(0, num_entities, 300),
                        rng.integers(0, num_relations, 300),
                        rng.integers(0, num_entities, 300)], axis=1)
    graph = KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(num_entities)]),
        relations=Vocabulary([f"r{i}" for i in range(num_relations)]),
        triples=triples, name="synthetic")
    split = KGSplit(graph=graph, train=triples[:200], valid=triples[200:250],
                    test=triples[250:])
    model = TransE(num_entities, num_relations, dim=dim,
                   rng=np.random.default_rng(seed))
    model.entity_embedding.weight.data[:] = table
    # Small translations keep queries inside the clustered point cloud.
    model.relation_embedding.weight.data[:] *= 0.02
    return model, split


class TestExactness:
    def test_approx_false_is_bit_identical(self, ann_engine, transe, prepared):
        """Attaching an index must not perturb the exact path at all."""
        mkg, _ = prepared
        plain = PredictionEngine(transe, mkg.split, model_name="TransE")
        for head, rel in ((0, 0), (3, 1), (5, 2)):
            ids_a, sc_a = ann_engine.top_k_tails(head, rel, 7, approx=False)
            ids_b, sc_b = plain.top_k_tails(head, rel, 7)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(sc_a, sc_b)

    def test_full_probe_matches_exact_path(self, ann_engine):
        """nprobe == nlist probes every list; the exact rerank then makes
        the approximate result identical to the exact one."""
        nlist = ann_engine.ann.index.nlist
        for head, rel in ((1, 0), (4, 2)):
            ids_e, sc_e = ann_engine.top_k_tails(head, rel, 5, approx=False)
            ids_a, sc_a = ann_engine.top_k_tails(head, rel, 5, approx=True,
                                                 nprobe=nlist)
            np.testing.assert_array_equal(ids_a, ids_e)
            np.testing.assert_allclose(sc_a, sc_e, rtol=1e-12)

    def test_full_probe_tie_at_cut_keeps_lower_id(self):
        """Two entities tied for 10th place: the approximate top-10 keeps
        the lower id, exactly like the exact path."""
        for seed in range(5):
            model, split = _clustered_split(seed=seed)
            ann = AnnServing.build(model, seed=0)
            engine = PredictionEngine(model, split, cache_size=0, ann=ann)
            row = model.predict_tails(np.array([0]), np.array([0]))[0]
            order = np.argsort(-row, kind="stable")
            table = model.entity_embedding.weight.data
            table[order[10]] = table[order[9]]
            ids_e, _ = engine.top_k_tails(0, 0, 10, approx=False)
            ids_a, _ = engine.top_k_tails(0, 0, 10, approx=True,
                                          nprobe=ann.index.nlist)
            np.testing.assert_array_equal(ids_a, ids_e, err_msg=f"seed {seed}")

    def test_reranked_scores_are_true_model_scores(self, ann_engine, transe):
        ids, scores = ann_engine.top_k_tails(2, 0, 5, approx=True)
        expect = transe.score_cells(np.full(len(ids), 2),
                                    np.zeros(len(ids), np.int64), ids)
        np.testing.assert_allclose(scores, expect, rtol=1e-12)

    def test_filter_known_excludes_known_tails(self, ann_engine, prepared):
        mkg, _ = prepared
        h, r, _t = (int(v) for v in mkg.split.train[0])
        known = set(ann_engine.filter.row(h, r).tolist())
        assert known
        ids, _ = ann_engine.top_k_tails(
            h, r, ann_engine.num_entities, filter_known=True, approx=True,
            nprobe=ann_engine.ann.index.nlist)
        assert not (known & set(ids.tolist()))


class TestRecall:
    def test_recall_at_default_nprobe_on_clustered_table(self):
        model, split = _clustered_split()
        engine = PredictionEngine(model, split, model_name="TransE",
                                  ann=AnnServing.build(model, seed=0))
        recall = engine.ann_self_check(num_queries=64, k=10, seed=1)
        assert recall >= 0.95, recall
        assert engine.stats()["ann"]["recall_check"] >= 0.95

    def test_self_check_requires_index(self, engine):
        with pytest.raises(AnnError, match="no ANN index"):
            engine.ann_self_check()


class TestFallback:
    def test_approx_without_index_falls_back_exactly(self, engine):
        ids_a, sc_a = engine.top_k_tails(1, 0, 5, approx=True)
        ids_e, sc_e = engine.top_k_tails(1, 0, 5, approx=False)
        np.testing.assert_array_equal(ids_a, ids_e)
        np.testing.assert_array_equal(sc_a, sc_e)
        assert engine.metrics.counter(
            "serve_ann_fallbacks_total", "").value == 1

    def test_supports_ann_gate(self, transe):
        assert supports_ann(transe)
        assert not supports_ann(object())

    def test_validate_rejects_index_larger_than_model(self, prepared, ann):
        mkg, _ = prepared
        shrunk = TransE(mkg.num_entities - 1, mkg.num_relations, dim=16,
                        rng=np.random.default_rng(9))
        with pytest.raises(AnnError, match="entities"):
            ann.validate_for(shrunk, mkg.num_entities - 1)

    def test_validate_accepts_stale_prefix(self, prepared, ann):
        """Fewer indexed rows than entities = streamed appends, legal."""
        mkg, _ = prepared
        grown = TransE(mkg.num_entities + 2, mkg.num_relations, dim=16,
                       rng=np.random.default_rng(9))
        ann.validate_for(grown, mkg.num_entities + 2)  # must not raise
        assert ann.stale_rows(mkg.num_entities + 2) == 2
        assert ann.stale_rows(mkg.num_entities) == 0

    def test_attach_ann_validates_then_enables(self, engine, ann):
        engine.attach_ann(ann, approx_default=True)
        assert engine.approx_default
        ids, _ = engine.top_k_tails(0, 0, 3)  # follows approx_default
        assert engine.stats()["ann"]["queries"] == 1
        assert len(ids) <= 3


class TestBundleArtifact:
    def test_round_trip_through_bundle(self, prepared, transe, ann, tmp_path):
        mkg, feats = prepared
        for path in (str(tmp_path / "dir_bundle"), str(tmp_path / "one.npz")):
            save_bundle(path, transe, "TransE", mkg.split, feats, dim=16,
                        ann=ann)
            engine = PredictionEngine.from_bundle(path, ann="require")
            assert engine.ann is not None
            assert engine.ann.source == "bundle"
            nlist = engine.ann.index.nlist
            ids_e, sc_e = engine.top_k_tails(1, 0, 5, approx=False)
            ids_a, sc_a = engine.top_k_tails(1, 0, 5, approx=True,
                                             nprobe=nlist)
            np.testing.assert_array_equal(ids_a, ids_e)
            np.testing.assert_allclose(sc_a, sc_e, rtol=1e-12)

    def test_require_raises_without_artifact(self, transe_bundle):
        with pytest.raises(AnnError, match="no ANN artifact"):
            PredictionEngine.from_bundle(transe_bundle, ann="require")

    def test_auto_and_off_modes(self, prepared, transe, ann, tmp_path):
        mkg, feats = prepared
        path = str(tmp_path / "bundle.npz")
        save_bundle(path, transe, "TransE", mkg.split, feats, dim=16, ann=ann)
        assert PredictionEngine.from_bundle(path).ann is not None   # auto
        assert PredictionEngine.from_bundle(path, ann="off").ann is None

    def test_build_mode_trains_at_load(self, transe_bundle):
        engine = PredictionEngine.from_bundle(transe_bundle, ann="build")
        assert engine.ann is not None
        assert engine.ann.source == "built"

    def test_newer_artifact_version_rejected(self, ann):
        meta, arrays = ann.to_payload()
        meta["format_version"] = 99
        with pytest.raises(AnnError, match="format_version"):
            AnnServing.from_payload(meta, arrays)

    def test_loaded_manifest_records_ann(self, prepared, transe, ann, tmp_path):
        mkg, feats = prepared
        path = str(tmp_path / "bundle")
        save_bundle(path, transe, "TransE", mkg.split, feats, dim=16, ann=ann)
        bundle = load_bundle(path)
        assert bundle.manifest["ann"]["nlist"] == ann.index.nlist
        assert bundle.ann_payload() is not None


class TestHTTP:
    def test_predict_accepts_approx_fields(self, ann_engine):
        app = ServiceApp(ann_engine)
        nlist = ann_engine.ann.index.nlist
        status, payload = app.handle("POST", "/predict", {
            "head": 1, "relation": 0, "k": 5, "approx": True,
            "nprobe": nlist})
        assert status == 200
        assert payload["query"]["approx"] is True
        exact = app.handle("POST", "/predict",
                           {"head": 1, "relation": 0, "k": 5})[1]
        assert payload["results"] == exact["results"]

    def test_predict_rejects_bad_nprobe(self, ann_engine):
        app = ServiceApp(ann_engine)
        status, payload = app.handle("POST", "/predict", {
            "head": 1, "relation": 0, "approx": True, "nprobe": 0})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_approx_without_index_is_a_client_error(self, engine):
        app = ServiceApp(engine)
        status, payload = app.handle("POST", "/predict", {
            "head": 1, "relation": 0, "approx": True})
        assert status == 400
        assert payload["error"]["code"] == "ann_unavailable"

    def test_stats_exposes_ann_section(self, ann_engine):
        app = ServiceApp(ann_engine)
        ann_engine.top_k_tails(0, 0, 3, approx=True)
        stats = app.handle("GET", "/stats", None)[1]
        assert stats["engine"]["ann"]["queries"] == 1
        assert stats["engine"]["ann"]["store"] == "int8"
