"""Plan/commit semantics and the live-engine append path."""

import numpy as np
import pytest

from repro.serve import PredictionEngine
from repro.stream import (
    EntitySpec,
    StreamError,
    apply_append,
    apply_append_to_model,
    commit_append,
    default_encoder,
    grow_features,
    parse_append_request,
    plan_append,
)


def body_for(mkg, name="NEW::1", extra_triples=()):
    tail = mkg.split.graph.entities.name(3)
    return {"entities": [{"name": name, "type": "Compound",
                          "description": "streamed"}],
            "triples": [[name, 0, tail], *extra_triples]}


class TestPlan:
    def test_assigns_contiguous_ids_and_resolves_references(self, fresh):
        mkg, _, model = fresh
        old = model.num_entities
        specs = [EntitySpec(name="NEW::1"), EntitySpec(name="NEW::2")]
        rel_name = mkg.split.graph.relations.name(1)
        raw = [["NEW::1", 0, mkg.split.graph.entities.name(3)],
               [5, rel_name, "NEW::2"],
               ["NEW::1", 2, "NEW::2"]]
        plan = plan_append(model, mkg.split, specs, raw,
                           encoder=default_encoder(model, mkg.split))
        assert plan.new_ids == [old, old + 1]
        np.testing.assert_array_equal(
            plan.triples, [[old, 0, 3], [5, 1, old + 1], [old, 2, old + 1]])
        # Nothing mutated at plan time.
        assert model.num_entities == old
        assert len(mkg.split.graph.entities) == old

    def test_touched_keys_cover_both_directions_deduplicated(self, fresh):
        mkg, _, model = fresh
        old, num_relations = model.num_entities, mkg.split.num_relations
        raw = [["NEW::1", 0, 3], [5, 1, "NEW::1"], ["NEW::1", 0, 3]]
        plan = plan_append(model, mkg.split, [EntitySpec(name="NEW::1")], raw,
                           encoder=default_encoder(model, mkg.split))
        # (h, r) and (t, r + R) per triple, first-seen order, no repeats.
        assert plan.touched_keys() == [(old, 0), (3, num_relations), (5, 1),
                                       (old, 1 + num_relations)]

    def test_existing_name_conflicts(self, fresh):
        mkg, _, model = fresh
        taken = mkg.split.graph.entities.name(0)
        with pytest.raises(StreamError) as excinfo:
            plan_append(model, mkg.split, [EntitySpec(name=taken)], [],
                        encoder=default_encoder(model, mkg.split))
        assert excinfo.value.status == 409

    def test_unknown_entity_name_suggests_close_matches(self, fresh):
        mkg, _, model = fresh
        real = mkg.split.graph.entities.name(3)
        typo = real[:-1] + ("x" if real[-1] != "x" else "y")
        with pytest.raises(StreamError) as excinfo:
            plan_append(model, mkg.split, [EntitySpec(name="NEW::1")],
                        [["NEW::1", 0, typo]],
                        encoder=default_encoder(model, mkg.split))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unknown_entity"
        assert real in excinfo.value.message

    def test_out_of_range_id_and_unknown_relation(self, fresh):
        mkg, _, model = fresh
        enc = default_encoder(model, mkg.split)
        with pytest.raises(StreamError, match="out of range") as excinfo:
            plan_append(model, mkg.split, [EntitySpec(name="NEW::1")],
                        [[9999, 0, "NEW::1"]], encoder=enc)
        assert excinfo.value.code == "unknown_entity"
        with pytest.raises(StreamError) as excinfo:
            plan_append(model, mkg.split, [EntitySpec(name="NEW::1")],
                        [["NEW::1", "no-such-relation", 3]], encoder=enc)
        assert excinfo.value.code == "unknown_relation"


class TestCommit:
    def test_grows_model_and_vocab_with_identical_prefix(self, fresh):
        mkg, _, model = fresh
        old = model.num_entities
        before = model.entity_embedding.weight.data.copy()
        specs, raw = parse_append_request(body_for(mkg))
        plan = plan_append(model, mkg.split, specs, raw,
                           encoder=default_encoder(model, mkg.split))
        delta = commit_append(model, plan, generation=1)
        assert model.num_entities == old + 1
        assert model.entity_embedding.num_embeddings == old + 1
        assert len(mkg.split.graph.entities) == old + 1
        assert mkg.split.graph.entity_types[-1] == "Compound"
        np.testing.assert_array_equal(
            model.entity_embedding.weight.data[:old], before)
        assert delta.entity_ids == [old]
        # The grown row is scoreable through the normal inference path.
        scores = model.predict_tails(np.array([5]), np.array([0]))
        assert scores.shape == (1, old + 1)
        assert np.isfinite(scores[0, old])

    def test_came_append_grows_every_table(self, fresh_came):
        mkg, _, model = fresh_came
        old = model.num_entities
        prefix = model.predict_tails(np.array([0, 5]), np.array([0, 1]))
        apply_append_to_model(model, mkg.split, body_for(mkg))
        assert model.h_m_table.shape[0] == old + 1
        assert model.h_t_table.shape[0] == old + 1
        assert model.h_s_table.shape[0] == old + 1
        assert model.entity_bias.data.shape[0] == old + 1
        after = model.predict_tails(np.array([0, 5]), np.array([0, 1]))
        # Pre-existing prediction columns are bit-identical post-append.
        np.testing.assert_array_equal(after[:, :old], prefix)

    def test_grow_features_returns_new_matrices(self, fresh):
        mkg, feats, model = fresh
        old = len(feats.molecular)
        specs, raw = parse_append_request(body_for(mkg))
        plan = plan_append(model, mkg.split, specs, raw,
                           encoder=default_encoder(model, mkg.split,
                                                   features=feats))
        grown = grow_features(feats, plan)
        assert grown is not feats
        assert len(feats.molecular) == old  # original untouched
        assert grown.molecular.shape[0] == old + 1
        assert grown.has_molecule.shape[0] == old + 1

    def test_triple_only_append_leaves_tables_alone(self, fresh):
        mkg, _, model = fresh
        old = model.num_entities
        delta, _ = apply_append_to_model(model, mkg.split,
                                         {"triples": [[5, 0, 3]]})
        assert model.num_entities == old
        assert delta.num_new_entities == 0
        np.testing.assert_array_equal(delta.triples, [[5, 0, 3]])


class TestLiveEngine:
    def test_apply_append_end_to_end(self, fresh):
        mkg, _, model = fresh
        engine = PredictionEngine(model, mkg.split, model_name="TransE",
                                  cache_size=32)
        old = engine.num_entities
        baseline = engine.scores(np.array([5]), np.array([0])).copy()
        ids_before, scores_before = engine.top_k_tails(5, 0, k=5)

        delta = apply_append(engine, body_for(mkg))
        assert delta.generation == 1
        assert engine.stream_generation == 1
        assert engine.num_entities == old + 1 == model.num_entities

        after = engine.scores(np.array([5]), np.array([0]))
        np.testing.assert_array_equal(after[:, :old], baseline)
        ids_after, scores_after = engine.top_k_tails(5, 0, k=5)
        np.testing.assert_array_equal(ids_after, ids_before)
        np.testing.assert_array_equal(scores_after, scores_before)
        # The appended triple is a known triple now: filtered out.
        ids, _ = engine.top_k_tails(old, 0, k=old + 1, filter_known=True)
        assert 3 not in ids
        # Without filtering the new entity ranks normally from both ends.
        head_ids, _ = engine.top_k_heads(3, 0, k=old + 1, filter_known=False)
        assert old in head_ids

    def test_conflict_and_failed_plan_leave_engine_untouched(self, fresh):
        mkg, _, model = fresh
        engine = PredictionEngine(model, mkg.split, model_name="TransE")
        apply_append(engine, body_for(mkg))
        state = model.entity_embedding.weight.data.copy()
        with pytest.raises(StreamError) as excinfo:
            apply_append(engine, body_for(mkg))  # same name again
        assert excinfo.value.status == 409
        assert engine.stream_generation == 1  # not bumped
        np.testing.assert_array_equal(model.entity_embedding.weight.data, state)
        with pytest.raises(StreamError):
            apply_append(engine, {"entities": [{"name": "OK::1"}],
                                  "triples": [["OK::1", "bogus-rel", 3]]})
        assert len(mkg.split.graph.entities) == model.num_entities

    def test_generations_are_monotonic(self, fresh):
        mkg, _, model = fresh
        engine = PredictionEngine(model, mkg.split, model_name="TransE")
        for i in range(3):
            delta = apply_append(engine, body_for(mkg, name=f"GEN::{i}"))
            assert delta.generation == i + 1
        assert engine.stream_generation == 3
