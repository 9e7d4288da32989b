"""Append-request parsing and the AppendDelta record."""

import json

import numpy as np
import pytest

from repro.stream import AppendDelta, StreamError, parse_append_request


class TestParse:
    def test_full_request(self):
        specs, triples = parse_append_request({
            "entities": [{"name": "X::1", "type": "Compound",
                          "description": "a probe", "molecule": [0.1, 0.2]}],
            "triples": [["X::1", 0, 3]],
        })
        assert specs[0].name == "X::1"
        assert specs[0].entity_type == "Compound"
        assert specs[0].text == "X::1. a probe"
        np.testing.assert_allclose(specs[0].molecule, [0.1, 0.2])
        assert triples == [["X::1", 0, 3]]

    def test_defaults(self):
        specs, _ = parse_append_request({"entities": [{"name": "X"}]})
        assert specs[0].entity_type == "Unknown"
        assert specs[0].molecule is None
        assert specs[0].text == "X"  # no trailing separator without a desc

    def test_triple_only_append(self):
        specs, triples = parse_append_request({"triples": [[0, 1, 2]]})
        assert specs == [] and len(triples) == 1

    @pytest.mark.parametrize("body", [
        None, [], "x",
        {},                                      # nothing to do
        {"entities": {}, "triples": []},         # wrong container
        {"entities": [["X"]]},                   # entity not an object
        {"entities": [{"name": ""}]},            # empty name
        {"entities": [{"name": 3}]},             # non-string name
        {"entities": [{"name": "X", "type": 1}]},
        {"entities": [{"name": "X", "description": 1}]},
        {"entities": [{"name": "X", "molecule": "CCO"}]},
        {"triples": [[0, 1]]},                   # malformed triple row
    ])
    def test_bad_requests_are_400(self, body):
        with pytest.raises(StreamError) as excinfo:
            parse_append_request(body)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_duplicate_names_within_request_are_409(self):
        with pytest.raises(StreamError) as excinfo:
            parse_append_request({"entities": [{"name": "X"}, {"name": "X"}]})
        assert excinfo.value.status == 409
        assert excinfo.value.code == "conflict"


class TestDelta:
    def delta(self):
        return AppendDelta(
            generation=2, entity_names=["X"], entity_ids=[46],
            triples=np.array([[46, 0, 3], [5, 1, 46], [46, 0, 3]]),
            old_num_entities=46, num_entities=47, source="api",
            entity_types=["Compound"])

    def test_log_entry_is_json_safe(self):
        entry = self.delta().log_entry()
        round_tripped = json.loads(json.dumps(entry))
        assert round_tripped["generation"] == 2
        assert round_tripped["entity_ids"] == [46]
        assert round_tripped["num_triples"] == 3
        assert round_tripped["num_entities"] == 47
