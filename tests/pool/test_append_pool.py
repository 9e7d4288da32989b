"""POST /append on the pool tier: parent apply + replica republish.

The pool's workers attach to a read-only shared segment whose shapes are
fixed at publish time, so an append cannot be patched in place — the
parent grows its model, publishes a fresh segment, and rolls every
worker onto it.  These tests build their own model/split (the shared
session fixtures must never be mutated).
"""

import numpy as np
import pytest

from repro.baselines import build_model
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.pool import PoolConfig, PoolServer
from repro.serve import PredictionEngine

from .conftest import http


@pytest.fixture()
def own_pool():
    """A PoolServer over a private world, safe to append into."""
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.12))
    feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6,
                           d_s=6, gin_epochs=1, compgcn_epochs=1)
    model, _ = build_model("TransE", mkg, feats, np.random.default_rng(1),
                           dim=16)
    engine = PredictionEngine(model, mkg.split, model_name="TransE")
    server = PoolServer(engine, PoolConfig(workers=2))
    server.start_background()
    yield server, mkg
    server.request_shutdown(drain=False)
    server.join(timeout=15)


def append_body(mkg, name="POOL::1"):
    tail = mkg.split.graph.entities.name(3)
    return {"entities": [{"name": name, "type": "Compound",
                          "description": "streamed into the pool"}],
            "triples": [[name, 0, tail]]}


class TestPoolAppend:
    def test_append_republishes_and_preserves_predictions(self, own_pool):
        server, mkg = own_pool
        old = server.engine.model.num_entities
        probe = {"head": mkg.split.graph.entities.name(3),
                 "relation": 0, "k": 5}
        status, before, _ = http(server, "POST", "/predict", probe)
        assert status == 200

        status, payload, _ = http(server, "POST", "/append",
                                  append_body(mkg), timeout=60)
        assert status == 200, payload
        assert payload["stream_generation"] == 1
        assert payload["num_entities"] == old + 1
        assert all(r["alive"] for r in payload["replicas"])

        # Replicas rolled onto the new segment: generations advanced and
        # the shared filter covers the appended triple.
        status, health, _ = http(server, "GET", "/healthz")
        assert health["stream"]["generation"] == 1
        assert health["num_entities"] == old + 1
        assert all(r["alive"] for r in health["replicas"])

        status, after, _ = http(server, "POST", "/predict", probe)
        assert status == 200
        assert after["results"] == before["results"]  # byte-identical

        status, ranked, _ = http(server, "POST", "/predict",
                                 {"head": "POOL::1", "relation": 0, "k": 5})
        assert status == 200 and len(ranked["results"]) == 5
        status, filtered, _ = http(
            server, "POST", "/predict",
            {"head": "POOL::1", "relation": 0, "k": old + 1,
             "filter_known": True})
        names = [r["entity"] for r in filtered["results"]]
        assert mkg.split.graph.entities.name(3) not in names

    def test_workers_adopt_the_parent_generation(self, own_pool):
        """After each append every worker's engine reports the stream
        generation and filter epoch of the parent engine, and the append
        counters are counted once, not once per replica."""
        server, mkg = own_pool
        for i in range(2):
            status, payload, _ = http(server, "POST", "/append",
                                      append_body(mkg, f"POOL::{i}"),
                                      timeout=60)
            assert status == 200, payload
        _, health, _ = http(server, "GET", "/healthz")
        assert health["stream"]["generation"] == 2
        _, stats, _ = http(server, "GET", "/stats")
        rows = [row["engine"] for row in stats["workers"]]
        assert len(rows) == 2
        for row in rows:
            assert row["stream_generation"] == 2
            assert row["filter_epoch"] == server.engine.filter_epoch == 2
        _, text, _ = http(server, "GET", "/metrics")
        assert "\nstream_appends_total 2\n" in text
        assert "\nstream_generation 2\n" in text

    def test_append_conflicts_and_bad_requests(self, own_pool):
        server, mkg = own_pool
        status, payload, _ = http(server, "POST", "/append", {})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        status, _, _ = http(server, "POST", "/append", append_body(mkg),
                            timeout=60)
        assert status == 200
        status, payload, _ = http(server, "POST", "/append",
                                  append_body(mkg), timeout=60)
        assert status == 409
        assert payload["error"]["code"] == "conflict"
        # A rejected append must not bump the generation.
        _, health, _ = http(server, "GET", "/healthz")
        assert health["stream"]["generation"] == 1
