#!/usr/bin/env python3
"""Streaming smoke test: export, pool up, append an unseen compound, rank it.

Exercises the whole ``repro.stream`` stack end to end on a tiny DRKG-MM
split::

    python examples/stream_smoke.py [--workers N]

Steps:

1. build a TransE model plus an IVF ANN index, export a checkpoint
   bundle, and serve it with ``workers`` forked replica processes
   (``PoolServer`` over ``PredictionEngine.from_bundle``);
2. record baseline exact top-k predictions for a probe query on every
   replica;
3. ``POST /append`` one unseen compound (name + description + molecular
   feature row) with a known triple linking it to an existing entity —
   the parent grows its model inductively, publishes a fresh shared
   segment, and rolls all replicas onto it;
4. assert on **every** replica that (a) the pre-existing probe
   predictions are byte-identical to the baseline, (b) the new entity is
   rankable through the exact path AND the (stale-prefix) ANN path, and
   (c) ``filter_known`` excludes the appended triple;
5. re-export the grown bundle through the CLI append path and check the
   v3 manifest journals the delta;
6. drain and exit non-zero on any failure, so CI can run it as the
   streaming gate.
"""

import argparse
import json
import multiprocessing as mp
import os
import sys
import tempfile
import urllib.error
import urllib.request

import numpy as np

from repro.baselines import build_model
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.pool import PoolConfig, PoolServer
from repro.serve import PredictionEngine, load_bundle, save_bundle
from repro.serve.ann import AnnServing


def http(port, method, path, body=None, timeout=60.0):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    if "fork" not in mp.get_all_start_methods():
        print("fork start method unavailable; nothing to smoke-test")
        return 0

    print("building tiny DRKG-MM model + ANN index, exporting bundle ...")
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.12))
    feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6, d_s=6,
                           gin_epochs=1, compgcn_epochs=1)
    model, _ = build_model("TransE", mkg, feats, np.random.default_rng(1),
                           dim=16)
    ann = AnnServing.build(model)
    bundle_dir = os.path.join(tempfile.mkdtemp(prefix="repro-stream-smoke-"),
                              "bundle")
    save_bundle(bundle_dir, model, "TransE", mkg.split, feats, dim=16, ann=ann)

    config = PoolConfig(workers=args.workers, health_interval=0.1)
    server = PoolServer(PredictionEngine.from_bundle(bundle_dir), config)
    port = server.start_background()
    print(f"pool serving bundle on port {port} with {args.workers} workers")

    status, health = http(port, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok", health
    assert health["stream"]["generation"] == 0, health
    old_n = health["num_entities"]

    entities = mkg.split.graph.entities
    probe_head = entities.name(3)
    probe = {"head": probe_head, "relation": 0, "k": 5}
    # One baseline per replica slot (round-robin covers every worker).
    baselines = []
    for _ in range(args.workers * 2):
        status, payload = http(port, "POST", "/predict", probe)
        assert status == 200, payload
        baselines.append(payload["results"])
    assert all(b == baselines[0] for b in baselines), "replicas disagree"

    print("appending unseen compound STREAM::aspirin-like ...")
    new_name = "STREAM::aspirin-like"
    body = {
        "entities": [{
            "name": new_name, "type": "Compound",
            "description": "acetylated salicylate analogue, streamed in",
            "molecule": np.linspace(0.0, 1.0, feats.molecular.shape[1]).tolist(),
        }],
        "triples": [[new_name, 0, probe_head]],
    }
    status, applied = http(port, "POST", "/append", body)
    assert status == 200, applied
    assert applied["stream_generation"] == 1, applied
    assert applied["num_entities"] == old_n + 1, applied
    assert all(r["alive"] for r in applied["replicas"]), applied
    print(f"applied: {applied['applied']}")

    status, health = http(port, "GET", "/healthz")
    assert health["stream"]["generation"] == 1, health
    assert health["num_entities"] == old_n + 1, health

    # Hit every replica several times over: pre-existing predictions must
    # be byte-identical, the appended entity rankable both ways.
    for i in range(args.workers * 3):
        status, payload = http(port, "POST", "/predict", probe)
        assert status == 200, payload
        assert payload["results"] == baselines[0], (
            f"pre-existing predictions changed after append (round {i}): "
            f"{payload['results']} != {baselines[0]}")

        status, exact = http(port, "POST", "/predict",
                             {"head": new_name, "relation": 0, "k": 5})
        assert status == 200 and len(exact["results"]) == 5, exact

        status, approx = http(port, "POST", "/predict",
                              {"head": new_name, "relation": 0, "k": 5,
                               "approx": True})
        assert status == 200 and len(approx["results"]) >= 1, approx

        status, filtered = http(port, "POST", "/predict",
                                {"head": new_name, "relation": 0,
                                 "k": old_n + 1, "filter_known": True})
        assert status == 200, filtered
        names = [row["entity"] for row in filtered["results"]]
        assert probe_head not in names, (
            "appended known triple leaked through filter_known")
    print(f"all {args.workers} replicas: baseline byte-identical, "
          f"'{new_name}' rankable exact+ANN, appended triple filtered")

    print("draining ...")
    server.request_shutdown(drain=True)
    server.join(timeout=20)

    # Offline path: the CLI append journals the same delta into a v3
    # bundle (fresh copy of the original export).
    from repro.serve.cli import main as serve_cli

    request_path = bundle_dir + ".append.json"
    with open(request_path, "w", encoding="utf-8") as handle:
        json.dump(body, handle)
    assert serve_cli(["append", "--bundle", bundle_dir,
                      "--request", request_path]) == 0
    grown = load_bundle(bundle_dir)
    assert grown.stream_generation == 1, grown.manifest
    assert grown.stream_log[0]["entities"] == [new_name], grown.stream_log
    assert len(grown.appended) == 1, grown.appended
    clone = grown.build_model()
    assert clone.num_entities == old_n + 1
    assert grown.split.graph.entities.resolve(new_name) == old_n
    print("CLI re-export: bundle v3 with journaled delta reloads cleanly")

    print(f"OK: append -> republish -> rank on {args.workers} replicas "
          "+ offline CLI append round-trip")
    return 0


if __name__ == "__main__":
    sys.exit(main())
