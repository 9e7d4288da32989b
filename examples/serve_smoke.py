#!/usr/bin/env python3
"""End-to-end serving smoke test: train, export, serve, query, verify.

Exercises the whole ``repro.serve`` stack in one process and asserts the
HTTP answers are bit-identical to calling the model directly::

    python examples/serve_smoke.py [--model M] [--epochs N]

Steps:

1. train a tiny model with the experiment runner and export a
   checkpoint bundle (``repro.serve.save_bundle`` via the runner hook);
2. reload the bundle, rebuild the model, and wrap it in a
   ``PredictionEngine`` + ``MicroBatcher`` + stdlib HTTP server;
3. hit ``/healthz``, ``/predict`` (filtered and unfiltered), ``/score``
   and ``/stats`` over real HTTP and compare every score against
   ``model.predict_tails`` on the directly-trained model;
4. shut everything down cleanly.

Exits non-zero on any mismatch, so CI can run it as a smoke gate.
"""

import argparse
import json
import sys
import tempfile
import threading
import urllib.request

import numpy as np

from repro.experiments import get_scale, train_model
from repro.serve import MicroBatcher, PredictionEngine, make_server, topk_indices


def _call(base: str, method: str, path: str, body: dict | None = None) -> dict:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="TransE")
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--k", type=int, default=5)
    args = parser.parse_args()

    # 1. Train + export through the runner hook.
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = f"{tmp}/{args.model}.bundle"
        result = train_model(args.model, "drkg-mm", get_scale(args.scale),
                             seed=0, epochs=args.epochs,
                             export_bundle=bundle_path)
        model = result.model
        print(f"trained : {args.model} ({args.epochs} epochs, "
              f"scale={args.scale})")

        # 2. Bundle -> engine -> batcher -> HTTP server.
        engine = PredictionEngine.from_bundle(bundle_path)
        batcher = MicroBatcher(engine, max_batch=16, max_delay=0.002)
        server = make_server(engine, batcher)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        base = f"http://{host}:{port}"
        print(f"serving : {base}")

        try:
            # 3a. Liveness.
            health = _call(base, "GET", "/healthz")
            assert health["status"] == "ok", health
            assert health["model"] == args.model, health

            # 3b. Unfiltered top-k must match direct predict_tails bit-for-bit.
            heads, rels = [0, 1, 2], [0, 1, 0]
            for h, r in zip(heads, rels):
                got = _call(base, "POST", "/predict",
                            {"head": h, "relation": r, "k": args.k})
                row = model.predict_tails(np.array([h]), np.array([r]))[0]
                want = topk_indices(row, args.k)
                assert [x["id"] for x in got["results"]] == want.tolist(), (h, r)
                assert [x["score"] for x in got["results"]] == \
                    [float(s) for s in row[want]], (h, r)
            print(f"predict : unfiltered top-{args.k} bit-identical "
                  f"for {len(heads)} queries")

            # 3c. Filtered prediction: known tails masked, rest identical.
            h, r = int(engine.split.test[0, 0]), int(engine.split.test[0, 1])
            got = _call(base, "POST", "/predict",
                        {"head": h, "relation": r, "k": args.k,
                         "filter_known": True})
            row = model.predict_tails(np.array([h]), np.array([r]))[0].copy()
            known = engine.filter.row(h, r)
            row[known] = -np.inf
            want = topk_indices(row, args.k)
            assert [x["id"] for x in got["results"]] == want.tolist()
            assert not set(x["id"] for x in got["results"]) & set(known.tolist())
            print(f"predict : filtered top-{args.k} bit-identical, "
                  f"{len(known)} known tails excluded")

            # 3d. Explicit triple scoring.
            triple = engine.split.test[0].tolist()
            got = _call(base, "POST", "/score", {"triples": [triple]})
            direct = model.predict_tails(np.array([triple[0]]),
                                         np.array([triple[1]]))[0, triple[2]]
            assert got["scores"][0] == float(direct)
            print(f"score   : test triple {triple} -> {got['scores'][0]:.4f}")

            # 3e. Stats from all three layers.
            stats = _call(base, "GET", "/stats")
            assert stats["server"]["requests"] >= 6
            # Four /predict rows were served; /score read the row 3c
            # cached, which is a fifth cache lookup.  Models with a direct
            # cell path (score_cells) do not count /score as a served row.
            served = 4 if hasattr(engine.model, "score_cells") else 5
            assert stats["engine"]["queries_served"] == served, stats["engine"]
            assert stats["engine"]["cache"]["lookups"] == 5, stats["engine"]
            assert stats["batcher"]["requests_processed"] >= 4
            print(f"stats   : {stats['server']['requests']} requests, "
                  f"cache hit rate {stats['engine']['cache']['hit_rate']}, "
                  f"mean batch {stats['batcher']['mean_batch_size']}")
        finally:
            # 4. Clean shutdown.
            server.shutdown()
            server.server_close()
            batcher.close()
            thread.join(timeout=10)
    print("serve smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
