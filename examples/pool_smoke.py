#!/usr/bin/env python3
"""Serve-tier smoke test: pool up, traced request, mixed load, kill, drain.

Exercises the whole ``repro.pool`` stack end to end on a tiny DRKG-MM
split::

    python examples/pool_smoke.py [--workers N] [--requests N]

Steps:

1. build a TransE model plus an IVF ANN index and serve them with
   ``workers`` forked replica processes behind the asyncio front end
   (one shared ``FlatSpec`` segment, zero-copy replicas), with span
   export enabled (front-end JSONL + one ``.w<rank>`` file per worker);
2. send one ``/predict`` and remember its ``X-Trace-Id``;
3. drive a mix of exact and approximate ``/predict`` queries plus
   ``/score`` calls and check every response (envelope shape, scores
   identical to the in-process engine for the exact path);
4. SIGKILL one worker mid-run and assert the tier recovers: the health
   loop respawns a replacement, ``/healthz`` returns to full strength,
   and requests keep succeeding (worker-loss 503s are allowed only for
   requests the dead worker had already been handed twice);
5. drain gracefully and assert no ``repro-pool`` processes survive;
6. stitch the exported span files and assert the remembered request is
   **one** trace: the front-end's ``pool.request`` span parenting the
   worker's ``serve.request`` (different pids, correct parent ids) —
   then print its tree, exactly what ``python -m repro.obs report
   --trace <id>`` renders.

Exits non-zero on any failure, so CI can run it as the pool gate.
"""

import argparse
import glob
import json
import multiprocessing as mp
import os
import signal
import sys
import tempfile
import time
import urllib.error
import urllib.request

import numpy as np

from repro.baselines import build_model
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.obs import (
    build_trace_trees,
    disable_tracing,
    enable_tracing,
    load_events,
)
from repro.obs.report import render_trace_tree
from repro.pool import PoolConfig, PoolServer
from repro.serve import PredictionEngine
from repro.serve.ann import AnnServing


def http(port, method, path, body=None, timeout=30.0, want_headers=False):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            result = response.status, json.loads(response.read())
            headers = dict(response.headers)
    except urllib.error.HTTPError as error:
        result = error.code, json.loads(error.read())
        headers = dict(error.headers)
    return (*result, headers) if want_headers else result


def wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--requests", type=int, default=40)
    args = parser.parse_args()

    if "fork" not in mp.get_all_start_methods():
        print("fork start method unavailable; nothing to smoke-test")
        return 0

    print("building tiny DRKG-MM model + ANN index ...")
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.12))
    feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6, d_s=6,
                           gin_epochs=1, compgcn_epochs=1)
    model, _ = build_model("TransE", mkg, feats, np.random.default_rng(1),
                           dim=16)
    ann = AnnServing.build(model)
    reference = PredictionEngine(model, mkg.split, model_name="TransE")

    trace_path = os.path.join(tempfile.mkdtemp(prefix="repro-pool-smoke-"),
                              "trace.jsonl")
    enable_tracing(trace_path, flush_every=1)

    config = PoolConfig(workers=args.workers, health_interval=0.1)
    engine = PredictionEngine(model, mkg.split, model_name="TransE", ann=ann)
    server = PoolServer(engine, config)
    port = server.start_background()
    print(f"pool serving on port {port} with {args.workers} workers; "
          f"spans -> {trace_path}(.w*)")

    status, health = http(port, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok", health
    assert len(health["replicas"]) == args.workers, health
    assert health["ann"]["attached"] is True, health
    victim_pid = health["replicas"][0]["pid"]

    test = mkg.split.test
    codes = {}
    kill_at = args.requests // 3
    for i in range(args.requests):
        if i == kill_at:
            print(f"killing worker pid {victim_pid} mid-run ...")
            os.kill(victim_pid, signal.SIGKILL)
        h = int(test[i % len(test), 0])
        r = int(test[i % len(test), 1])
        body = {"head": h, "relation": r, "k": 5}
        if i % 3 == 1:
            body["approx"] = True
        status, payload = http(port, "POST", "/predict", body)
        codes[status] = codes.get(status, 0) + 1
        if status == 200:
            if body.get("approx"):
                # IVF recall: probed cells may hold fewer than k candidates.
                assert 1 <= len(payload["results"]) <= 5, payload
            else:
                assert len(payload["results"]) == 5, payload
                ids, scores = reference.top_k_tails(h, r, 5)
                got = [(item["id"], item["score"])
                       for item in payload["results"]]
                want = list(zip(ids.tolist(), scores.tolist()))
                assert got == want, (got, want)  # exact path: bit-identical
        else:
            assert status == 503, (status, payload)
            assert payload["error"]["code"] == "worker_lost", payload
        if i % 4 == 3:
            status, payload = http(port, "POST", "/score",
                                   {"triples": [[h, r, int(test[0, 2])]]})
            assert status == 200 and len(payload["scores"]) == 1, payload
    print(f"load done: status codes {codes}")
    assert codes.get(200, 0) >= args.requests * 0.8, codes

    def recovered():
        _, h = http(port, "GET", "/healthz")
        pids = {row["pid"] for row in h["replicas"]}
        return (h["status"] == "ok" and victim_pid not in pids
                and all(row["alive"] for row in h["replicas"]))

    assert wait_until(recovered), "pool did not respawn to full strength"
    status, stats = http(port, "GET", "/stats")
    assert stats["pool"]["respawns"] >= 1, stats["pool"]
    assert stats["server"]["workers_alive"] == args.workers, stats["server"]
    print(f"recovered: respawns={stats['pool']['respawns']}, "
          f"requeues={stats['pool']['requeues']}, "
          f"lost={stats['pool']['lost_requests']}")

    # Traced probe after recovery: every live worker survives to the
    # drain below, which is what flushes the per-rank span files.
    probe = {"head": int(test[0, 0]), "relation": int(test[0, 1]), "k": 5}
    status, _, headers = http(port, "POST", "/predict", probe,
                              want_headers=True)
    assert status == 200, status
    probe_trace_id = headers["X-Trace-Id"]
    assert len(probe_trace_id) == 32, headers
    print(f"traced probe request: X-Trace-Id={probe_trace_id}")

    print("draining ...")
    server.request_shutdown(drain=True)
    server.join(timeout=20)

    stragglers = [p.name for p in mp.active_children()
                  if p.name.startswith("repro-pool")]
    assert not stragglers, f"worker processes survived drain: {stragglers}"

    # -- cross-process trace reconstruction ----------------------------
    disable_tracing()  # flush the front-end's buffered spans
    span_files = [trace_path] + sorted(glob.glob(trace_path + ".w*"))
    assert len(span_files) >= 2, f"no worker span files next to {trace_path}"
    trees = build_trace_trees(load_events(span_files))
    probes = [t for t in trees if t["trace_id"] == probe_trace_id]
    assert len(probes) == 1, f"probe trace not stitched: {probe_trace_id}"
    tree = probes[0]
    assert len(tree["pids"]) == 2, tree["pids"]  # front-end + one worker
    assert len(tree["roots"]) == 1, [r["record"]["name"]
                                     for r in tree["roots"]]
    root = tree["roots"][0]
    assert root["record"]["name"] == "pool.request", root["record"]
    serve_spans = [c for c in root["children"]
                   if c["record"]["name"] == "serve.request"]
    assert serve_spans, [c["record"]["name"] for c in root["children"]]
    assert serve_spans[0]["record"]["pid"] != root["record"]["pid"]
    assert serve_spans[0]["record"]["parent_id"] == root["record"]["span_id"]
    print(f"stitched probe trace across pids {tree['pids']}:")
    print(render_trace_tree(tree))

    print(f"OK: {args.workers}-worker pool + traced probe + mixed "
          "exact/approx load + mid-run worker kill + clean drain + "
          "cross-process trace reconstruction")
    return 0


if __name__ == "__main__":
    sys.exit(main())
