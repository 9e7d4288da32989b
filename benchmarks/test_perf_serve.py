"""Serve-tier benchmark: closed-loop load against threaded vs pool modes.

Drives a fixed number of keep-alive HTTP clients (each issuing its next
request only after the previous response lands) against three server
configurations on the same model:

* the threaded stdlib server (``--pool 0`` — the baseline tier),
* the process pool at 1 and 4 workers (zero-copy replicas behind the
  asyncio front end),

recording queries/sec and admitted p50/p99 latency per configuration
into ``benchmarks/results/BENCH_serve.json``.  A final **past-saturation**
run (more offered load than a small queue can hold, with per-request
fault-injection delay so service time is deterministic) checks graceful
degradation: every response is either 200 or a 429 shed carrying
``Retry-After``, and the p99 of *admitted* requests stays bounded by the
queue depth times the service time instead of growing with offered load.

The ISSUE acceptance bar — >= 2.5x q/s over the threaded baseline at 4
workers — is asserted only on hosts with >= 4 usable cores; smaller CI
boxes still produce the JSON record.  Set ``BENCH_SERVE_QUICK=1`` for a
reduced request count.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import numpy as np

from repro.baselines import build_model
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.pool import PoolConfig, PoolServer
from repro.serve import MicroBatcher, PredictionEngine
from repro.serve.http import make_server

from conftest import RESULTS_DIR

QUICK = bool(os.environ.get("BENCH_SERVE_QUICK"))
CLIENTS = 8
REQUESTS_PER_CLIENT = 25 if QUICK else 120
DIM = 32
POOL_SIZES = (1, 4)
MIN_POOL_SPEEDUP = 2.5
#: Keep the engine LRU small so the load is scoring work, not dict hits.
CACHE_SIZE = 8

SATURATION_DELAY = 0.02      # injected per-request service time (seconds)
SATURATION_DEPTH = 4         # max queued per endpoint before shedding
SATURATION_REQUESTS = 15 if QUICK else 40


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def build_fixture():
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.3))
    feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6,
                           d_s=6, gin_epochs=1, compgcn_epochs=1)
    model, _ = build_model("TransE", mkg, feats, np.random.default_rng(1),
                           dim=DIM)
    return mkg, model


def run_load(port: int, *, clients: int, per_client: int, queries,
             deadline_ms: float | None = None) -> dict:
    """Closed loop: each client thread sends its next request only after
    the previous response; returns q/s plus latency/code breakdown."""
    latencies: list[float] = []
    codes: dict[int, int] = {}
    retry_after_ok = True
    lock = threading.Lock()
    start_gate = threading.Barrier(clients + 1)

    def client_main(idx: int) -> None:
        nonlocal retry_after_ok
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        local_lat, local_codes, local_retry = [], {}, True
        start_gate.wait()
        for i in range(per_client):
            head, rel = queries[(idx * per_client + i) % len(queries)]
            body = {"head": int(head), "relation": int(rel), "k": 10}
            if deadline_ms is not None:
                body["deadline_ms"] = deadline_ms
            payload = json.dumps(body)
            tick = time.perf_counter()
            conn.request("POST", "/predict", body=payload,
                         headers={"Content-Type": "application/json",
                                  "X-Client-Id": f"bench-{idx}"})
            response = conn.getresponse()
            response.read()
            elapsed = time.perf_counter() - tick
            local_codes[response.status] = local_codes.get(
                response.status, 0) + 1
            if response.status == 200:
                local_lat.append(elapsed)
            elif response.status == 429:
                if response.getheader("Retry-After") is None:
                    local_retry = False
        conn.close()
        with lock:
            latencies.extend(local_lat)
            for code, count in local_codes.items():
                codes[code] = codes.get(code, 0) + count
            retry_after_ok = retry_after_ok and local_retry

    threads = [threading.Thread(target=client_main, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    start_gate.wait()
    tick = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - tick

    admitted = np.sort(np.asarray(latencies)) if latencies else np.zeros(1)
    return {
        "clients": clients,
        "requests": clients * per_client,
        "wall_seconds": round(wall, 4),
        "qps": round(clients * per_client / wall, 2),
        "codes": {str(k): v for k, v in sorted(codes.items())},
        "admitted_p50_ms": round(1e3 * float(np.quantile(admitted, 0.5)), 3),
        "admitted_p99_ms": round(1e3 * float(np.quantile(admitted, 0.99)), 3),
        "retry_after_on_all_429s": retry_after_ok,
    }


def test_serve_throughput_and_shedding():
    mkg, model = build_fixture()
    queries = [(int(h), int(r)) for h, r in mkg.split.test[:256, :2]]
    cores = usable_cores()
    record = {"quick": QUICK, "dim": DIM, "cores": cores,
              "clients": CLIENTS, "modes": {}}

    # --- baseline: threaded server, batcher attached (production shape) ---
    engine = PredictionEngine(model, mkg.split, model_name="TransE",
                              cache_size=CACHE_SIZE)
    batcher = MicroBatcher(engine, max_batch=32, max_delay=0.002)
    server = make_server(engine, batcher)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        run_load(port, clients=CLIENTS, per_client=5, queries=queries)  # warm
        record["modes"]["threaded"] = run_load(
            port, clients=CLIENTS, per_client=REQUESTS_PER_CLIENT,
            queries=queries)
    finally:
        server.shutdown()
        server.server_close()
        batcher.close()
        thread.join(timeout=10)

    # --- pool at 1 and N workers, same model via zero-copy replicas ---
    for workers in POOL_SIZES:
        engine = PredictionEngine(model, mkg.split, model_name="TransE",
                                  cache_size=CACHE_SIZE)
        pool = PoolServer(engine, PoolConfig(workers=workers))
        port = pool.start_background()
        try:
            run_load(port, clients=CLIENTS, per_client=5, queries=queries)
            record["modes"][f"pool-{workers}"] = run_load(
                port, clients=CLIENTS, per_client=REQUESTS_PER_CLIENT,
                queries=queries)
        finally:
            pool.request_shutdown(drain=True)
            pool.join(timeout=20)

    top = f"pool-{POOL_SIZES[-1]}"
    record["pool_speedup"] = round(
        record["modes"][top]["qps"] / record["modes"]["threaded"]["qps"], 3)
    record["speedup_asserted"] = cores >= 4

    # --- past saturation: tiny queue, deterministic service time ---
    config = PoolConfig(workers=2, max_queue_depth=SATURATION_DEPTH,
                        request_delay=SATURATION_DELAY,
                        shed_retry_after=SATURATION_DELAY * SATURATION_DEPTH)
    pool = PoolServer(PredictionEngine(model, mkg.split, model_name="TransE"),
                      config)
    port = pool.start_background()
    try:
        saturation = run_load(port, clients=CLIENTS,
                              per_client=SATURATION_REQUESTS, queries=queries)
    finally:
        pool.request_shutdown(drain=True)
        pool.join(timeout=20)
    record["saturation"] = saturation
    record["saturation"]["service_time_ms"] = 1e3 * SATURATION_DELAY
    record["saturation"]["max_queue_depth"] = SATURATION_DEPTH

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_serve.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\n[serve] cores={cores} "
          f"threaded={record['modes']['threaded']['qps']} q/s "
          f"{top}={record['modes'][top]['qps']} q/s "
          f"speedup={record['pool_speedup']}x [written to {path}]")

    # Graceful-degradation shape holds on any host: only 200s and shed
    # 429s (every one carrying Retry-After), and admitted p99 bounded by
    # what the queue can hold — not by the offered load.
    assert set(saturation["codes"]) <= {"200", "429"}, saturation
    assert saturation["codes"].get("429", 0) > 0, saturation
    assert saturation["retry_after_on_all_429s"], saturation
    bound_ms = 1e3 * SATURATION_DELAY * (SATURATION_DEPTH + 2) + 500.0
    assert saturation["admitted_p99_ms"] < bound_ms, saturation

    if record["speedup_asserted"]:
        assert record["pool_speedup"] >= MIN_POOL_SPEEDUP, record
