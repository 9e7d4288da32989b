"""Pool serve tier end-to-end: parity, shedding, deadlines, worker loss."""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.pool import PoolConfig
from repro.serve import PredictionEngine
from repro.serve.http import ServiceApp

from .conftest import http


def _wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestParity:
    """--pool N must answer exactly what the threaded ServiceApp answers."""

    def test_predict_and_score_byte_identical(self, pool_factory, transe,
                                              prepared):
        mkg, _ = prepared
        server = pool_factory(workers=2)
        reference = ServiceApp(PredictionEngine(transe, mkg.split,
                                                model_name="TransE"))
        h, r = int(mkg.split.test[0, 0]), int(mkg.split.test[0, 1])
        bodies = [
            {"head": h, "relation": r, "k": 5},
            {"head": h, "relation": r, "k": 8, "filter_known": True},
            {"tail": int(mkg.split.test[1, 2]), "relation": r, "k": 3},
        ]
        for body in bodies:
            status, payload, _ = http(server, "POST", "/predict", body)
            ref_status, ref_payload = reference.handle("POST", "/predict", body)
            assert status == ref_status == 200
            assert json.dumps(payload, sort_keys=True) == \
                json.dumps(ref_payload, sort_keys=True)
        triples = [[int(a), int(b), int(c)] for a, b, c in mkg.split.test[:4]]
        status, payload, _ = http(server, "POST", "/score",
                                  {"triples": triples})
        ref_status, ref_payload = reference.handle("POST", "/score",
                                                   {"triples": triples})
        assert status == ref_status == 200
        assert payload == ref_payload

    def test_error_envelopes_match_threaded(self, pool_factory, transe,
                                            prepared):
        mkg, _ = prepared
        server = pool_factory(workers=1)
        reference = ServiceApp(PredictionEngine(transe, mkg.split,
                                                model_name="TransE"))
        cases = [
            {"head": 0},                                  # missing relation
            {"head": 0, "tail": 1, "relation": 0},        # both anchors
            {"head": "no-such-entity", "relation": 0},    # unknown entity
            {"head": 0, "relation": 0, "k": 0},           # bad k
            {"head": 0, "relation": 0, "k": 100_000},     # oversized k
            {"head": 0, "relation": 0, "deadline_ms": -1},  # bad deadline
        ]
        for body in cases:
            status, payload, _ = http(server, "POST", "/predict", body)
            ref_status, ref_payload = reference.handle("POST", "/predict", body)
            assert (status, payload) == (ref_status, ref_payload), body
            assert status == 400
            assert set(payload["error"]) == {"code", "message"}


class TestHealthAndStats:
    def test_healthz_reports_replicas(self, pool_factory):
        server = pool_factory(workers=2)
        status, payload, _ = http(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["ann"] == {"supports_ann": True, "attached": False}
        assert payload["bundle"] == {"version": None}
        replicas = payload["replicas"]
        assert [r["rank"] for r in replicas] == [0, 1]
        assert all(r["alive"] and r["mode"] == "process" for r in replicas)
        assert len({r["pid"] for r in replicas}) == 2

    def test_stats_and_metrics_merge_worker_counters(self, pool_factory,
                                                     prepared):
        mkg, _ = prepared
        server = pool_factory(workers=2)
        for i in range(6):
            status, _, _ = http(server, "POST", "/predict", {
                "head": int(mkg.split.test[i, 0]),
                "relation": int(mkg.split.test[i, 1]), "k": 3})
            assert status == 200
        status, stats, _ = http(server, "GET", "/stats")
        assert status == 200
        assert stats["server"]["mode"] == "pool"
        assert stats["server"]["workers_alive"] == 2
        assert stats["server"]["requests"] >= 7
        worker_requests = sum(row.get("requests", 0)
                              for row in stats["workers"])
        assert worker_requests >= 6
        assert any("engine" in row for row in stats["workers"])
        status, text, headers = http(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        # Worker-side engine counters are merged into one exposition.
        assert "serve_queries_total" in text
        assert "pool_workers_alive 2" in text
        assert 'pool_requests_total{route="/predict",code="200"} 6' in text

    def test_unknown_route_404(self, pool_factory):
        server = pool_factory(workers=1)
        status, payload, _ = http(server, "GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_bad_json_400(self, pool_factory):
        server = pool_factory(workers=1)
        status, payload, _ = http(server, "POST", "/predict",
                                  raw=b"{not json")
        assert status == 400
        assert payload["error"]["code"] == "bad_json"


class TestAdmission:
    def test_queue_watermark_sheds_with_retry_after(self, pool_factory,
                                                    prepared):
        mkg, _ = prepared
        server = pool_factory(workers=1, max_queue_depth=2,
                              request_delay=0.25, shed_retry_after=2.0)
        body = {"head": int(mkg.split.test[0, 0]),
                "relation": int(mkg.split.test[0, 1]), "k": 3}
        results = []

        def fire():
            results.append(http(server, "POST", "/predict", body))

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        codes = sorted(status for status, _, _ in results)
        assert codes.count(200) >= 1
        assert codes.count(429) >= 1
        assert set(codes) <= {200, 429}
        for status, payload, headers in results:
            if status == 429:
                assert payload["error"]["code"] == "overloaded"
                assert headers["Retry-After"] == "2"
        status, stats, _ = http(server, "GET", "/stats")
        assert stats["pool"]["shed"]["queue_full"] >= 1

    def test_rate_limit_sheds_per_client(self, pool_factory, prepared):
        mkg, _ = prepared
        server = pool_factory(workers=1, rate_limit=0.001, rate_burst=1)
        body = {"head": int(mkg.split.test[0, 0]),
                "relation": int(mkg.split.test[0, 1]), "k": 3}
        first = http(server, "POST", "/predict", body,
                     headers={"X-Client-Id": "alice"})
        second = http(server, "POST", "/predict", body,
                      headers={"X-Client-Id": "alice"})
        other = http(server, "POST", "/predict", body,
                     headers={"X-Client-Id": "bob"})
        assert first[0] == 200
        assert second[0] == 429
        assert second[1]["error"]["code"] == "rate_limited"
        assert int(second[2]["Retry-After"]) >= 1
        assert other[0] == 200  # independent client budget

    def test_oversized_body_413(self, pool_factory):
        server = pool_factory(workers=1)
        status, payload, _ = http(server, "POST", "/predict",
                                  raw=b"x" * ((1 << 20) + 1))
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"


class TestDeadlines:
    def test_deadline_exceeded_504(self, pool_factory, prepared):
        mkg, _ = prepared
        server = pool_factory(workers=1, request_delay=0.4)
        body = {"head": int(mkg.split.test[0, 0]),
                "relation": int(mkg.split.test[0, 1]),
                "k": 3, "deadline_ms": 50}
        status, payload, _ = http(server, "POST", "/predict", body)
        assert status == 504
        assert payload["error"]["code"] == "deadline_exceeded"
        status, stats, _ = http(server, "GET", "/stats")
        assert stats["pool"]["deadline_exceeded"] >= 1

    def test_expired_work_is_skipped_by_workers(self, pool_factory, prepared):
        """Queued-behind requests whose deadline passed never run the model."""
        mkg, _ = prepared
        server = pool_factory(workers=1, request_delay=0.3, max_queue_depth=8)
        body = {"head": int(mkg.split.test[0, 0]),
                "relation": int(mkg.split.test[0, 1]),
                "k": 3, "deadline_ms": 100}
        results = []

        def fire():
            results.append(http(server, "POST", "/predict", body))

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        codes = [status for status, _, _ in results]
        assert codes.count(504) >= 2  # only the first could have made it
        for status, payload, _ in results:
            if status == 504:
                assert payload["error"]["code"] == "deadline_exceeded"

    def test_generous_deadline_succeeds(self, pool_factory, prepared):
        mkg, _ = prepared
        server = pool_factory(workers=1)
        body = {"head": int(mkg.split.test[0, 0]),
                "relation": int(mkg.split.test[0, 1]),
                "k": 3, "deadline_ms": 30_000}
        status, payload, _ = http(server, "POST", "/predict", body)
        assert status == 200
        assert len(payload["results"]) == 3


class TestWorkerLoss:
    def test_killed_worker_respawns_and_serving_continues(self, pool_factory,
                                                          prepared):
        mkg, _ = prepared
        server = pool_factory(workers=2, health_interval=0.1,
                              health_timeout=5.0)
        _, payload, _ = http(server, "GET", "/healthz")
        victim_pid = payload["replicas"][0]["pid"]
        os.kill(victim_pid, signal.SIGKILL)

        def recovered():
            _, h, _ = http(server, "GET", "/healthz")
            pids = {r["pid"] for r in h["replicas"]}
            return (h["status"] == "ok" and victim_pid not in pids
                    and all(r["alive"] for r in h["replicas"]))

        assert _wait_until(recovered, timeout=20.0)
        body = {"head": int(mkg.split.test[0, 0]),
                "relation": int(mkg.split.test[0, 1]), "k": 3}
        status, _, _ = http(server, "POST", "/predict", body)
        assert status == 200
        _, stats, _ = http(server, "GET", "/stats")
        assert stats["pool"]["respawns"] >= 1
        assert stats["server"]["workers_alive"] == 2

    def test_inflight_requests_survive_worker_kill(self, pool_factory,
                                                   prepared):
        """Accepted requests are requeued (once) to a survivor, not dropped."""
        mkg, _ = prepared
        server = pool_factory(workers=2, health_interval=0.1,
                              request_delay=0.3, max_queue_depth=32)
        body = {"head": int(mkg.split.test[0, 0]),
                "relation": int(mkg.split.test[0, 1]), "k": 3}
        results = []

        def fire():
            results.append(http(server, "POST", "/predict", body))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.1)  # let requests reach the workers
        _, payload, _ = http(server, "GET", "/healthz")
        os.kill(payload["replicas"][0]["pid"], signal.SIGKILL)
        for t in threads:
            t.join()
        codes = [status for status, _, _ in results]
        # Every accepted request is answered: success, or an explicit
        # worker_lost 503 for a request lost twice — never a hang/empty.
        assert set(codes) <= {200, 503}
        assert codes.count(200) >= 1
        for status, payload, _ in results:
            if status == 503:
                assert payload["error"]["code"] == "worker_lost"

    def test_sigterm_kills_a_worker_and_pool_respawns(self, pool_factory):
        """Workers restore SIG_DFL at startup — a stray worker must die on
        plain SIGTERM (not inherit the front-end's asyncio handler) and
        the health loop must treat that like any other crash."""
        server = pool_factory(workers=2, health_interval=0.1)
        _, payload, _ = http(server, "GET", "/healthz")
        victim_pid = payload["replicas"][0]["pid"]
        os.kill(victim_pid, signal.SIGTERM)

        def gone_and_respawned():
            _, h, _ = http(server, "GET", "/healthz")
            pids = {r["pid"] for r in h["replicas"]}
            return victim_pid not in pids and h["status"] == "ok"

        assert _wait_until(gone_and_respawned, timeout=20.0)

    def test_workers_exit_when_frontend_dies_without_drain(self, transe,
                                                           prepared):
        """A front-end that dies hard (no drain) must not leak workers:
        each one notices it was orphaned on its next idle poll and exits."""
        import multiprocessing as mp

        from repro.pool import PoolServer
        from repro.serve import PredictionEngine

        mkg, _ = prepared
        ctx = mp.get_context("fork")
        # SimpleQueue writes synchronously — a buffered Queue would lose
        # the payload to os._exit before its feeder thread flushes.
        pid_queue = ctx.SimpleQueue()

        def doomed_frontend():
            config = PoolConfig(workers=2, health_interval=0.1)
            server = PoolServer(
                PredictionEngine(transe, mkg.split, model_name="TransE"),
                config)
            server.start_background()
            pid_queue.put([h.proc.pid
                           for h in server.pool.handles.values()])
            os._exit(1)  # skips atexit: daemon workers are NOT reaped

        frontend = ctx.Process(target=doomed_frontend)
        frontend.start()
        worker_pids = pid_queue.get()
        frontend.join(timeout=10)
        assert len(worker_pids) == 2

        def all_exited():
            for pid in worker_pids:
                try:
                    os.kill(pid, 0)
                    return False  # still alive
                except ProcessLookupError:
                    continue
            return True

        assert _wait_until(all_exited, timeout=10.0), worker_pids


class TestDrain:
    def test_graceful_drain_finishes_inflight_work(self, pool_factory,
                                                   prepared):
        mkg, _ = prepared
        server = pool_factory(workers=1, request_delay=0.3)
        body = {"head": int(mkg.split.test[0, 0]),
                "relation": int(mkg.split.test[0, 1]), "k": 3}
        result = {}

        def fire():
            result["response"] = http(server, "POST", "/predict", body)

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.1)  # request is in flight on the worker
        server.request_shutdown(drain=True)
        thread.join(timeout=15)
        server.join(timeout=15)
        status, payload, _ = result["response"]
        assert status == 200
        assert len(payload["results"]) == 3
        # The listener is gone: new connections are refused.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/healthz", timeout=2)

    def test_no_worker_processes_left_behind(self, pool_factory):
        server = pool_factory(workers=2)
        _, payload, _ = http(server, "GET", "/healthz")
        pids = [r["pid"] for r in payload["replicas"]]
        server.request_shutdown(drain=True)
        server.join(timeout=15)

        def all_gone():
            for pid in pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                return False
            return True

        assert _wait_until(all_gone, timeout=10.0)


class TestErrorStorm:
    def test_concurrent_error_envelopes_are_well_formed(self, pool_factory,
                                                        prepared):
        """A mixed error storm never corrupts envelopes or wedges the tier."""
        mkg, _ = prepared
        server = pool_factory(workers=2, max_queue_depth=64)
        good = {"head": int(mkg.split.test[0, 0]),
                "relation": int(mkg.split.test[0, 1]), "k": 3}
        cases = [
            ("raw", b"{not json", 400, "bad_json"),
            ("body", {"head": "no-such-entity", "relation": 0}, 400,
             "unknown_entity"),
            ("body", {"head": 0, "relation": "no-such-rel"}, 400,
             "unknown_relation"),
            ("body", {"head": 0, "relation": 0, "k": 100_000}, 400,
             "bad_request"),
            ("body", {"head": 0, "relation": 0, "deadline_ms": "soon"}, 400,
             "bad_request"),
            ("body", good, 200, None),
        ]
        results = []

        def fire(kind, payload, expected_status, expected_code):
            if kind == "raw":
                got = http(server, "POST", "/predict", raw=payload)
            else:
                got = http(server, "POST", "/predict", payload)
            results.append((got, expected_status, expected_code))

        threads = [threading.Thread(target=fire, args=case)
                   for case in cases * 4]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == len(cases) * 4
        for (status, payload, _), expected_status, expected_code in results:
            assert status == expected_status
            if expected_code is not None:
                assert set(payload["error"]) == {"code", "message"}
                assert payload["error"]["code"] == expected_code
            else:
                assert len(payload["results"]) == 3
        status, _, _ = http(server, "GET", "/healthz")
        assert status == 200
