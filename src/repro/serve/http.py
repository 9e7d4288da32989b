"""Stdlib JSON HTTP front end for the prediction engine.

No third-party dependencies: a ``ThreadingHTTPServer`` dispatches to one
:class:`ServiceApp` shared by every handler thread.  Routes:

* ``GET  /healthz`` — liveness, uptime, package version, model identity;
* ``GET  /stats``   — server / engine / batcher counters (JSON);
* ``GET  /metrics`` — the same counters in Prometheus text exposition
  format (scrapeable; rendered from the engine's ``MetricsRegistry``);
* ``POST /predict`` — top-k tail or head prediction (micro-batched;
  optional ``"approx"`` / ``"nprobe"`` fields route through the engine's
  ANN index instead, bypassing the batcher);
* ``POST /score``   — explicit triple scoring;
* ``POST /append``  — streaming append (:mod:`repro.stream`): register
  unseen entities from their modalities plus known triples; the engine
  adopts them atomically and they become rankable immediately.

Every error is a JSON envelope ``{"error": {"code", "message"}}`` with
a matching HTTP status, so clients never have to parse HTML tracebacks.
Entities and relations may be referred to by name or by integer id;
unknown names come back with close-match suggestions.

Request counts, error counts and latency live on the engine's
:class:`repro.obs.MetricsRegistry` as ``http_requests_total{route,code}``
and ``http_request_seconds``, so ``/stats`` and ``/metrics`` can never
disagree; a :class:`repro.obs.SLOTracker` derives sliding-window
latency-attainment and error-budget burn-rate gauges from the same
observations.  Each ``handle`` call runs under a ``serve.request`` span
when tracing is enabled: a client-supplied ``traceparent`` header is
honored as the span's parent, the response carries ``X-Trace-Id``, and
error envelopes echo the ``trace_id`` so a client-reported failure can
be joined against server-side spans.
"""

from __future__ import annotations

import json
import logging
import os
import time
from concurrent.futures import TimeoutError as _FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .. import __version__
from ..obs import (SLOTracker, activate, current_context, parse_traceparent,
                   render_prometheus, trace)
from ..stream import StreamError, apply_append
from .ann import supports_ann
from .batcher import BatcherClosedError, MicroBatcher
from .engine import PredictionEngine

__all__ = ["ApiError", "MAX_BODY_BYTES", "MAX_TOP_K", "ServiceApp",
           "ServeHandler", "deadline_from_body", "health_payload",
           "make_server"]

logger = logging.getLogger("repro.serve.http")

MAX_BODY_BYTES = 1 << 20  # 1 MiB is plenty for any sane query payload

#: Upper bound on requested top-k: larger asks are a client bug (or an
#: attempt to exfiltrate the full ranking) and get a 400, not an
#: accidentally quadratic response payload.
MAX_TOP_K = 1000


class ApiError(Exception):
    """An error with a fixed HTTP status and JSON envelope code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


#: Backwards-compatible private alias (pre-pool name).
_ApiError = ApiError


def deadline_from_body(body) -> float | None:
    """Absolute ``time.monotonic()`` deadline from a ``deadline_ms`` field.

    Returns ``None`` when the body carries no ``deadline_ms``; raises
    :class:`ApiError` (400) on a malformed one.  Shared by the threaded
    server and the pool front end so both validate identically.
    ``CLOCK_MONOTONIC`` is system-wide on Linux, so the absolute value
    may cross process boundaries to pool workers.
    """
    if not isinstance(body, dict):
        return None
    raw = body.get("deadline_ms")
    if raw is None:
        return None
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
        raise ApiError(400, "bad_request",
                       f"'deadline_ms' must be a positive number, got {raw!r}")
    return time.monotonic() + float(raw) / 1e3


def health_payload(engine: PredictionEngine, status: str, replicas: list[dict],
                   started: float) -> dict:
    """The ``/healthz`` body of both tiers, for one served engine.

    ``status`` and the per-replica liveness ``replicas`` rows come from
    the tier; ``started`` is its ``time.time()`` at startup.
    """
    ann_info = {"supports_ann": supports_ann(engine.model),
                "attached": engine.ann is not None}
    if engine.ann is not None:
        ann_info.update(engine.ann.stats())
    return {
        "status": status,
        "model": engine.model_name,
        "num_entities": engine.num_entities,
        "num_relations": engine.num_relations,
        "uptime_seconds": round(time.time() - started, 3),
        "version": __version__,
        "bundle": {"version": engine.bundle_version},
        "stream": {"generation": int(engine.stream_generation)},
        "ann": ann_info,
        "replicas": replicas,
    }


class ServiceApp:
    """Request validation + dispatch shared by all handler threads."""

    def __init__(self, engine: PredictionEngine,
                 batcher: MicroBatcher | None = None) -> None:
        self.engine = engine
        self.batcher = batcher
        self.started = time.time()
        self.metrics = engine.metrics
        self._m_requests = self.metrics.counter(
            "http_requests_total", "HTTP requests by route and status code",
            labels=("route", "code"))
        self._m_latency = self.metrics.histogram(
            "http_request_seconds", "HTTP request handling latency")
        #: Sliding-window latency/error SLO gauges, exposed on /metrics
        #: and /stats; scope="serve" keeps replica series distinct from
        #: the pool front-end's after registry merge.
        self.slo = SLOTracker(self.metrics, scope="serve")

    # Legacy scalar views over the labeled request counter.
    @property
    def requests(self) -> int:
        return int(self._m_requests.total())

    @property
    def errors(self) -> int:
        return int(sum(child.value for key, child in self._m_requests.children()
                       if int(key[1]) >= 400))

    @property
    def latency_seconds(self) -> float:
        return float(self._m_latency.sum)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: dict | None,
               deadline: float | None = None,
               traceparent: str | None = None) -> tuple[int, dict | str]:
        """Dispatch one request; ``deadline`` is absolute ``monotonic``.

        A POST body may also carry its own ``deadline_ms``; the tighter
        of the two applies.  Work whose deadline has already passed is
        answered ``504 deadline_exceeded`` without touching the model,
        and a result that finishes late is discarded in favour of the
        504 (the client has already stopped waiting).
        """
        status, payload, _ = self.handle_traced(method, path, body,
                                                deadline=deadline,
                                                traceparent=traceparent)
        return status, payload

    def handle_traced(self, method: str, path: str, body: dict | None,
                      deadline: float | None = None,
                      traceparent: str | None = None,
                      ) -> tuple[int, dict | str, str | None]:
        """:meth:`handle` plus the request's ``trace_id`` (or None).

        An explicit ``traceparent`` (from an HTTP header) is adopted as
        the span's parent; an ambient context (the pool worker activates
        the envelope's context around this call) is honored implicitly
        by :func:`trace`.  When tracing is disabled and no context is
        supplied, this adds nothing to the request path.
        """
        if traceparent is None:
            return self._handle(method, path, body, deadline)
        with activate(parse_traceparent(traceparent)):
            return self._handle(method, path, body, deadline)

    def _handle(self, method: str, path: str, body: dict | None,
                deadline: float | None) -> tuple[int, dict | str, str | None]:
        tick = time.perf_counter()
        trace_id = None
        try:
            with trace("serve.request", method=method, route=path) as span:
                trace_id = span.trace_id
                if method == "POST":
                    own = deadline_from_body(body)
                    if own is not None:
                        deadline = own if deadline is None else min(deadline, own)
                if deadline is not None and time.monotonic() >= deadline:
                    raise ApiError(504, "deadline_exceeded",
                                   "deadline passed before processing began")
                if method == "GET" and path == "/healthz":
                    status, payload = 200, self._healthz()
                elif method == "GET" and path == "/stats":
                    status, payload = 200, self._stats()
                elif method == "GET" and path == "/metrics":
                    status, payload = 200, render_prometheus(self.metrics)
                elif method == "POST" and path == "/predict":
                    status, payload = 200, self._predict(body, deadline)
                elif method == "POST" and path == "/score":
                    status, payload = 200, self._score(body)
                elif method == "POST" and path == "/append":
                    status, payload = 200, self._append(body)
                else:
                    raise ApiError(404, "not_found",
                                   f"no route for {method} {path}")
                if deadline is not None:
                    span.set_attr("deadline_margin_ms", round(
                        1e3 * (deadline - time.monotonic()), 3))
                    if time.monotonic() > deadline:
                        raise ApiError(504, "deadline_exceeded",
                                       "deadline passed during scoring")
        except _ApiError as exc:
            status = exc.status
            payload = {"error": {"code": exc.code, "message": exc.message}}
        except Exception as exc:  # noqa: BLE001 - surface as a 500 envelope
            logger.exception("unhandled error for %s %s", method, path)
            status = 500
            payload = {"error": {"code": "internal", "message": str(exc)}}
        if trace_id is None:
            # Tracing disabled but a propagated context may be active
            # (pool worker adopting the front-end's envelope).
            ctx = current_context()
            if ctx is not None:
                trace_id = ctx.trace_id
        if (trace_id is not None and isinstance(payload, dict)
                and isinstance(payload.get("error"), dict)):
            payload["error"].setdefault("trace_id", trace_id)
        elapsed = time.perf_counter() - tick
        self._m_requests.labels(route=path, code=status).inc()
        self._m_latency.observe(elapsed)
        self.slo.observe(path, elapsed, status)
        logger.info("%s %s -> %d in %.1f ms", method, path, status, 1e3 * elapsed)
        return status, payload, trace_id

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _healthz(self) -> dict:
        return health_payload(self.engine, "ok", [{
            "rank": 0,
            "alive": True,
            "pid": os.getpid(),
            "mode": "thread",
            "inflight": 0,
            "requests": self.requests,
            "generation": 0,
        }], self.started)

    def _stats(self) -> dict:
        # +1: the in-flight /stats request itself is only counted at
        # completion, but the response should include it (as before).
        requests = self.requests + 1
        server = {
            "requests": requests,
            "errors": self.errors,
            "mean_latency_ms": round(1e3 * self.latency_seconds / requests, 3)
            if requests else 0.0,
            "uptime_seconds": round(time.time() - self.started, 3),
        }
        return {
            "server": server,
            "engine": self.engine.stats(),
            "batcher": self.batcher.stats() if self.batcher else None,
            "slo": self.slo.stats(),
        }

    def _resolve(self, vocab, token, what: str) -> int:
        if token is None:
            raise _ApiError(400, "bad_request", f"missing required field {what!r}")
        try:
            return vocab.resolve(token)
        except (KeyError, IndexError) as exc:
            raise _ApiError(400, f"unknown_{what}", str(exc.args[0])) from None

    def _predict(self, body: dict | None,
                 deadline: float | None = None) -> dict:
        if not isinstance(body, dict):
            raise _ApiError(400, "bad_request", "JSON object body required")
        has_head = "head" in body
        has_tail = "tail" in body
        if has_head == has_tail:
            raise _ApiError(400, "bad_request",
                            "provide exactly one of 'head' (tail prediction) "
                            "or 'tail' (head prediction)")
        rel = self._resolve(self.engine.relations, body.get("relation"), "relation")
        anchor = self._resolve(self.engine.entities,
                               body.get("head") if has_head else body.get("tail"),
                               "entity")
        k = body.get("k", 10)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise _ApiError(400, "bad_request", f"'k' must be a positive int, got {k!r}")
        if k > MAX_TOP_K:
            raise _ApiError(400, "bad_request",
                            f"'k' must be <= {MAX_TOP_K}, got {k}")
        filter_known = body.get("filter_known", False)
        if not isinstance(filter_known, bool):
            raise _ApiError(400, "bad_request", "'filter_known' must be a bool")
        approx = body.get("approx", None)
        if approx is not None and not isinstance(approx, bool):
            raise _ApiError(400, "bad_request", "'approx' must be a bool")
        nprobe = body.get("nprobe", None)
        if nprobe is not None and (not isinstance(nprobe, int)
                                   or isinstance(nprobe, bool) or nprobe < 1):
            raise _ApiError(400, "bad_request",
                            f"'nprobe' must be a positive int, got {nprobe!r}")
        use_approx = self.engine.approx_default if approx is None else approx
        if use_approx and self.engine.ann is None:
            raise _ApiError(400, "ann_unavailable",
                            "this server has no ANN index; retry with "
                            "'approx': false or restart with --ann build")

        query_rel = rel if has_head else rel + self.engine.num_relations
        if use_approx or nprobe is not None:
            # Approximate requests skip the micro-batcher: the ANN path
            # neither reads nor fills the row cache, so there is nothing
            # to coalesce.
            ids, scores = self.engine.top_k_tails(anchor, query_rel, k,
                                                  filter_known=filter_known,
                                                  approx=use_approx,
                                                  nprobe=nprobe)
        elif self.batcher is not None:
            timeout = (30.0 if deadline is None
                       else max(0.0, deadline - time.monotonic()))
            try:
                ids, scores = self.batcher.predict(anchor, query_rel, k,
                                                   filter_known,
                                                   timeout=timeout)
            except BatcherClosedError as exc:
                raise ApiError(503, "shutting_down", str(exc)) from None
            except _FutureTimeout:
                raise ApiError(504, "deadline_exceeded",
                               "deadline passed while queued for the "
                               "micro-batcher") from None
        else:
            ids, scores = self.engine.top_k_tails(anchor, query_rel, k,
                                                  filter_known=filter_known)
        entities = self.engine.entities
        return {
            "query": {
                "direction": "tail" if has_head else "head",
                ("head" if has_head else "tail"): entities.name(anchor),
                "relation": self.engine.relations.name(rel),
                "k": k,
                "filter_known": filter_known,
                "approx": use_approx,
            },
            "results": [
                {"id": int(i), "entity": entities.name(int(i)), "score": float(s)}
                for i, s in zip(ids, scores)
            ],
        }

    def _append(self, body: dict | None) -> dict:
        """Apply one streaming append to the live engine.

        Validation failures surface as the standard JSON error envelope
        (400 for malformed requests / unknown references, 409 for name
        conflicts); success returns the applied delta-log entry so the
        client learns the assigned entity ids and generation.
        """
        try:
            delta = apply_append(self.engine, body, source="api")
        except StreamError as exc:
            raise _ApiError(exc.status, exc.code, exc.message) from None
        return {
            "applied": delta.log_entry(),
            "stream_generation": int(self.engine.stream_generation),
            "num_entities": int(self.engine.num_entities),
        }

    def _score(self, body: dict | None) -> dict:
        if not isinstance(body, dict) or not isinstance(body.get("triples"), list):
            raise _ApiError(400, "bad_request",
                            "body must be {'triples': [[head, relation, tail], ...]}")
        rows = body["triples"]
        resolved = np.empty((len(rows), 3), dtype=np.int64)
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                raise _ApiError(400, "bad_request",
                                f"triple #{i} must be [head, relation, tail]")
            resolved[i, 0] = self._resolve(self.engine.entities, row[0], "entity")
            resolved[i, 1] = self._resolve(self.engine.relations, row[1], "relation")
            resolved[i, 2] = self._resolve(self.engine.entities, row[2], "entity")
        scores = self.engine.score_triples(resolved)
        return {"scores": [float(s) for s in scores]}


class ServeHandler(BaseHTTPRequestHandler):
    """Thin HTTP plumbing; all logic lives in :class:`ServiceApp`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as separate small sends (wfile is unbuffered);
    # without TCP_NODELAY, Nagle + delayed ACK stalls every keep-alive
    # response ~40ms.  Measured: 44ms/request -> sub-ms once disabled.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def _respond(self, status: int, payload: dict | str,
                 extra_headers: dict | None = None) -> None:
        if isinstance(payload, str):  # pre-rendered text (Prometheus /metrics)
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> dict | None:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return None
        if length > MAX_BODY_BYTES:
            raise _ApiError(413, "payload_too_large",
                            f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _ApiError(400, "bad_json", f"invalid JSON body: {exc}") from None

    def _dispatch(self, method: str) -> None:
        try:
            body = self._read_body() if method == "POST" else None
        except _ApiError as exc:
            self._respond(exc.status,
                          {"error": {"code": exc.code, "message": exc.message}})
            return
        status, payload, trace_id = self.server.app.handle_traced(
            method, self.path, body,
            traceparent=self.headers.get("traceparent"))
        self._respond(status, payload,
                      {"X-Trace-Id": trace_id} if trace_id else None)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")


class _Server(ThreadingHTTPServer):
    # The stdlib listen backlog of 5 resets connections when a burst of
    # clients connects faster than the accept loop spawns handlers.
    request_queue_size = 128


def make_server(engine: PredictionEngine, batcher: MicroBatcher | None = None,
                host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """Build a ready-to-run threaded server (``port=0`` picks a free port).

    The caller owns the lifecycle: ``serve_forever()`` (often on a
    thread), then ``shutdown()`` + ``server_close()``, and finally
    ``batcher.close()`` if one was attached.
    """
    server = _Server((host, port), ServeHandler)
    server.app = ServiceApp(engine, batcher)
    logger.info("serving %s on http://%s:%d", engine.model_name,
                server.server_address[0], server.server_address[1])
    return server
