"""Asyncio front-end: admission control + dispatch to replica workers.

The serve tier's accept path is one non-blocking event loop (stdlib
``asyncio`` streams; no third-party deps) that never touches a model.
For every POST it makes an admission decision — per-client token
bucket, then per-endpoint bounded queue — and either sheds the request
(``429`` + ``Retry-After``) or forwards it over a pipe to one of N
forked worker processes, each holding a read-only replica mapped
zero-copy from the shared ``FlatSpec`` segment
(:mod:`repro.pool.replica`).  Worker responses come back on one shared
results queue, pumped by a dedicated thread into the event loop.

Failure behaviour (the matrix DESIGN.md §12 documents):

* **request deadline** — ``deadline_ms`` (or the server default) bounds
  queue + compute time; expiry answers ``504 deadline_exceeded`` and
  the worker skips expired work it dequeues later;
* **worker crash / hang** — the health loop notices (liveness +
  ping-timeout), fails or **requeues-once** the dead worker's in-flight
  requests (a request is never requeued twice — the second loss is a
  ``503 worker_lost``), and respawns a replacement so the pool returns
  to full strength;
* **overload** — per-endpoint depth watermark sheds with ``429`` while
  admitted requests keep their latency bound (the closed-loop
  benchmark's past-saturation run asserts this);
* **SIGTERM** — graceful drain: stop accepting, finish in-flight work,
  stop workers, release the shared segment.

``POST /append`` (streaming, :mod:`repro.stream`) is handled in the
parent, not dispatched: :func:`repro.stream.apply_append` grows the
parent's :class:`~repro.serve.PredictionEngine` exactly as on the
threaded tier, then :meth:`ReplicaPool.republish` publishes a fresh
shared segment from the grown model and rolls the workers onto it one
generation forward — new workers spawn against the new segment,
in-flight requests on the old generation drain (stragglers are requeued
once, like a worker loss), and the old segment is released.  Replicas
therefore pick up appends via generation-stamped republish;
``/healthz`` exposes the stream generation and per-replica generations
so clients can watch the roll complete.

``/healthz`` reports per-replica liveness; ``/stats`` and ``/metrics``
merge every worker's :class:`~repro.obs.MetricsRegistry` snapshot with
the front-end's own counters (``MetricsRegistry.merge``), so pool-wide
p50/p99, queue depth and shed/respawn counters are one scrape away;
:class:`~repro.obs.SLOTracker` gauges (latency attainment, error-budget
burn rate) ride the same exposition.

Every request runs under a ``pool.request`` span whose context crosses
the cmd-queue envelope as a ``traceparent`` string (clients may supply
their own, which is honored); responses — including 429/503/504 error
envelopes and ``Retry-After`` sheds — echo ``X-Trace-Id``, and with the
per-rank worker JSONL exports ``python -m repro.obs report`` stitches
one request into a single cross-process tree (DESIGN.md §14).
"""

from __future__ import annotations

import asyncio
import json
import logging
import multiprocessing as mp
import threading
import time
from http.client import responses as _REASONS
from queue import Empty

from ..obs import (MetricsRegistry, SLOTracker, activate, current_traceparent,
                   get_tracer, parse_traceparent, render_prometheus, trace)
from ..serve.engine import PredictionEngine
from ..serve.http import MAX_BODY_BYTES, health_payload
from .admission import AdmissionController, RateLimiter, format_retry_after
from .config import PoolConfig
from .worker import PoolWorkerContext, pool_worker_main

__all__ = ["PoolServer", "ReplicaPool", "NoLiveWorkers", "run_pool"]

logger = logging.getLogger("repro.pool.frontend")

#: Routes the pool dispatches to workers (everything else is local).
DISPATCH_ROUTES = ("/predict", "/score")

#: Idle keep-alive connections are reaped after this many seconds.
_IDLE_TIMEOUT = 60.0


class NoLiveWorkers(RuntimeError):
    """Every replica is dead (and respawn has not caught up yet)."""


def _envelope(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


class _Pending:
    """One message awaiting a worker response."""

    __slots__ = ("req_id", "kind", "future", "method", "path", "body",
                 "deadline", "route", "requeued", "rank", "enqueued_at",
                 "traceparent")

    def __init__(self, req_id: int, kind: str, future, method: str = "",
                 path: str = "", body=None, deadline: float | None = None,
                 route: str = "") -> None:
        self.req_id = req_id
        self.kind = kind          # "req" | "pong" | "stats"
        self.future = future
        self.method = method
        self.path = path
        self.body = body
        self.deadline = deadline
        self.route = route
        self.requeued = False
        self.rank = -1
        self.enqueued_at = time.monotonic()
        self.traceparent: str | None = None


class WorkerHandle:
    """Parent-side view of one replica worker process."""

    __slots__ = ("rank", "proc", "cmd", "inflight", "spawned_at",
                 "last_pong", "requests_done", "alive", "generation")

    def __init__(self, rank: int, proc, cmd, generation: int) -> None:
        self.rank = rank
        self.proc = proc
        self.cmd = cmd
        self.inflight: dict[int, _Pending] = {}
        self.spawned_at = time.monotonic()
        self.last_pong = time.monotonic()
        self.requests_done = 0
        self.alive = True
        self.generation = generation

    def liveness(self) -> dict:
        return {
            "rank": self.rank,
            "alive": bool(self.alive and self.proc.is_alive()),
            "pid": self.proc.pid,
            "mode": "process",
            "inflight": len(self.inflight),
            "requests": self.requests_done,
            "generation": self.generation,
            "last_health_age_seconds": round(
                time.monotonic() - self.last_pong, 3),
        }


class ReplicaPool:
    """Worker lifecycle + request dispatch for :class:`PoolServer`."""

    def __init__(self, engine: PredictionEngine, config: PoolConfig, *,
                 registry: MetricsRegistry | None = None) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "repro.pool needs the 'fork' start method; run the threaded "
                "server (--pool 0) on this platform")
        self.engine = engine
        self.config = config
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.handles: dict[int, WorkerHandle] = {}
        self.segment = None
        self.draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ctx = mp.get_context("fork")
        self._results = None
        self._pending: dict[int, _Pending] = {}
        self._next_id = 0
        self._generation = 0
        self._pump: threading.Thread | None = None
        self._pump_stop = threading.Event()
        self._g_alive = self.metrics.gauge(
            "pool_workers_alive", "replica workers currently alive")
        self._c_respawns = self.metrics.counter(
            "pool_worker_respawns_total", "replica workers respawned")
        self._c_requeues = self.metrics.counter(
            "pool_requeues_total",
            "in-flight requests requeued after a worker loss")
        self._c_lost = self.metrics.counter(
            "pool_worker_lost_requests_total",
            "in-flight requests failed with 503 after a worker loss")
        self._c_late = self.metrics.counter(
            "pool_late_responses_total",
            "worker responses discarded after the request was answered")
        self._c_republishes = self.metrics.counter(
            "pool_republishes_total",
            "replica republish rolls (streaming appends adopted)")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        from .replica import publish_replica

        self._loop = loop
        # Built before the first fork so every worker inherits the filter
        # copy-on-write instead of paying its own CSR construction.
        self.engine.filter
        self.segment = publish_replica(self.engine.model)
        self._results = self._ctx.Queue()
        for rank in range(self.config.workers):
            self._spawn(rank)
        self._pump = threading.Thread(target=self._pump_main, daemon=True,
                                      name="repro-pool-pump")
        self._pump.start()
        logger.info("pool up: %d workers over a %d-byte shared segment",
                    self.config.workers, self.segment.nbytes)

    def _spawn(self, rank: int) -> WorkerHandle:
        cmd = self._ctx.Queue()
        self._generation += 1
        # Workers inherit a reset tracer (at-fork hook); if the parent is
        # exporting spans, each worker gets its own per-rank JSONL next
        # to the parent's so `repro.obs report` can stitch all of them.
        tracer = get_tracer()
        trace_path = (f"{tracer.path}.w{rank}"
                      if tracer.enabled and tracer.path else None)
        wctx = PoolWorkerContext(
            rank=rank, engine=self.engine, segment=self.segment, cmd=cmd,
            results=self._results, request_delay=self.config.request_delay,
            trace_path=trace_path)
        proc = self._ctx.Process(target=pool_worker_main, args=(wctx,),
                                 daemon=True, name=f"repro-pool-{rank}")
        proc.start()
        handle = WorkerHandle(rank, proc, cmd, self._generation)
        self.handles[rank] = handle
        self._g_alive.set(self.num_live())
        return handle

    def liveness(self) -> list[dict]:
        """One liveness row per replica, by rank."""
        return [handle.liveness() for handle in
                sorted(self.handles.values(), key=lambda h: h.rank)]

    def num_live(self) -> int:
        return sum(1 for h in self.handles.values()
                   if h.alive and h.proc.is_alive())

    def inflight_requests(self) -> int:
        return sum(1 for p in self._pending.values() if p.kind == "req")

    def stop(self) -> None:
        """Stop workers and release the segment; never blocks forever."""
        self._pump_stop.set()
        self._stop_workers(list(self.handles.values()))
        if self._pump is not None:
            self._pump.join(timeout=2.0)
        if self._results is not None:
            self._results.cancel_join_thread()
            self._results.close()
        if self.segment is not None:
            self.segment.close()
            self.segment = None
        self._g_alive.set(0)
        # Anything still pending can never be answered now.
        for pending in list(self._pending.values()):
            self._fail(pending, 503, _envelope(
                "shutting_down", "pool stopped before the request completed"))
        self._pending.clear()

    @staticmethod
    def _stop_workers(handles: list[WorkerHandle]) -> None:
        """Ask ``handles`` to stop, terminate stragglers, close their pipes."""
        for handle in handles:
            handle.alive = False
            try:
                handle.cmd.put(("stop",))
            except Exception:  # pragma: no cover - broken queue
                pass
        for handle in handles:
            handle.proc.join(timeout=2.0)
            if handle.proc.is_alive():  # pragma: no cover - hung worker
                handle.proc.terminate()
                handle.proc.join(timeout=1.0)
            handle.cmd.cancel_join_thread()
            handle.cmd.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pick_worker(self) -> WorkerHandle:
        live = [h for h in self.handles.values()
                if h.alive and h.proc.is_alive()]
        if not live:
            raise NoLiveWorkers("no live replica workers")
        return min(live, key=lambda h: (len(h.inflight), h.rank))

    def _register(self, kind: str, **fields) -> _Pending:
        self._next_id += 1
        pending = _Pending(self._next_id, kind,
                           self._loop.create_future(), **fields)
        self._pending[pending.req_id] = pending
        return pending

    def _send(self, handle: WorkerHandle, pending: _Pending) -> None:
        pending.rank = handle.rank
        handle.inflight[pending.req_id] = pending
        handle.cmd.put(("req", pending.req_id, pending.method, pending.path,
                        pending.body, pending.deadline, pending.traceparent))

    def dispatch(self, method: str, path: str, body,
                 deadline: float | None, route: str) -> _Pending:
        """Forward one request to the least-loaded live worker.

        The active trace context (the front-end's ``pool.request`` span,
        or a client-supplied parent) rides the envelope as a
        ``traceparent`` string so the worker's spans join the same
        trace; requeued requests re-send the original context.
        """
        pending = self._register("req", method=method, path=path, body=body,
                                 deadline=deadline, route=route)
        pending.traceparent = current_traceparent()
        try:
            self._send(self._pick_worker(), pending)
        except NoLiveWorkers:
            self._pending.pop(pending.req_id, None)
            raise
        return pending

    def abandon(self, pending: _Pending) -> None:
        """Forget a request the front-end already answered (deadline)."""
        self._pending.pop(pending.req_id, None)
        handle = self.handles.get(pending.rank)
        if handle is not None:
            handle.inflight.pop(pending.req_id, None)

    def send_control(self, handle: WorkerHandle, kind: str) -> _Pending:
        """Dispatch a ``ping`` or ``stats`` message to one worker."""
        pending = self._register("pong" if kind == "ping" else "stats")
        pending.rank = handle.rank
        handle.inflight[pending.req_id] = pending
        handle.cmd.put((kind, pending.req_id))
        return pending

    def _fail(self, pending: _Pending, status: int, payload: dict) -> None:
        if pending.future.done():
            return
        if pending.kind == "req":
            pending.future.set_result((status, payload))
        else:  # control messages resolve exceptionally, callers skip them
            pending.future.set_exception(
                RuntimeError(payload["error"]["message"]))

    # ------------------------------------------------------------------
    # Response pump (thread -> event loop)
    # ------------------------------------------------------------------
    def _pump_main(self) -> None:
        while not self._pump_stop.is_set():
            try:
                msg = self._results.get(timeout=0.2)
            except (Empty, EOFError, OSError):
                continue
            except Exception:  # pragma: no cover - half-written pickle
                continue
            try:
                self._loop.call_soon_threadsafe(self._on_message, msg)
            except RuntimeError:  # pragma: no cover - loop already closed
                return

    def _on_message(self, msg: tuple) -> None:
        kind, rank, req_id = msg[0], msg[1], msg[2]
        pending = self._pending.pop(req_id, None)
        handle = self.handles.get(rank)
        if handle is not None:
            handle.inflight.pop(req_id, None)
            handle.last_pong = time.monotonic()
        if pending is None or pending.future.done():
            self._c_late.inc()
            return
        if kind == "res":
            if handle is not None:
                handle.requests_done += 1
            pending.future.set_result((msg[3], msg[4]))
        elif kind == "pong":
            pending.future.set_result(msg[3])
        elif kind == "stats":
            pending.future.set_result((msg[3], msg[4]))
        else:  # pragma: no cover - protocol guard
            logger.warning("unknown worker message kind %r", kind)

    # ------------------------------------------------------------------
    # Health / failure handling (runs on the event loop)
    # ------------------------------------------------------------------
    def health_tick(self) -> None:
        """One liveness sweep: detect deaths/hangs, ping the survivors."""
        now = time.monotonic()
        for handle in list(self.handles.values()):
            if not handle.alive:
                continue
            if not handle.proc.is_alive():
                self._on_worker_death(handle, "died")
                continue
            if now - handle.last_pong > self.config.health_timeout:
                self._on_worker_death(
                    handle, f"unresponsive > {self.config.health_timeout:.1f}s")
                continue
            self.send_control(handle, "ping")

    def _on_worker_death(self, handle: WorkerHandle, reason: str) -> None:
        if not handle.alive:
            return
        handle.alive = False
        logger.error("pool worker %d (pid %s) %s; %d in-flight request(s)",
                     handle.rank, handle.proc.pid, reason,
                     len(handle.inflight))
        handle.proc.terminate()
        handle.proc.join(timeout=1.0)
        victims = list(handle.inflight.values())
        handle.inflight.clear()
        replacement: WorkerHandle | None = None
        if self.config.respawn and not self.draining:
            replacement = self._spawn(handle.rank)
            self._c_respawns.inc()
            logger.info("respawned pool worker %d (pid %s)",
                        replacement.rank, replacement.proc.pid)
        self._g_alive.set(self.num_live())
        self._requeue_once(victims, f"worker {handle.rank} {reason}")

    def _requeue_once(self, victims: list[_Pending], lost: str) -> None:
        """Requeue requests lost with a worker onto a live one, once.

        Control messages, requests already requeued once and requests
        with no live worker left fail with ``503 worker_lost``.
        """
        for pending in victims:
            self._pending.pop(pending.req_id, None)
            if pending.future.done():
                continue
            if pending.kind != "req":
                self._fail(pending, 503, _envelope("worker_lost", lost))
                continue
            if pending.requeued:
                self._c_lost.inc()
                self._fail(pending, 503, _envelope(
                    "worker_lost", f"{lost} (request already requeued once)"))
                continue
            pending.requeued = True
            try:
                target = self._pick_worker()
            except NoLiveWorkers:
                self._c_lost.inc()
                self._fail(pending, 503, _envelope(
                    "worker_lost", f"{lost}; no live replica workers left"))
                continue
            self._pending[pending.req_id] = pending
            self._send(target, pending)
            self._c_requeues.inc()

    # ------------------------------------------------------------------
    # Republish (streaming appends)
    # ------------------------------------------------------------------
    async def republish(self) -> None:
        """Roll every worker onto a fresh segment of the (grown) model.

        Called after the parent engine has adopted a streaming append.
        Sequence:

        1. publish a new shared segment from the current parent model;
        2. spawn replacement workers (next generation) against it — the
           pool never drops below full strength on the new generation;
        3. let requests in flight on the old generation drain (bounded
           by ``drain_timeout``), requeueing stragglers once exactly as
           a worker loss would;
        4. stop the old workers and release the old segment.

        ``attach_replica`` hard-fails on a shape mismatch, which is why
        a whole new segment (not an in-place overwrite) is required:
        the entity table changed shape.
        """
        from .replica import publish_replica

        old_segment = self.segment
        old_handles = [h for h in self.handles.values() if h.alive]
        victims = [p for h in old_handles for p in h.inflight.values()]
        self.segment = publish_replica(self.engine.model)
        for rank in list(self.handles):
            self._spawn(rank)  # replaces the handle; old one kept above
        self._c_republishes.inc()
        logger.info("republished %d-byte segment at generation %d; rolling "
                    "%d worker(s)", self.segment.nbytes, self._generation,
                    len(old_handles))
        deadline = time.monotonic() + self.config.drain_timeout
        while (any(not p.future.done() for p in victims)
               and time.monotonic() < deadline):
            await asyncio.sleep(0.01)
        self._stop_workers(old_handles)
        if old_segment is not None:
            old_segment.close()
        self._g_alive.set(self.num_live())
        # Stragglers lost with their worker: requeue once onto the new
        # generation, mirroring the worker-death policy.
        self._requeue_once(victims, "worker rolled during republish")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    async def gather_worker_stats(self) -> list[dict]:
        """Per-worker liveness + metrics snapshots (stragglers skipped)."""
        rows, waits = self.liveness(), []
        for row in rows:
            if row["alive"]:
                waits.append((row, self.send_control(
                    self.handles[row["rank"]], "stats")))
        for row, pending in waits:
            try:
                snapshot, engine = await asyncio.wait_for(
                    pending.future, timeout=self.config.stats_timeout)
                row["metrics_snapshot"] = snapshot
                row["engine"] = engine
            except Exception:  # noqa: BLE001 - straggler or lost worker
                self.abandon(pending)
        return rows


class PoolServer:
    """The serve tier: asyncio HTTP front end over a :class:`ReplicaPool`.

    ``engine`` is the served bundle's one
    :class:`~repro.serve.PredictionEngine` (usually
    ``PredictionEngine.from_bundle``): every worker serves a
    :meth:`~repro.serve.PredictionEngine.replica` of it, ``POST /append``
    grows it, and the front end's metrics share its registry.

    Lifecycle: ``await serve(host, port)`` on an event loop (the CLI
    path, with SIGTERM wired to a graceful drain), or
    ``start_background()`` to run the loop on a daemon thread (tests
    and benchmarks).  ``request_shutdown(drain=True)`` is thread-safe.
    """

    def __init__(self, engine: PredictionEngine, config: PoolConfig) -> None:
        self.config = config
        self.engine = engine
        self.started = time.time()
        self.metrics = engine.metrics
        self._append_lock = asyncio.Lock()
        self.pool = ReplicaPool(engine, config, registry=self.metrics)
        self.limiter = RateLimiter(config.rate_limit, config.rate_burst,
                                   max_clients=config.max_clients)
        self.admission = AdmissionController(config.max_queue_depth,
                                             retry_after=config.shed_retry_after)
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._health_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._drain_on_stop = True
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self._m_requests = self.metrics.counter(
            "pool_requests_total", "front-end requests by route and code",
            labels=("route", "code"))
        self._m_latency = self.metrics.histogram(
            "pool_request_seconds",
            "end-to-end latency of requests the front end answered")
        self._g_depth = self.metrics.gauge(
            "pool_queue_depth", "admitted requests queued or in flight",
            labels=("route",))
        self._c_shed = self.metrics.counter(
            "pool_shed_total", "requests shed at admission", labels=("reason",))
        self._c_deadline = self.metrics.counter(
            "pool_deadline_exceeded_total",
            "requests answered 504 after their deadline passed")
        self._g_draining = self.metrics.gauge(
            "pool_draining", "1 while a graceful drain is in progress")
        #: Front-end SLO gauges (scope="pool": end-to-end latency incl.
        #: queueing, vs the workers' scope="serve" engine-side series).
        self.slo = SLOTracker(self.metrics, scope="pool")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def serve(self, host: str = "127.0.0.1", port: int = 0,
                    _started: threading.Event | None = None,
                    on_started=None) -> None:
        """Run the tier until :meth:`request_shutdown` is called."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self.pool.start(self._loop)
            self._server = await asyncio.start_server(
                self._handle_conn, host, port)
        except BaseException as exc:
            self._startup_error = exc
            if _started is not None:
                _started.set()
            raise
        self.host = host
        self.port = int(self._server.sockets[0].getsockname()[1])
        self._health_task = self._loop.create_task(self._health_loop())
        logger.info("pool serving %s on http://%s:%d with %d workers",
                    self.engine.model_name, self.host, self.port,
                    self.config.workers)
        if _started is not None:
            _started.set()
        if on_started is not None:
            on_started(self)
        try:
            await self._stop_event.wait()
        finally:
            await self._shutdown(self._drain_on_stop)

    def start_background(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Run :meth:`serve` on a daemon thread; returns the bound port."""
        started = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve(host, port, _started=started)),
            daemon=True, name="repro-pool-server")
        self._thread.start()
        if not started.wait(timeout=60.0):  # pragma: no cover - startup hang
            raise RuntimeError("pool server did not start within 60s")
        if self._startup_error is not None:
            raise RuntimeError("pool server failed to start") \
                from self._startup_error
        return self.port

    def request_shutdown(self, drain: bool = True) -> None:
        """Thread-safe shutdown trigger (SIGTERM handler, tests)."""
        self._drain_on_stop = drain
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:  # loop already closed: nothing to stop
                pass

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    async def _shutdown(self, drain: bool) -> None:
        self._draining = True
        self.pool.draining = True
        self._g_draining.set(1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout
            while (self.pool.inflight_requests()
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.02)
        if self._health_task is not None:
            self._health_task.cancel()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.pool.stop()
        logger.info("pool server stopped (drain=%s)", drain)

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval)
            try:
                self.pool.health_tick()
            except Exception:  # noqa: BLE001 - keep the loop alive
                logger.exception("health tick failed")

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        peer = writer.get_extra_info("peername")
        client_ip = peer[0] if isinstance(peer, (tuple, list)) else "local"
        try:
            while True:
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(), timeout=_IDLE_TIMEOUT)
                except asyncio.TimeoutError:
                    break
                if not request_line or not request_line.strip():
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await self._write(writer, 400, _envelope(
                        "bad_request", "malformed HTTP request line"), {},
                        close=True)
                    break
                method, path = parts[0], parts[1]
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    await self._write(writer, 400, _envelope(
                        "bad_request", "invalid Content-Length"), {},
                        close=True)
                    break
                if length > MAX_BODY_BYTES:
                    await self._write(writer, 413, _envelope(
                        "payload_too_large",
                        f"body exceeds {MAX_BODY_BYTES} bytes"), {},
                        close=True)
                    # Drain what the client is still sending before the
                    # close — otherwise unread bytes turn the FIN into a
                    # RST and the client sees a reset, not the 413.
                    remaining = min(length, 8 * MAX_BODY_BYTES)
                    while remaining > 0:
                        chunk = await reader.read(min(65536, remaining))
                        if not chunk:
                            break
                        remaining -= len(chunk)
                    break
                raw = await reader.readexactly(length) if length else b""
                status, payload, extra = await self._handle_request(
                    method, path, headers, raw, client_ip)
                close = (headers.get("connection", "").lower() == "close"
                         or self._draining)
                await self._write(writer, status, payload, extra, close=close)
                if close:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - peer already gone
                pass

    async def _write(self, writer: asyncio.StreamWriter, status: int,
                     payload, extra_headers: dict, close: bool = False) -> None:
        if isinstance(payload, str):  # pre-rendered Prometheus text
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Server: repro-pool/1",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(data)}"]
        for name, value in extra_headers.items():
            head.append(f"{name}: {value}")
        if close:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _handle_request(self, method: str, path: str,
                              headers: dict[str, str], raw: bytes,
                              client_ip: str) -> tuple[int, object, dict]:
        """Route one parsed request, under a ``pool.request`` span.

        The span is this request's root (or the child of a
        client-supplied ``traceparent``); it stays open across the
        worker round-trip, so its duration is end-to-end including
        admission and queueing.  Every response — success, shed 429s,
        503/504/500 envelopes — carries ``X-Trace-Id``, and error
        envelopes embed the id too.  With tracing disabled and no
        client context, none of this allocates.
        """
        tick = time.perf_counter()
        client_tp = headers.get("traceparent")
        rctx = parse_traceparent(client_tp) if client_tp else None
        trace_id = None
        if rctx is not None or get_tracer().enabled:
            with activate(rctx):
                with trace("pool.request", method=method, route=path) as span:
                    trace_id = span.trace_id or (
                        rctx.trace_id if rctx is not None else None)
                    status, payload, extra = await self._route(
                        method, path, headers, raw, client_ip)
                    span.set_attr("status", status)
        else:
            status, payload, extra = await self._route(
                method, path, headers, raw, client_ip)
        if trace_id is not None:
            extra = dict(extra)
            extra.setdefault("X-Trace-Id", trace_id)
            if isinstance(payload, dict) and isinstance(
                    payload.get("error"), dict):
                payload["error"].setdefault("trace_id", trace_id)
        elapsed = time.perf_counter() - tick
        self._m_requests.labels(route=path, code=status).inc()
        self._m_latency.observe(elapsed)
        self.slo.observe(path, elapsed, status)
        logger.info("%s %s -> %d in %.1f ms", method, path, status,
                    1e3 * elapsed)
        return status, payload, extra

    async def _route(self, method: str, path: str, headers: dict[str, str],
                     raw: bytes, client_ip: str) -> tuple[int, object, dict]:
        extra: dict = {}
        try:
            if method == "GET" and path == "/healthz":
                status, payload = 200, self._healthz()
            elif method == "GET" and path == "/stats":
                status, payload = 200, await self._stats()
            elif method == "GET" and path == "/metrics":
                merged, _ = await self._merged_registry()
                status, payload = 200, render_prometheus(merged)
            elif method == "POST" and path in DISPATCH_ROUTES:
                status, payload, extra = await self._dispatch_post(
                    path, headers, raw, client_ip)
            elif method == "POST" and path == "/append":
                status, payload = await self._append(raw)
            else:
                status, payload = 404, _envelope(
                    "not_found", f"no route for {method} {path}")
        except Exception as exc:  # noqa: BLE001 - surface as a 500 envelope
            logger.exception("unhandled error for %s %s", method, path)
            status, payload = 500, _envelope("internal", str(exc))
        return status, payload, extra

    async def _dispatch_post(self, path: str, headers: dict[str, str],
                             raw: bytes,
                             client_ip: str) -> tuple[int, dict, dict]:
        from ..serve.http import ApiError, deadline_from_body

        try:
            body = json.loads(raw) if raw else None
        except json.JSONDecodeError as exc:
            return 400, _envelope("bad_json", f"invalid JSON body: {exc}"), {}
        if self._draining:
            return 503, _envelope(
                "draining", "server is draining; retry later"), {}
        client = headers.get("x-client-id") or client_ip
        admitted, retry = self.limiter.acquire(client)
        if not admitted:
            self._c_shed.labels(reason="rate_limited").inc()
            return (429,
                    _envelope("rate_limited",
                              f"client {client!r} exceeded "
                              f"{self.limiter.rate:g} requests/s"),
                    {"Retry-After": format_retry_after(retry)})
        ticket, retry = self.admission.try_admit(path)
        if ticket is None:
            self._c_shed.labels(reason="queue_full").inc()
            return (429,
                    _envelope("overloaded",
                              f"{path} queue is at its "
                              f"{self.config.max_queue_depth}-deep watermark"),
                    {"Retry-After": format_retry_after(retry)})
        try:
            self._g_depth.labels(route=path).set(self.admission.depth(path))
            try:
                deadline = deadline_from_body(body)
            except ApiError as exc:
                return exc.status, _envelope(exc.code, exc.message), {}
            timeout = (self.config.default_timeout if deadline is None
                       else deadline - time.monotonic())
            absolute = time.monotonic() + timeout
            try:
                pending = self.pool.dispatch("POST", path, body, absolute, path)
            except NoLiveWorkers:
                return 503, _envelope(
                    "worker_lost", "no live replica workers"), {}
            try:
                status, payload = await asyncio.wait_for(
                    pending.future, timeout=max(0.0, timeout))
            except asyncio.TimeoutError:
                self.pool.abandon(pending)
                self._c_deadline.inc()
                return 504, _envelope(
                    "deadline_exceeded",
                    f"request exceeded its {timeout * 1e3:.0f} ms deadline"), {}
            return status, payload, {}
        finally:
            ticket.release()
            self._g_depth.labels(route=path).set(self.admission.depth(path))

    async def _append(self, raw: bytes) -> tuple[int, dict]:
        """Apply a streaming append on the parent, then roll the replicas.

        Handled locally: workers hold read-only replicas, so the parent
        engine adopts the append (the threaded tier's
        :func:`~repro.stream.apply_append`) and it propagates via
        :meth:`ReplicaPool.republish` (a fresh shared segment +
        generation-stamped worker roll).  Serialised by a lock so
        concurrent appends commit in generation order.
        """
        from ..stream import StreamError, apply_append

        try:
            body = json.loads(raw) if raw else None
        except json.JSONDecodeError as exc:
            return 400, _envelope("bad_json", f"invalid JSON body: {exc}")
        if self._draining:
            return 503, _envelope("draining", "server is draining; retry later")
        async with self._append_lock:
            try:
                delta = apply_append(self.engine, body, source="pool")
            except StreamError as exc:
                return exc.status, _envelope(exc.code, exc.message)
            with trace("pool.republish", generation=delta.generation):
                await self.pool.republish()
        return 200, {
            "applied": delta.log_entry(),
            "stream_generation": int(self.engine.stream_generation),
            "num_entities": int(self.engine.num_entities),
            "replicas": self.pool.liveness(),
        }

    # ------------------------------------------------------------------
    # Local routes
    # ------------------------------------------------------------------
    def _healthz(self) -> dict:
        replicas = self.pool.liveness()
        alive = sum(1 for row in replicas if row["alive"])
        if self._draining:
            status = "draining"
        elif alive == self.config.workers:
            status = "ok"
        elif alive > 0:
            status = "degraded"
        else:
            status = "down"
        return health_payload(self.engine, status, replicas, self.started)

    async def _merged_registry(self) -> tuple[MetricsRegistry, list[dict]]:
        """Front-end metrics + every worker's snapshot, fan-in merged."""
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        rows = await self.pool.gather_worker_stats()
        for row in rows:
            snapshot = row.pop("metrics_snapshot", None)
            if snapshot:
                merged.merge(snapshot)
        return merged, rows

    async def _stats(self) -> dict:
        _, rows = await self._merged_registry()
        requests = int(self._m_requests.total()) + 1  # include this one
        errors = int(sum(child.value for key, child
                         in self._m_requests.children() if int(key[1]) >= 400))
        shed = {key[0]: int(child.value)
                for key, child in self._c_shed.children()}
        return {
            "server": {
                "mode": "pool",
                "requests": requests,
                "errors": errors,
                "uptime_seconds": round(time.time() - self.started, 3),
                "draining": self._draining,
                "workers": self.config.workers,
                "workers_alive": self.pool.num_live(),
            },
            "pool": {
                "queue_depth": self.admission.depths(),
                "max_queue_depth": self.config.max_queue_depth,
                "rate_limit": self.limiter.rate,
                "rate_clients": self.limiter.num_clients(),
                "shed": shed,
                "deadline_exceeded": int(self._c_deadline.value),
                "requeues": int(self.pool._c_requeues.value),
                "respawns": int(self.pool._c_respawns.value),
                "lost_requests": int(self.pool._c_lost.value),
                "late_responses": int(self.pool._c_late.value),
                "p50_ms": round(1e3 * self._m_latency.quantile(0.5), 3),
                "p99_ms": round(1e3 * self._m_latency.quantile(0.99), 3),
            },
            "slo": self.slo.stats(),
            "workers": rows,
        }


def run_pool(engine: PredictionEngine, config: PoolConfig, *,
             host: str = "127.0.0.1", port: int = 8080, on_started=None) -> int:
    """CLI entry: serve ``engine`` with a pool, drain gracefully on signals."""
    import signal

    server = PoolServer(engine, config)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: server.request_shutdown(drain=True))
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.serve(host, port, on_started=on_started)

    asyncio.run(main())
    return 0
