"""Worker-process side of the pool: one read-only replica, one loop.

A pool worker is a forked child that:

1. remaps the model of its inherited parent engine onto the shared
   ``FlatSpec`` segment (:func:`repro.pool.replica.attach_replica` —
   zero-copy, read-only);
2. serves a :meth:`~repro.serve.PredictionEngine.replica` of that
   engine (own lock and metrics registry, zeroed counters, the parent's
   settings, stream generation, known-triple CSR filter and ANN index —
   the last two inherited copy-on-write, so no per-worker rebuild)
   through the stock :class:`~repro.serve.http.ServiceApp` — request
   validation, error envelopes and scoring behave **identically** to the
   threaded server;
3. loops on its command pipe answering ``req`` / ``ping`` / ``stats``
   messages until told to ``stop``.

Deadlines travel as absolute ``time.monotonic()`` values — on Linux
``CLOCK_MONOTONIC`` is system-wide, so the front-end's deadline is
directly comparable here.  A request that expires while queued is
answered with the 504 envelope without touching the model, which is
what "cancelling queued work" means once bytes have crossed the pipe.

Messages (tuples, first element is the kind):

=====================  =================================================
parent -> worker       worker -> parent (on the shared results queue)
=====================  =================================================
``("req", id, method,  ``("res", rank, id, status, payload)``
path, body, deadline,
traceparent)``
``("ping", id)``       ``("pong", rank, id, health_dict)``
``("stats", id)``      ``("stats", rank, id, snapshot, engine_stats)``
``("stop",)``          —
=====================  =================================================

The envelope's ``traceparent`` (the front-end's ``pool.request`` span)
is adopted as the parent of this worker's ``serve.request`` span, so
one request is a single trace across both processes.  When the parent
was exporting spans to a file, the worker exports its own to
``<path>.w<rank>`` (the tracer's at-fork hook already gave this process
a clean, disabled tracer) — ``repro.obs report`` stitches the files.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from dataclasses import dataclass
from queue import Empty

from ..obs import activate, disable_tracing, enable_tracing, parse_traceparent
from ..serve.engine import PredictionEngine
from ..serve.http import ServiceApp
from .replica import ReplicaSegment, attach_replica

__all__ = ["PoolWorkerContext", "pool_worker_main"]

logger = logging.getLogger("repro.pool.worker")

#: Seconds between command-queue polls (bounds stop latency).
_POLL = 0.1


@dataclass
class PoolWorkerContext:
    """Everything a forked pool worker needs (inherited, never pickled)."""

    rank: int
    engine: PredictionEngine       # the parent's engine (COW-shared)
    segment: ReplicaSegment
    cmd: object                    # mp.Queue: parent -> this worker
    results: object                # mp.Queue: all workers -> parent
    request_delay: float = 0.0     # test-only fault injection
    trace_path: str | None = None  # per-rank JSONL export (parent tracing on)


def _build_app(ctx: PoolWorkerContext) -> ServiceApp:
    shared = attach_replica(ctx.engine.model, ctx.segment)
    logger.info("pool worker %d up: %d shared bytes, model=%s",
                ctx.rank, shared, ctx.engine.model_name)
    return ServiceApp(ctx.engine.replica())


def pool_worker_main(ctx: PoolWorkerContext) -> None:
    """Forked worker main loop; exits on ``("stop",)``, queue EOF, or
    the death of its front-end (orphan check on every idle poll)."""
    # The fork happens after run_pool() may have installed asyncio signal
    # handlers; inherited, they would make SIGTERM a no-op here (it only
    # writes to the parent's wakeup fd).  Restore defaults: SIGTERM kills
    # a stray worker, Ctrl-C is ignored — drain is the front-end's job.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    # The at-fork hook already reset the inherited tracer (disabled,
    # empty ring, parent's file handle dropped); re-enable onto a
    # per-rank file when the front-end wants worker spans exported.
    if ctx.trace_path:
        enable_tracing(ctx.trace_path, flush_every=16)
    app = _build_app(ctx)
    served = 0
    started = time.time()
    try:
        while True:
            try:
                msg = ctx.cmd.get(timeout=_POLL)
            except Empty:
                if os.getppid() != parent:  # front-end died without a drain
                    logger.warning("pool worker %d orphaned; exiting", ctx.rank)
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - parent went away
                return
            kind = msg[0]
            if kind == "stop":
                logger.info("pool worker %d stopping after %d requests",
                            ctx.rank, served)
                return
            if kind == "ping":
                ctx.results.put(("pong", ctx.rank, msg[1], {
                    "requests": served,
                    "uptime_seconds": round(time.time() - started, 3),
                    "cache_entries": len(app.engine._cache),
                }))
                continue
            if kind == "stats":
                ctx.results.put(("stats", ctx.rank, msg[1],
                                 app.metrics.snapshot(), app.engine.stats()))
                continue
            if kind != "req":  # pragma: no cover - protocol guard
                logger.warning("pool worker %d: unknown message %r",
                               ctx.rank, kind)
                continue
            _, req_id, method, path, body, deadline, traceparent = msg
            rctx = parse_traceparent(traceparent) if traceparent else None
            if ctx.request_delay:
                time.sleep(ctx.request_delay)
            if deadline is not None and time.monotonic() > deadline:
                error = {"code": "deadline_exceeded",
                         "message": ("request expired while queued for a "
                                     "pool worker")}
                if rctx is not None:
                    error["trace_id"] = rctx.trace_id
                status, payload = 504, {"error": error}
            else:
                with activate(rctx):
                    status, payload = app.handle(method, path, body,
                                                 deadline=deadline)
            served += 1
            ctx.results.put(("res", ctx.rank, req_id, status, payload))
    finally:
        disable_tracing()  # flush + close the per-rank export file
