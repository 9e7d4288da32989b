"""Tunables for the multi-replica serve tier.

One frozen-ish dataclass so the CLI, tests and benchmarks configure the
pool through the same named knobs.  Every timing knob is in seconds
(the CLI converts from milliseconds where that reads better).  What a
worker serves (row-cache size, approximate-by-default, ANN index) is
not configured here: workers copy it from the served
:class:`~repro.serve.PredictionEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PoolConfig"]


@dataclass
class PoolConfig:
    """Configuration for :class:`repro.pool.PoolServer`.

    Parameters
    ----------
    workers:
        Worker processes holding read-only model replicas.  Must be
        >= 1 — a pool of 0 is spelled "run the threaded server instead"
        and is handled by the CLI, not here.
    max_queue_depth:
        Per-endpoint admission watermark: a POST route whose queued +
        in-flight request count has reached this depth sheds new work
        with ``429`` + ``Retry-After`` instead of queueing it.
    rate_limit / rate_burst:
        Per-client token bucket (tokens/second and bucket capacity).
        Clients are keyed by the ``X-Client-Id`` header when present,
        else by peer address.  ``rate_limit=0`` disables rate limiting.
    max_clients:
        Distinct client buckets kept (LRU-evicted beyond this).
    default_timeout:
        Server-side deadline applied to requests that do not carry
        their own ``deadline_ms`` field.
    shed_retry_after:
        ``Retry-After`` seconds advertised on queue-full sheds.
    health_interval / health_timeout:
        Cadence of worker liveness pings and how long a worker may go
        unresponsive before it is declared hung and replaced.
    respawn:
        Replace dead workers automatically (off only in tests that
        assert on a shrunken world).
    drain_timeout:
        Seconds a graceful shutdown waits for in-flight requests.
    stats_timeout:
        How long ``/stats`` and ``/metrics`` wait for per-worker
        snapshots before reporting without the stragglers.
    request_delay:
        Test-only fault injection: every worker sleeps this many
        seconds before handling each request (deterministic deadline /
        shedding tests; keep 0.0 in production).
    """

    workers: int = 2
    max_queue_depth: int = 64
    rate_limit: float = 0.0
    rate_burst: int = 16
    max_clients: int = 1024
    default_timeout: float = 30.0
    shed_retry_after: float = 1.0
    health_interval: float = 0.5
    health_timeout: float = 5.0
    respawn: bool = True
    drain_timeout: float = 10.0
    stats_timeout: float = 2.0
    request_delay: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.rate_limit < 0:
            raise ValueError(f"rate_limit must be >= 0, got {self.rate_limit}")
        if self.rate_burst < 1:
            raise ValueError(f"rate_burst must be >= 1, got {self.rate_burst}")
        if self.default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be > 0, got {self.default_timeout}")
