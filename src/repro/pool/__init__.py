"""Multi-replica serve tier: admission control, load-shedding, respawn.

``repro.pool`` scales :mod:`repro.serve` horizontally on one host: an
asyncio front end (no scoring, no GIL-bound work) admits or sheds each
request, then dispatches admitted work to N forked worker processes.
``PoolServer(engine, config)`` serves one
:class:`~repro.serve.PredictionEngine`; each worker serves a replica
of it through the stock :class:`~repro.serve.http.ServiceApp`, over a
read-only model mapped zero-copy from one shared ``FlatSpec`` segment.
``python -m repro.serve serve --pool N`` turns it on; pool 0 is the
original threaded server, byte-for-byte.
"""

from .admission import (AdmissionController, AdmissionTicket, RateLimiter,
                        TokenBucket, format_retry_after)
from .config import PoolConfig
from .frontend import NoLiveWorkers, PoolServer, ReplicaPool, run_pool
from .replica import ReplicaSegment, attach_replica, publish_replica

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "NoLiveWorkers",
    "PoolConfig",
    "PoolServer",
    "RateLimiter",
    "ReplicaPool",
    "ReplicaSegment",
    "TokenBucket",
    "attach_replica",
    "format_retry_after",
    "publish_replica",
    "run_pool",
]
