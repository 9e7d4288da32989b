"""Stream-tier observability: append counters + generation gauge.

Registered against the serving engine's
:class:`~repro.obs.MetricsRegistry` (which the pool front end shares),
so stream activity shows up in the same ``/metrics`` exposition as
serving traffic.  Registration is idempotent per registry, making it
safe to construct one of these per append.
"""

from __future__ import annotations

from ..obs import MetricsRegistry
from .delta import AppendDelta

__all__ = ["StreamMetrics"]


class StreamMetrics:
    """Counters/gauges for the streaming append path."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.appends = registry.counter(
            "stream_appends_total", "Append batches applied")
        self.entities = registry.counter(
            "stream_appended_entities_total",
            "Unseen entities added via streaming appends")
        self.triples = registry.counter(
            "stream_appended_triples_total",
            "Known triples added via streaming appends")
        self.inductive_embeds = registry.counter(
            "stream_inductive_embeds_total",
            "Entity rows derived by the inductive encoder")
        self.generation = registry.gauge(
            "stream_generation", "Monotonic append generation (0 = pristine)")

    def record(self, delta: AppendDelta) -> None:
        self.appends.inc()
        self.entities.inc(delta.num_new_entities)
        self.triples.inc(delta.num_new_triples)
        self.inductive_embeds.inc(delta.num_new_entities)
        self.generation.set(delta.generation)
