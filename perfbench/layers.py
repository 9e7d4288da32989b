"""Per-layer timing for the traced run.

Nothing here is added inside the program: :class:`Probe` swaps a
public function, method or bound instance attribute for a timed
wrapper while one phase runs and puts the original back afterwards,
and the CamE sub-layers and ``repro.nn`` ops are measured with the
program's own :class:`repro.obs.AutogradProfiler`.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

_MISSING = object()


class Probe:
    """Calls, total and first-call seconds, and rows handled per timer."""

    traced = True

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.first: dict[str, float] = {}
        self.items: dict[str, int] = defaultdict(int)
        self.profiles: dict[str, list] = defaultdict(list)

    def _wrap(self, fn, key: str):
        def timed(*args, **kwargs):
            tick = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - tick
                self.seconds[key] += elapsed
                self.first.setdefault(key, elapsed)
                self.calls[key] += 1
                if args and isinstance(args[0], np.ndarray):
                    self.items[key] += len(args[0])
        return timed

    @contextlib.contextmanager
    def timing(self, *targets):
        """Time ``(owner, attribute, key)`` targets inside the block.

        ``owner`` is a module, a class or an instance.  The attribute's
        raw value is restored on exit (or deleted, when the wrapper only
        shadowed a class attribute), even if the block raises.
        """
        saved = []
        try:
            for owner, attr, key in targets:
                raw = vars(owner).get(attr, _MISSING)
                saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(getattr(owner, attr), key))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                if raw is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)

    @contextlib.contextmanager
    def profiling(self, name: str):
        """Run the block under an AutogradProfiler added to ``profiles[name]``."""
        from repro.obs import AutogradProfiler

        with AutogradProfiler() as profiler:
            yield self
        self.profiles[name].append(profiler)

    def per_call_ms(self, key: str) -> float:
        return 1e3 * self.seconds[key] / max(self.calls[key], 1)

    def steady_ms(self, key: str) -> float:
        """Mean milliseconds per call after the first."""
        return 1e3 * (self.seconds[key] - self.first[key]) / (self.calls[key] - 1)


class NullProbe:
    """The untraced run's probe: every block runs unwrapped."""

    traced = False

    def timing(self, *targets):
        return contextlib.nullcontext(self)

    def profiling(self, name: str):
        return contextlib.nullcontext(self)


def layer_metrics(probe: Probe, record: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run, named as in BENCHMARK.json.

    ``record`` holds the session's own counts (batches, queries, misses,
    appends, set-up repeats) that the timers are divided by.
    """
    s, ms = probe.seconds, probe.per_call_ms
    batches = record["train_batches"]
    train = probe.profiles["train"]

    def per_batch_ms(seconds: float) -> float:
        return 1e3 * seconds / batches

    def layer_ms(name: str, field: str) -> float:
        return per_batch_ms(sum(getattr(p.layer_stats[name], field) for p in train))

    def op_ms(name: str) -> float:
        return per_batch_ms(sum(p.op_stats[name].total_seconds for p in train))

    misses = probe.calls["miss.predict"]
    queries = record["queries"]
    setups = record["setup_repeats"]
    tracked = s["train.forward"] + s["train.backward"] + s["train.step"]
    return {
        "core.tca_fwd_ms": layer_ms("TCAHead", "total_seconds"),
        "core.tca_bwd_ms": layer_ms("TCAHead", "backward_seconds"),
        "core.mmf_fwd_ms": layer_ms("MultimodalTCAFusion", "total_seconds"),
        "core.ric_fwd_ms": layer_ms("RelationInteractiveTCA", "total_seconds"),
        "core.trunk_fwd_ms": layer_ms("_ConvTrunk", "total_seconds"),
        "core.query_vectors_ms": 1e3 * s["miss.query_vectors"] / misses,
        "core.candidate_score_ms":
            1e3 * (s["miss.score_queries"] - s["miss.query_vectors"]) / misses,
        "nn.softmax_ms": op_ms("softmax"),
        "nn.matmul_ms": op_ms("matmul"),
        "nn.alloc_mb_per_batch": sum(stat.alloc_bytes for p in train
                                     for stat in p.op_stats.values()) / batches / 1e6,
        "nn.ops_per_miss": sum(stat.forward_calls for p in probe.profiles["miss"]
                               for stat in p.op_stats.values())
                           / record["profiled_misses"],
        "train.forward_ms": per_batch_ms(s["train.forward"]),
        "train.backward_ms": per_batch_ms(s["train.backward"]),
        "train.step_ms": per_batch_ms(s["train.step"]),
        "train.batch_wait_ms": per_batch_ms(record["train_seconds"] - tracked),
        "eval.filter_build_ms": 1e3 * s["eval.filter_build"] / setups,
        "eval.predict_ms_per_query": 1e3 * s["eval.predict"] / probe.items["eval.predict"],
        "eval.rank_ms_per_query": 1e3 * s["eval.rank"] / probe.items["eval.rank"],
        "serve.hit_share": record["hits"] / queries,
        "serve.rows_invalidated_per_append":
            record["rows_invalidated"] / record["appends"],
        "serve.hit_ms": record["hit_ms"],
        "serve.predict_p99_ms": record["predict_p99_ms"],
        # Every filtered exact top-k masks once and selects once.
        "serve.mask_topk_ms":
            1e3 * (s["serve.mask"] + s["serve.topk"]) / probe.calls["serve.topk"],
        "serve.model_ms_per_miss": ms("miss.predict"),
        "serve.bulk_model_ms_per_row":
            1e3 * s["bulk.predict"] / probe.items["bulk.predict"],
        "serve.bundle_load_ms": ms("serve.bundle_load"),
        "serve.filter_build_ms": ms("serve.filter_build"),
        "serve.export_s": s["serve.export"] / probe.calls["serve.export"],
        "stream.plan_ms": probe.steady_ms("stream.plan"),
        "stream.adopt_ms": ms("stream.adopt"),
        # The first plan also builds and calibrates the inductive encoder.
        "stream.encoder_build_ms":
            1e3 * probe.first["stream.plan"] - probe.steady_ms("stream.plan"),
        "datasets.generate_s": s["datasets.generate"] / setups,
        "mol.gin_pretrain_s": s["mol.gin_pretrain"] / setups,
        "text.encode_s": s["text.encode"] / setups,
        "gnn.compgcn_pretrain_s": s["gnn.compgcn_pretrain"] / setups,
    }
