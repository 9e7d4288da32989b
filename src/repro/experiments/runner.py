"""Shared experiment runner with in-process caching.

Several tables/figures need the same trained models (Table III provides
the trained CamE that Table IV, Fig. 7 and Fig. 8 reuse), so runs are
cached by ``(dataset, scale, model, seed, ...)``.  Everything is
deterministic given the seed.

All runner state — the feature/run caches plus the export/telemetry
directories — lives in a :class:`RunnerContext`.  Module-level helpers
(:func:`set_export_dir`, :func:`set_telemetry_dir`,
:func:`clear_run_cache`) operate on the shared default context so
existing call sites keep working; tests and long-lived services can pass
their own context to isolate state.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field

import numpy as np

from ..baselines import build_model
from ..datasets import ModalityFeatures, MultimodalKG, build_features, get_dataset
from ..eval import RankingMetrics
from ..obs import enable_tracing, trace
from ..train import BundleExport, Callback, EarlyStopping, JsonlTelemetry, TrainReport
from .scale import Scale

__all__ = ["RunResult", "RunnerContext", "get_prepared", "train_model",
           "clear_run_cache", "set_export_dir", "set_telemetry_dir",
           "set_trace_dir", "set_workers"]

logger = logging.getLogger("repro.experiments.runner")


@dataclass
class RunnerContext:
    """Everything the runner keeps between :func:`train_model` calls.

    Replaces the former module globals: the prepared-dataset and
    trained-run caches, the bundle ``export_dir`` (every run also writes
    a servable checkpoint bundle when set) and the ``telemetry_dir``
    (every *fresh* run writes a JSONL telemetry file when set — cache
    hits trained nothing, so they emit nothing).
    """

    feature_cache: dict[tuple, tuple[MultimodalKG, ModalityFeatures]] = \
        field(default_factory=dict)
    run_cache: dict[tuple, "RunResult"] = field(default_factory=dict)
    export_dir: str | None = None
    telemetry_dir: str | None = None
    #: Worker processes per training run (``repro.dist``); 1 trains
    #: in-process, bit-identically to the seed engine.
    workers: int = 1

    def clear(self) -> None:
        """Drop all cached runs and features (frees memory in long sessions)."""
        self.feature_cache.clear()
        self.run_cache.clear()


#: Shared context behind the module-level helper functions.
DEFAULT_CONTEXT = RunnerContext()


def set_export_dir(path: str | None) -> None:
    """Make every subsequent :func:`train_model` emit a serve bundle.

    ``None`` disables exporting.  Bundles land in
    ``<path>/<dataset>_<model>_<scale>_seed<seed>`` and can be loaded
    with ``repro.serve`` (``query`` / ``serve`` subcommands).
    """
    DEFAULT_CONTEXT.export_dir = path


def set_telemetry_dir(path: str | None) -> None:
    """Make every subsequent fresh :func:`train_model` write run telemetry.

    ``None`` disables it.  Each run writes
    ``<path>/<dataset>_<model>_<scale>_seed<seed>.jsonl`` with one JSON
    event per epoch/eval (see :class:`repro.train.JsonlTelemetry`).
    """
    DEFAULT_CONTEXT.telemetry_dir = path


def set_workers(workers: int) -> None:
    """Train every subsequent :func:`train_model` on ``workers`` processes.

    Values above 1 wrap each trainer in
    :class:`repro.dist.DistributedEngine` (data-parallel gradient
    averaging over forked workers) and run evaluation through its
    sharded evaluator; ``1`` restores the in-process engine.  This is
    the ``--workers N`` flag of ``python -m repro.experiments``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    DEFAULT_CONTEXT.workers = workers


def set_trace_dir(path: str | None) -> None:
    """Write ``repro.obs`` spans for everything the process runs next.

    Enables process-global tracing into ``<path>/trace.jsonl`` (training
    epochs, objective forward/backward, evaluator batches, ...);
    ``None`` turns tracing back off.  Summarize afterwards with
    ``python -m repro.obs report <path>/trace.jsonl``.
    """
    from ..obs import disable_tracing

    if path is None:
        disable_tracing()
        return
    os.makedirs(path, exist_ok=True)
    enable_tracing(os.path.join(path, "trace.jsonl"))


@dataclass
class RunResult:
    """A trained model plus its training trace and test metrics."""

    model_name: str
    dataset: str
    model: object
    report: TrainReport
    test_metrics: RankingMetrics


def get_prepared(dataset: str, scale: Scale, seed: int = 0,
                 context: RunnerContext | None = None) -> tuple[MultimodalKG, ModalityFeatures]:
    """Dataset + pre-trained modality features (cached)."""
    ctx = context if context is not None else DEFAULT_CONTEXT
    key = (dataset, scale.name, seed)
    if key not in ctx.feature_cache:
        mkg = get_dataset(dataset, scale=scale.dataset_scale, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        feats = build_features(
            mkg, rng, d_m=scale.feature_dim, d_t=scale.feature_dim,
            d_s=scale.feature_dim, gin_epochs=scale.pretrain_epochs,
            compgcn_epochs=scale.pretrain_epochs,
        )
        ctx.feature_cache[key] = (mkg, feats)
    return ctx.feature_cache[key]


def _epochs_for(model_name: str, scale: Scale) -> int:
    from ..baselines import MODEL_REGISTRY

    if model_name == "CamE":
        return scale.epochs_came
    spec = MODEL_REGISTRY[model_name]
    return scale.epochs_1ton if spec.regime == "1toN" else scale.epochs_neg


def _run_slug(model_name: str, dataset: str, scale: Scale, seed: int) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-",
                  f"{dataset}_{model_name}_{scale.name}_seed{seed}")


def train_model(model_name: str, dataset: str, scale: Scale, seed: int = 0,
                epochs: int | None = None, negatives_1ton: int | None = None,
                eval_batch_size: int = 128,
                export_bundle: str | None = None,
                early_stopping: int | None = None,
                callbacks: tuple[Callback, ...] | list[Callback] = (),
                workers: int | None = None,
                context: RunnerContext | None = None) -> RunResult:
    """Train ``model_name`` on ``dataset`` and evaluate on test (cached).

    ``eval_batch_size`` is threaded through to the trainer's epoch evals
    and the final test pass (the Fig. 9 scalability knob).  The final
    test eval reuses the trainer's ranking evaluator, so the filter is
    built exactly once for the whole run.

    ``early_stopping`` (an eval-patience count) attaches an
    :class:`repro.train.EarlyStopping` callback; ``callbacks`` appends
    arbitrary extra hooks (runs carrying custom callbacks are not
    cached, since the cache key cannot capture them).  When the
    context's ``telemetry_dir`` is set, each fresh run writes a JSONL
    telemetry file there.

    ``export_bundle`` writes a ``repro.serve`` checkpoint bundle of the
    trained model to the given path; independently, the context's
    ``export_dir`` (:func:`set_export_dir` / ``--export-bundle``) makes
    *every* run (cached or fresh) emit one, so any experiment doubles as
    a bundle factory.  Exported bundles embed the training report.

    ``workers`` (default: the context's ``workers``, i.e. ``--workers``)
    trains on that many ``repro.dist`` worker processes and shards the
    epoch/test evals across them; it is part of the cache key because a
    multi-worker negative-sampling run draws different corruption
    streams than the single-process one.
    """
    ctx = context if context is not None else DEFAULT_CONTEXT
    workers = workers if workers is not None else ctx.workers
    key = (model_name, dataset, scale.name, seed, epochs, negatives_1ton,
           eval_batch_size, early_stopping, workers)
    cacheable = not callbacks
    if cacheable and key in ctx.run_cache:
        result = ctx.run_cache[key]
        _maybe_export(result, scale, seed, export_bundle, ctx)
        return result
    mkg, feats = get_prepared(dataset, scale, seed, context=ctx)
    rng = np.random.default_rng(2000 + seed)
    model, trainer = build_model(model_name, mkg, feats, rng,
                                 dim=scale.model_dim,
                                 negatives_1ton=negatives_1ton)
    if workers > 1:
        from ..dist import DistributedEngine

        trainer = DistributedEngine.from_engine(trainer, world_size=workers)
    budget = epochs if epochs is not None else _epochs_for(model_name, scale)
    run_callbacks: list[Callback] = list(callbacks)
    if early_stopping:
        run_callbacks.append(EarlyStopping(patience=early_stopping))
    if ctx.telemetry_dir:
        slug = _run_slug(model_name, dataset, scale, seed)
        run_callbacks.append(JsonlTelemetry(
            os.path.join(ctx.telemetry_dir, f"{slug}.jsonl"), run_id=slug))
    with trace("runner.train_model", model=model_name, dataset=dataset,
               scale=scale.name, seed=seed):
        report = trainer.fit(budget, eval_every=scale.eval_every,
                             eval_max_queries=scale.eval_max_queries,
                             eval_batch_size=eval_batch_size,
                             callbacks=run_callbacks)
    metrics = trainer.evaluator.evaluate(model, part="test",
                                         max_queries=scale.test_max_queries,
                                         rng=np.random.default_rng(3000 + seed),
                                         batch_size=eval_batch_size)
    result = RunResult(model_name=model_name, dataset=dataset, model=model,
                       report=report, test_metrics=metrics)
    if cacheable:
        ctx.run_cache[key] = result
    _maybe_export(result, scale, seed, export_bundle, ctx)
    return result


def _maybe_export(result: RunResult, scale: Scale, seed: int,
                  export_bundle: str | None, ctx: RunnerContext) -> None:
    """Write serve bundles for a finished run (explicit path and/or dir)."""
    paths = []
    if export_bundle:
        paths.append(export_bundle)
    if ctx.export_dir:
        paths.append(os.path.join(
            ctx.export_dir,
            _run_slug(result.model_name, result.dataset, scale, seed)))
    if not paths:
        return
    mkg, feats = get_prepared(result.dataset, scale, seed, context=ctx)
    for path in paths:
        exporter = BundleExport(
            path, result.model_name, mkg.split, feats, dim=scale.model_dim,
            extra={"scale": scale.name, "seed": seed,
                   "test_metrics": result.test_metrics.as_row()})
        exporter.export(result.model, report=result.report)
        logger.info("exported bundle %s (%s on %s)", path,
                    result.model_name, result.dataset)


def clear_run_cache() -> None:
    """Drop the default context's cached runs and features."""
    DEFAULT_CONTEXT.clear()
