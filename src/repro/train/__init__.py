"""``repro.train`` — the unified training engine.

One :class:`TrainingEngine` owns the epoch loop for every model in the
repo; the regime is a pluggable :class:`Objective`
(:class:`OneToNObjective` for the ConvE/CamE BCE path,
:class:`NegativeSamplingObjective` for the RotatE log-sigmoid path) and
cross-cutting features are :class:`Callback` hooks:

* :class:`BestStateCheckpoint` — best-by-Hits@10 checkpoint + restore;
* :class:`ProgressLogging` — progress under the ``repro.train`` logger;
* :class:`EarlyStopping` — patience-based stop on the eval criterion;
* :class:`LRScheduling` — epoch-indexed learning-rate schedules;
* :class:`JsonlTelemetry` — one JSONL event per epoch/eval per run,
  crash-safe (``fit_error`` event + handle close on failure);
* :class:`MetricsCallback` — progress onto a ``repro.obs`` registry;
* :class:`BundleExport` — ``repro.serve`` checkpoint bundle at fit end.

There is no other training loop; see DESIGN.md §8.
"""

from .callbacks import (
    BestStateCheckpoint,
    BundleExport,
    Callback,
    EarlyStopping,
    JsonlTelemetry,
    LRScheduling,
    MetricsCallback,
    ProgressLogging,
    read_telemetry,
)
from .engine import TrainingEngine, TrainState
from .objectives import NegativeSamplingObjective, Objective, OneToNObjective
from .report import TrainReport
from .warmstart import (
    FrozenRowsAdam,
    WarmStartObjective,
    apply_row_delta,
    entity_row_parameters,
    export_row_delta,
    warm_start,
)

__all__ = [
    "TrainingEngine",
    "TrainState",
    "TrainReport",
    "Objective",
    "OneToNObjective",
    "NegativeSamplingObjective",
    "Callback",
    "BestStateCheckpoint",
    "ProgressLogging",
    "EarlyStopping",
    "LRScheduling",
    "JsonlTelemetry",
    "MetricsCallback",
    "BundleExport",
    "read_telemetry",
    "FrozenRowsAdam",
    "WarmStartObjective",
    "entity_row_parameters",
    "warm_start",
    "export_row_delta",
    "apply_row_delta",
]
