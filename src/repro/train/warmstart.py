"""Warm-start fine-tuning for streamed (appended) entities.

After ``repro.stream`` appends entities, their embedding rows come from
the inductive encoder — good enough to rank, but not trained.  This
module fine-tunes *only the appended rows* against the frozen backbone:

* :class:`FrozenRowsAdam` — an Adam variant that zeroes the gradient of
  every row below ``frozen_rows`` before stepping, so pre-existing rows
  stay **bit-identical** (zero grads keep the Adam moments at exactly
  zero, hence a literal ``-= 0.0`` update);
* :class:`WarmStartObjective` — trains on the appended triples only,
  dispatching to the model's native regime (1-to-N BCE for
  ``score_queries`` models, negative sampling otherwise);
* :func:`warm_start` — one-call convenience wiring both into a
  :class:`TrainingEngine`;
* :func:`export_row_delta` / :func:`apply_row_delta` — ship just the
  fine-tuned rows to another process (e.g. a pool replica or a saved
  bundle) instead of the whole state dict.

Only parameters whose leading dimension equals ``model.num_entities``
participate (``entity_embedding.weight`` everywhere, plus
``entity_bias`` for CamE); relation tables and dense layers are never
touched, which is what makes the backbone provably frozen.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .. import nn
from ..kg import KGSplit
from .engine import TrainingEngine
from .objectives import NegativeSamplingObjective, Objective, OneToNObjective
from .report import TrainReport

__all__ = [
    "FrozenRowsAdam",
    "WarmStartObjective",
    "entity_row_parameters",
    "warm_start",
    "export_row_delta",
    "apply_row_delta",
]


def entity_row_parameters(model) -> list[tuple[str, nn.Parameter]]:
    """Named parameters with one row per entity (the warm-startable set).

    A parameter qualifies when its leading dimension equals
    ``model.num_entities`` and it is not a relation table (guards the
    corner where ``2 * num_relations == num_entities``).
    """
    n = int(model.num_entities)
    rows = []
    for name, param in model.named_parameters():
        if "relation" in name:
            continue
        if param.data.ndim >= 1 and param.data.shape[0] == n:
            rows.append((name, param))
    if not rows:
        raise ValueError("model has no per-entity parameter rows to warm-start")
    return rows


class FrozenRowsAdam(nn.Adam):
    """Adam that never updates rows below ``frozen_rows``.

    The gradient slice ``[:frozen_rows]`` is zeroed in :meth:`step`
    before the parent update, so the first/second moments of frozen rows
    stay exactly zero and the applied update is exactly ``0.0`` — frozen
    rows remain bit-identical, not merely close.
    """

    def __init__(self, parameters: Iterable[nn.Parameter], frozen_rows: int,
                 lr: float = 1e-2, **kwargs) -> None:
        super().__init__(parameters, lr=lr, **kwargs)
        if frozen_rows < 0:
            raise ValueError(f"frozen_rows must be >= 0, got {frozen_rows}")
        self.frozen_rows = int(frozen_rows)

    def step(self) -> None:
        for p in self.parameters:
            if p.grad is not None:
                p.grad[: self.frozen_rows] = 0.0
        super().step()


class WarmStartObjective(Objective):
    """Fine-tune appended rows on the appended triples only.

    Wraps the model's native regime over a *delta split* whose training
    set is just the appended triples (the graph — hence entity count and
    negative-sampling range — is the full grown graph).  Pair with
    :class:`FrozenRowsAdam` restricted to :func:`entity_row_parameters`
    so the shared backbone cannot drift even though candidate scoring
    touches every entity row.
    """

    name = "warm-start"

    def __init__(self, appended: np.ndarray, *, batch_size: int = 64,
                 label_smoothing: float = 0.1, num_negatives: int = 8) -> None:
        self.appended = np.asarray(appended, dtype=np.int64).reshape(-1, 3)
        self.batch_size = batch_size
        self.label_smoothing = label_smoothing
        self.num_negatives = num_negatives
        self.inner: Objective | None = None

    def prepare(self, model, split: KGSplit, rng: np.random.Generator) -> None:
        if not len(self.appended):
            raise ValueError("warm start requires at least one appended triple")
        if int(self.appended[:, [0, 2]].max()) >= split.num_entities:
            raise ValueError("appended triples reference entities beyond the "
                             "graph; apply the stream delta first")
        delta_split = KGSplit(graph=split.graph, train=self.appended,
                              valid=self.appended, test=self.appended)
        if hasattr(model, "score_queries"):
            self.inner = OneToNObjective(batch_size=self.batch_size,
                                         label_smoothing=self.label_smoothing)
        else:
            self.inner = NegativeSamplingObjective(
                batch_size=self.batch_size, num_negatives=self.num_negatives)
        self.inner.prepare(model, delta_split, rng)

    def batches(self):
        return self.inner.batches()

    def loss(self, model, batch):
        return self.inner.loss(model, batch)


def warm_start(model, split: KGSplit, appended: np.ndarray, *,
               old_num_entities: int, epochs: int = 5, lr: float = 1e-2,
               rng: np.random.Generator | None = None, grad_clip: float = 5.0,
               batch_size: int = 64, num_negatives: int = 8) -> TrainReport:
    """Fine-tune the rows of entities >= ``old_num_entities`` in place.

    Returns the :class:`TrainReport` from the underlying engine.  All
    parameters outside :func:`entity_row_parameters` — and all rows
    below ``old_num_entities`` — are bit-identical afterwards.
    """
    gen = rng if rng is not None else np.random.default_rng(0)
    params = [p for _, p in entity_row_parameters(model)]
    optimizer = FrozenRowsAdam(params, frozen_rows=old_num_entities, lr=lr)
    objective = WarmStartObjective(appended, batch_size=batch_size,
                                   num_negatives=num_negatives)
    engine = TrainingEngine(model, split, gen, objective,
                            optimizer=optimizer, grad_clip=grad_clip)
    # Eval-mode forward (autograd stays on): batch-norm reads its frozen
    # running statistics instead of updating them, and dropout is off —
    # otherwise BN buffers would drift and the backbone would not be
    # bit-identical after fine-tuning.
    # A served model is already in eval mode and is left untouched, so a
    # concurrent scorer never sees its mode flip.
    training = getattr(model, "training", False)
    if training:
        model.eval()
    try:
        return engine.fit(epochs, eval_every=None, keep_best=False)
    finally:
        if training:
            model.train(True)


def export_row_delta(model, old_num_entities: int) -> dict:
    """Extract the appended rows of every warm-startable parameter.

    The result is a small JSON-shaped dict (arrays stay ndarrays) that
    :func:`apply_row_delta` can replay onto any same-shaped model — the
    streamed-update analogue of shipping a full state dict.
    """
    n = int(model.num_entities)
    if not 0 <= old_num_entities <= n:
        raise ValueError(f"old_num_entities {old_num_entities} outside [0, {n}]")
    state = {name: param.data[old_num_entities:].copy()
             for name, param in entity_row_parameters(model)}
    return {"old_num_entities": int(old_num_entities), "num_entities": n,
            "state": state}


def apply_row_delta(model, delta: dict) -> list[str]:
    """Write a :func:`export_row_delta` payload onto ``model`` in place.

    The model must already be grown to ``delta["num_entities"]`` (i.e.
    the stream append must have been applied); only the rows above
    ``old_num_entities`` are assigned.  Returns the parameter names
    updated.
    """
    start = int(delta["old_num_entities"])
    total = int(delta["num_entities"])
    if int(model.num_entities) != total:
        raise ValueError(
            f"model has {model.num_entities} entities but the delta targets "
            f"{total}; apply the matching stream append first")
    params = dict(entity_row_parameters(model))
    updated = []
    for name, rows in delta["state"].items():
        if name not in params:
            raise KeyError(f"row delta names unknown parameter {name!r}")
        target = params[name].data
        if target[start:].shape != rows.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: model rows "
                f"{target[start:].shape}, delta {rows.shape}")
        target[start:] = rows
        updated.append(name)
    return updated
