"""The unified training engine behind every trainer in the repo.

One :class:`TrainingEngine` owns the epoch loop, optimiser step,
gradient clipping and the lazy shared
:class:`~repro.eval.RankingEvaluator`; the training *regime* is a
pluggable :class:`~repro.train.objectives.Objective` and every
cross-cutting feature (timing, eval history, best-state checkpointing,
early stopping, LR schedules, JSONL telemetry, bundle export) is a
:class:`~repro.train.callbacks.Callback`.

It is the only training loop: CamE and every baseline train by
constructing it with an objective.  A golden parity test in
``tests/train`` pins its seeded losses, metrics and best state bit for
bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..eval import RankingEvaluator, RankingMetrics
from ..kg import KGSplit
from ..obs import trace
from .callbacks import BestStateCheckpoint, Callback, ProgressLogging
from .objectives import Objective
from .report import TrainReport

__all__ = ["TrainState", "TrainingEngine"]


@dataclass
class TrainState:
    """Mutable per-``fit`` state shared between the loop and callbacks.

    Callbacks read progress from here and signal back by setting
    ``stop`` (ends training after the current epoch).  ``metrics`` and
    ``elapsed`` refer to the most recent eval; ``loss`` to the most
    recent epoch.
    """

    engine: "TrainingEngine"
    report: TrainReport
    epochs: int
    epoch: int = 0
    loss: float = float("nan")
    metrics: RankingMetrics | None = None
    elapsed: float = 0.0
    stop: bool = False

    @property
    def model(self):
        return self.engine.model

    @property
    def optimizer(self):
        return self.engine.optimizer


class TrainingEngine:
    """Objective-agnostic training loop with callback hooks.

    Parameters
    ----------
    model:
        Anything the objective can score; for checkpointing it should
        also expose ``state_dict``/``load_state_dict``.
    split:
        Dataset partition (the objective handles inverse augmentation).
    rng:
        Batching/negative-sampling/eval-subsampling randomness.  The
        engine consumes it in exactly the order the seed trainers did.
    objective:
        The training regime; :meth:`Objective.prepare` is called here.
    lr, grad_clip:
        Adam learning rate and global-norm gradient clip (0 disables).
    optimizer:
        Optional pre-built optimiser (replaces the default Adam).
    callbacks:
        Engine-level callbacks, run on every ``fit`` before any
        fit-level callbacks.
    """

    def __init__(self, model, split: KGSplit, rng: np.random.Generator,
                 objective: Objective, *, lr: float = 1e-3,
                 grad_clip: float = 5.0, optimizer: nn.Optimizer | None = None,
                 callbacks: tuple[Callback, ...] | list[Callback] = ()) -> None:
        self.model = model
        self.split = split
        self.rng = rng
        self.objective = objective
        self.grad_clip = grad_clip
        self.optimizer = (optimizer if optimizer is not None
                          else nn.Adam(list(model.parameters()), lr=lr))
        self.callbacks = list(callbacks)
        self._evaluator: RankingEvaluator | None = None
        self._active_state: TrainState | None = None
        self._active_callbacks: tuple[Callback, ...] = ()
        objective.prepare(model, split, rng)

    # ------------------------------------------------------------------
    # Objective internals, exposed for callers that tune or inspect them
    # ------------------------------------------------------------------
    def _from_objective(self, attr: str):
        value = getattr(self.objective, attr, None)
        if value is None:
            raise AttributeError(
                f"objective {self.objective.name!r} has no {attr!r}")
        return value

    @property
    def batcher(self):
        """The 1-to-N query batcher (1-to-N objectives only)."""
        return self._from_objective("batcher")

    @property
    def sampler(self):
        """The negative sampler (negative-sampling objectives only)."""
        return self._from_objective("sampler")

    @property
    def train_triples(self):
        """Inverse-augmented training triples (negative-sampling only)."""
        return self._from_objective("train_triples")

    @property
    def evaluator(self) -> RankingEvaluator:
        """Shared filtered-ranking evaluator (filter built on first use).

        Constructed at most once per engine, so every epoch eval inside
        :meth:`fit` — and any post-training evaluation that reuses it —
        shares a single CSR filter construction.
        """
        if self._evaluator is None:
            self._evaluator = RankingEvaluator(self.split)
        return self._evaluator

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_epoch(self) -> float:
        """One pass over the objective's batches; returns mean batch loss."""
        losses = []
        for batch in self.objective.batches():
            self.optimizer.zero_grad()
            with trace("train.forward", objective=self.objective.name):
                loss = self.objective.loss(self.model, batch)
            with trace("train.backward"):
                loss.backward()
            with trace("train.step"):
                if self.grad_clip:
                    nn.clip_grad_norm(self.optimizer.parameters, self.grad_clip)
                self.optimizer.step()
            losses.append(float(loss.data))
        return float(np.mean(losses)) if losses else float("nan")

    def fit(self, epochs: int, eval_every: int | None = None,
            eval_part: str = "valid", eval_max_queries: int | None = 200,
            eval_batch_size: int = 128, keep_best: bool = True,
            verbose: bool = False,
            callbacks: tuple[Callback, ...] | list[Callback] = ()) -> TrainReport:
        """Train for up to ``epochs``; returns the accumulated report.

        Epochs whose index is a multiple of ``eval_every`` — plus the
        final epoch — are evaluated on ``eval_part`` (filtered ranking,
        one shared CSR filter per engine); ``eval_batch_size`` bounds the
        ``(B, num_entities)`` score blocks the evaluator requests — the
        knob Fig. 9 scalability runs tune.  ``keep_best`` checkpoints and
        finally restores the best state by valid Hits@10 (as the paper
        does); a callback setting ``state.stop`` ends training early.
        Hooks fire in order: internal (best-state, logging), then
        engine-level, then fit-level ``callbacks``.
        """
        report = TrainReport()
        state = TrainState(engine=self, report=report, epochs=epochs)
        stack: list[Callback] = []
        if keep_best:
            stack.append(BestStateCheckpoint())
        stack.append(ProgressLogging(verbose=verbose))
        stack.extend(self.callbacks)
        stack.extend(callbacks)
        # Expose the live fit context so hooks that fire from *inside*
        # train_epoch — e.g. repro.dist dispatching on_worker_error when
        # a worker process dies mid-epoch — reach the same state and
        # callback stack the loop uses.
        self._active_state = state
        self._active_callbacks = tuple(stack)

        for callback in stack:
            callback.on_fit_start(state)
        start = time.perf_counter()
        try:
            for epoch in range(1, epochs + 1):
                tick = time.perf_counter()
                with trace("train.epoch", epoch=epoch):
                    loss = self.train_epoch()
                report.epoch_seconds.append(time.perf_counter() - tick)
                report.epoch_losses.append(loss)
                state.epoch = epoch
                state.loss = loss
                if eval_every and (epoch % eval_every == 0 or epoch == epochs):
                    metrics = self.evaluator.evaluate(
                        self.model, part=eval_part,
                        max_queries=eval_max_queries, rng=self.rng,
                        batch_size=eval_batch_size,
                    )
                    state.metrics = metrics
                    state.elapsed = time.perf_counter() - start
                    report.eval_history.append((epoch, state.elapsed, metrics))
                    for callback in stack:
                        callback.on_eval(state)
                for callback in stack:
                    callback.on_epoch_end(state)
                if state.stop:
                    break
        except BaseException as exc:
            # A crashed fit must still leave usable artifacts (flushed
            # telemetry, metric snapshots): give every callback a chance
            # to finalize, then re-raise the original failure.  Hook
            # errors are swallowed so they cannot mask it.
            for callback in stack:
                try:
                    callback.on_fit_error(state, exc)
                except Exception:  # noqa: BLE001 - never shadow the crash
                    pass
            raise
        for callback in stack:
            callback.on_fit_end(state)
        return report
