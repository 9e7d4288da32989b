"""Applying appends: plan (validate, no mutation) then commit (grow).

The two-phase split is the crash-safety story: :func:`plan_append`
resolves every reference and derives every new table row *without
touching* the model or vocabulary, so a request that fails validation
leaves the serving state untouched.  :func:`commit_append` then grows
the tables in a safe order — **model first, vocabulary second** — so a
concurrent reader can never resolve a new name to an id beyond the
embedding-table rows.

Three entry points share the phases:

* :func:`apply_append` — the live-engine path of both serving tiers
  (the pool applies it to its parent engine, then republishes replicas
  from it).  The commit runs inside
  :meth:`PredictionEngine.adopt_append`, which holds the engine lock
  while it grows the model, bumps the entity count, drops stale cached
  score rows, and folds the appended triples into the known-triple
  filter;
* :func:`apply_append_to_model` — the offline path (CLI re-export),
  mutating a bare model + split and optionally growing the bundle's
  feature matrices;
* :func:`plan_append` / :func:`commit_append` — the phases themselves.

Appends are serialised per process by a module lock: generation numbers
are assigned at commit time and must be monotonic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..datasets.features import ModalityFeatures
from ..kg import KGSplit
from ..obs import trace
from .delta import AppendDelta, EntitySpec, StreamError, parse_append_request
from .inductive import InductiveEncoder, InductiveRows
from .metrics import StreamMetrics

__all__ = ["AppendPlan", "apply_append", "apply_append_to_model",
           "commit_append", "default_encoder", "grow_features", "plan_append"]

#: One append at a time per process: generations are assigned at commit
#: and the vocabulary/model growth must observe them in order.
_APPLY_LOCK = threading.RLock()


@dataclass
class AppendPlan:
    """A validated, fully-resolved append — nothing mutated yet."""

    split: KGSplit
    specs: list[EntitySpec]
    new_ids: list[int]
    old_num_entities: int
    triples: np.ndarray                # (n, 3) int64, resolved
    rows: InductiveRows | None         # None for triple-only appends

    @property
    def num_new_entities(self) -> int:
        return len(self.specs)

    def touched_keys(self) -> list[tuple[int, int]]:
        """``(h, r)`` score-row keys whose filter set this append changes.

        Both query directions: ``(h, r)`` and ``(t, r + R)`` per triple,
        mirroring the CSR filter's coverage, de-duplicated in first-seen
        order.
        """
        num_relations = self.split.num_relations
        keys: dict[tuple[int, int], None] = {}
        for h, r, t in self.triples.tolist():
            keys[(int(h), int(r))] = None
            keys[(int(t), int(r) + num_relations)] = None
        return list(keys)


def _resolve_entity(token, vocab, pending: dict[str, int], total: int) -> int:
    if isinstance(token, (int, np.integer)) or (
            isinstance(token, str) and token.isdigit()):
        idx = int(token)
        if not 0 <= idx < total:
            raise StreamError(
                400, "unknown_entity",
                f"entity id {idx} out of range ({total} entities after "
                "this append)")
        return idx
    if not isinstance(token, str):
        raise StreamError(400, "bad_request",
                          f"entity reference must be a name or id, "
                          f"got {type(token).__name__}")
    got = vocab.get(token)
    if got is None:
        got = pending.get(token)
    if got is None:
        try:
            vocab.resolve(token)      # unreachable success; raises with hints
        except KeyError as exc:
            raise StreamError(400, "unknown_entity", exc.args[0]) from None
    return got


def _resolve_relation(token, relations) -> int:
    try:
        return relations.resolve(token)
    except KeyError as exc:
        raise StreamError(400, "unknown_relation", exc.args[0]) from None
    except IndexError as exc:
        raise StreamError(400, "unknown_relation", exc.args[0]) from None


def default_encoder(model, split: KGSplit, *,
                    features: ModalityFeatures | None = None) -> InductiveEncoder:
    """Inductive encoder calibrated on the bundle's own entity names."""
    return InductiveEncoder(model, features=features,
                            calibration_texts=split.graph.entities.names())


def plan_append(model, split: KGSplit, specs: list[EntitySpec], raw_triples,
                *, encoder: InductiveEncoder) -> AppendPlan:
    """Resolve and validate one append batch.  Mutates nothing.

    New entity names must be genuinely unseen (409 otherwise); triples
    may reference existing entities/relations by name or id and the new
    entities by name (their ids are assigned here, contiguously after
    the current table).  Relations are fixed at training time, so only
    existing relations resolve.
    """
    vocab = split.graph.entities
    conflicts = sorted({s.name for s in specs if s.name in vocab})
    if conflicts:
        raise StreamError(409, "conflict",
                          f"entities already registered: {conflicts}")
    old = len(vocab)
    total = old + len(specs)
    pending = {s.name: old + i for i, s in enumerate(specs)}
    resolved = np.empty((len(raw_triples), 3), dtype=np.int64)
    for i, (h, r, t) in enumerate(raw_triples):
        resolved[i, 0] = _resolve_entity(h, vocab, pending, total)
        resolved[i, 1] = _resolve_relation(r, split.graph.relations)
        resolved[i, 2] = _resolve_entity(t, vocab, pending, total)
    rows = encoder.encode_entities(specs, resolved, old) if specs else None
    return AppendPlan(split=split, specs=specs,
                      new_ids=[old + i for i in range(len(specs))],
                      old_num_entities=old, triples=resolved, rows=rows)


def commit_append(model, plan: AppendPlan, *, generation: int,
                  source: str = "api") -> AppendDelta:
    """Grow the model tables and the vocabulary.  Model grows FIRST.

    The ordering invariant: a reader that resolves a name through the
    vocabulary must find the corresponding embedding row already in
    place, so table growth precedes :meth:`Vocabulary.extend`.  Callers
    on a live engine must hold the engine lock (``adopt_append`` does).
    """
    n = plan.num_new_entities
    if n:
        rows = plan.rows
        emb = model.entity_embedding
        table = np.asarray(emb.weight.data)
        emb.weight.data = np.concatenate(
            [table, rows.entity.astype(table.dtype, copy=False)])
        emb.num_embeddings = emb.weight.data.shape[0]
        bias = getattr(model, "entity_bias", None)
        if bias is not None and rows.bias is not None:
            bias.data = np.concatenate(
                [np.asarray(bias.data), rows.bias.astype(bias.data.dtype)])
        for attr, new_rows in (("h_m_table", rows.molecular),
                               ("h_t_table", rows.textual),
                               ("h_s_table", rows.structural)):
            existing = getattr(model, attr, None)
            if existing is not None and new_rows is not None:
                existing = np.asarray(existing)
                setattr(model, attr, np.concatenate(
                    [existing, new_rows.astype(existing.dtype, copy=False)]))
        model.num_entities = int(model.num_entities) + n
    try:
        plan.split.graph.entities.extend([s.name for s in plan.specs])
    except ValueError as exc:
        raise StreamError(409, "conflict", str(exc)) from None
    if plan.split.graph.entity_types and n:
        plan.split.graph.entity_types.extend(
            s.entity_type for s in plan.specs)
    return AppendDelta(
        generation=int(generation),
        entity_names=[s.name for s in plan.specs],
        entity_ids=list(plan.new_ids),
        triples=plan.triples,
        old_num_entities=plan.old_num_entities,
        num_entities=plan.old_num_entities + n,
        source=source,
        entity_types=[s.entity_type for s in plan.specs])


def grow_features(features: ModalityFeatures | None,
                  plan: AppendPlan) -> ModalityFeatures | None:
    """Extended feature matrices for bundle re-export (a new object)."""
    if features is None or plan.rows is None:
        return features
    rows = plan.rows
    return ModalityFeatures(
        molecular=np.concatenate([features.molecular, rows.molecular]),
        textual=np.concatenate([features.textual, rows.textual]),
        structural=np.concatenate([features.structural, rows.structural]),
        has_molecule=np.concatenate([features.has_molecule,
                                     rows.has_molecule]))


def apply_append_to_model(model, split: KGSplit, body, *,
                          encoder: InductiveEncoder | None = None,
                          features: ModalityFeatures | None = None,
                          generation: int = 1, source: str = "cli",
                          ) -> tuple[AppendDelta, ModalityFeatures | None]:
    """Offline append: parse → plan → commit against a bare model/split.

    Returns the delta plus grown feature matrices (``None`` when the
    caller passed none).  Used by the CLI re-export path.
    """
    specs, raw_triples = parse_append_request(body)
    with _APPLY_LOCK:
        if encoder is None:
            encoder = default_encoder(model, split, features=features)
        plan = plan_append(model, split, specs, raw_triples, encoder=encoder)
        delta = commit_append(model, plan, generation=generation,
                              source=source)
        return delta, grow_features(features, plan)


def apply_append(engine, body, *, source: str = "api") -> AppendDelta:
    """Live append against a :class:`~repro.serve.PredictionEngine`.

    The commit runs as the ``grow`` thunk of
    :meth:`PredictionEngine.adopt_append`, so model growth, the entity
    count bump, score-cache invalidation, and the filter fold are all
    atomic under the engine lock; concurrent queries see either the old
    world or the new one, never a torn mix.  Also refreshes the ANN
    staleness gauge and triggers the rebuild-threshold policy.
    """
    specs, raw_triples = parse_append_request(body)
    with _APPLY_LOCK, trace("stream.append", entities=len(specs),
                            triples=len(raw_triples)):
        encoder = getattr(engine, "_stream_encoder", None)
        if encoder is None:
            encoder = default_encoder(engine.model, engine.split)
            engine._stream_encoder = encoder
        plan = plan_append(engine.model, engine.split, specs, raw_triples,
                           encoder=encoder)
        generation = int(engine.stream_generation) + 1
        committed: dict[str, AppendDelta] = {}

        def grow() -> None:
            committed["delta"] = commit_append(
                engine.model, plan, generation=generation, source=source)

        engine.adopt_append(grow, plan.num_new_entities, plan.triples,
                            touched_keys=plan.touched_keys())
        delta = committed["delta"]
        engine.stream_generation = delta.generation
        StreamMetrics(engine.metrics).record(delta)
        return delta
