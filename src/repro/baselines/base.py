"""Shared infrastructure for the baseline KG-completion models.

Two training regimes cover all baselines, matching the original codes
the paper used; both run on the one :class:`repro.train.TrainingEngine`
with a pluggable objective:

* :class:`repro.train.NegativeSamplingObjective` — the RotatE-codebase
  regime (TransE / DistMult / ComplEx / RotatE / a-RotatE / PairRE /
  DualE and the multimodal translational models): positive triples vs
  sampled corruptions under the log-sigmoid loss, optionally with
  self-adversarial negative weighting (Sun et al., 2019).  Models
  implement ``triple_scores(triples) -> Tensor``.
* :class:`repro.train.OneToNObjective` — the ConvE regime (ConvE,
  CompGCN, MKGformer and CamE itself): 1-to-N scoring with BCE.
  Models implement ``score_queries(heads, rels, candidates=None)``.

:func:`repro.baselines.build_model` pairs each model with its regime.
Every model exposes ``predict_tails(heads, rels) -> (B, num_entities)``
float64 scores so the evaluation protocol treats all of them
identically.  All models allocate ``2x`` relation embeddings for inverse
relations and are trained on inverse-augmented triples, so head-side
queries rank through ``r + num_relations``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import nn
# ``inference_mode`` lives in repro.nn (so repro.core can use it too) and
# is re-exported here: every baseline ``predict_tails`` must run inside it
# — autograd off, dropout/batch-norm in eval mode — so the pattern
# ``CamE.predict_tails`` established cannot drift.
from ..nn import inference_mode

__all__ = [
    "EmbeddingModel",
    "inference_mode",
    "chunked_entity_scores",
]


def chunked_entity_scores(
    num_queries: int,
    num_entities: int,
    dim: int,
    block_fn: Callable[[int, int], np.ndarray],
    budget: int = 4_000_000,
) -> np.ndarray:
    """Fill a ``(num_queries, num_entities)`` score matrix chunk by chunk.

    Translational models materialise a ``(B, C, dim)`` difference tensor
    per candidate chunk; ``budget`` caps that intermediate's element
    count so memory stays bounded at DRKG-MM scale (~100k entities).
    ``block_fn(start, stop)`` returns the scores for candidate columns
    ``[start, stop)``.
    """
    out = np.empty((num_queries, num_entities))
    chunk = max(1, budget // max(1, num_queries * dim))
    for start in range(0, num_entities, chunk):
        stop = min(num_entities, start + chunk)
        out[:, start:stop] = block_fn(start, stop)
    return out


class EmbeddingModel(nn.Module):
    """Base class holding entity/relation embedding tables.

    Subclasses implement :meth:`triple_scores` (autograd, for training)
    and :meth:`predict_tails` (numpy, inference).  ``relation_factor``
    lets models that need several vectors per relation (PairRE, DualE)
    widen the relation table.

    **Approximate-serving hooks.**  Models whose candidate ranking is a
    fixed metric between a per-``(h, r)`` query vector and the entity
    table opt into ANN candidate generation (:mod:`repro.ann`) by
    setting :attr:`ann_metric` and implementing :meth:`ann_queries`;
    :meth:`ann_vectors` supplies the indexed table (the raw entity
    embedding by default).  Models with a cheap exact per-triple path
    additionally implement ``score_cells(heads, rels, tails)`` — the
    serving layer uses it both to rerank probed candidates exactly and
    to score explicit triples without materialising ``(B, E)`` rows.
    Models that set neither are served through the exact full-row path.
    """

    #: ANN index metric this model ranks under (``"l1"`` / ``"l2"`` /
    #: ``"ip"``), or ``None`` when approximate candidate generation is
    #: unsupported and serving must use the exact path.
    ann_metric: str | None = None

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 rng: np.random.Generator | None = None,
                 relation_factor: int = 1, entity_factor: int = 1) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        self.entity_embedding = nn.Embedding(num_entities, dim * entity_factor, rng=gen)
        self.relation_embedding = nn.Embedding(2 * num_relations,
                                               dim * relation_factor, rng=gen)

    # Subclass hooks ----------------------------------------------------
    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:  # pragma: no cover
        raise NotImplementedError

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    # Approximate-serving hooks ----------------------------------------
    def ann_vectors(self) -> np.ndarray:
        """The entity-side table an ANN index should be built over.

        Rows must be laid out so that :meth:`ann_queries` vectors are
        directly comparable under :attr:`ann_metric`.
        """
        return self.entity_embedding.weight.data

    def ann_queries(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        """Per-query vectors in :meth:`ann_vectors` layout (``(B, d)``).

        Only meaningful when :attr:`ann_metric` is set; the base class
        has no model-generic query transform.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support ANN candidate generation")

    # Helpers -----------------------------------------------------------
    def _gather(self, triples: np.ndarray) -> tuple[nn.Tensor, nn.Tensor, nn.Tensor]:
        """Embed the head/relation/tail columns of a triple batch."""
        return (
            self.entity_embedding(triples[:, 0]),
            self.relation_embedding(triples[:, 1]),
            self.entity_embedding(triples[:, 2]),
        )
