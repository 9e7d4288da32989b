"""TransE (Bordes et al., 2013).

Relations are translations: a true triple satisfies ``h + r ~ t``.  The
score is ``gamma - ||h + r - t||_1`` so higher means more plausible.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .base import EmbeddingModel, chunked_entity_scores, inference_mode

__all__ = ["TransE"]


class TransE(EmbeddingModel):
    """TransE with L1 distance and a fixed margin ``gamma``."""

    #: Candidate ranking is the L1 distance between ``h + r`` and the
    #: raw entity table, so an "l1" ANN index serves it directly.
    ann_metric = "l1"

    def __init__(self, num_entities: int, num_relations: int, dim: int = 64,
                 gamma: float = 12.0, rng: np.random.Generator | None = None) -> None:
        super().__init__(num_entities, num_relations, dim, rng=rng)
        self.gamma = gamma

    def ann_queries(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        ent = self.entity_embedding.weight.data
        rel = self.relation_embedding.weight.data
        return ent[np.asarray(heads, dtype=np.int64)] + rel[np.asarray(rels, dtype=np.int64)]

    def score_cells(self, heads: np.ndarray, rels: np.ndarray,
                    tails: np.ndarray) -> np.ndarray:
        """Exact scores for explicit cells, bit-identical to the
        corresponding :meth:`predict_tails` row entries (same float64
        operations in the same reduction order)."""
        with inference_mode(self):
            ent = self.entity_embedding.weight.data
            query = self.ann_queries(heads, rels)
            return self.gamma - np.abs(query - ent[np.asarray(tails, np.int64)]).sum(axis=-1)

    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:
        h, r, t = self._gather(triples)
        distance = F.sum(F.abs(F.sub(F.add(h, r), t)), axis=-1)
        return F.sub(self.gamma, distance)

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            ent = self.entity_embedding.weight.data
            rel = self.relation_embedding.weight.data
            query = ent[heads] + rel[rels]                   # (B, d)

            def block(start: int, stop: int) -> np.ndarray:
                diff = np.abs(query[:, None, :] - ent[None, start:stop, :])
                return self.gamma - diff.sum(axis=-1)

            # Chunk over candidates to bound the (B, C, d) intermediate.
            return chunked_entity_scores(len(heads), self.num_entities,
                                         self.dim, block)
