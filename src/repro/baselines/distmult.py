"""DistMult (Yang et al., 2015).

Bilinear scoring with a diagonal relation matrix:
``f(h, r, t) = <h, r, t> = sum_i h_i * r_i * t_i``.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .base import EmbeddingModel, inference_mode

__all__ = ["DistMult"]


class DistMult(EmbeddingModel):
    """DistMult trilinear-product scorer."""

    #: Candidate ranking is the inner product of ``h * r`` with the raw
    #: entity table — maximum-inner-product ANN search.
    ann_metric = "ip"

    def __init__(self, num_entities: int, num_relations: int, dim: int = 64,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(num_entities, num_relations, dim, rng=rng)

    def ann_queries(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        ent = self.entity_embedding.weight.data
        rel = self.relation_embedding.weight.data
        return ent[np.asarray(heads, dtype=np.int64)] * rel[np.asarray(rels, dtype=np.int64)]

    def score_cells(self, heads: np.ndarray, rels: np.ndarray,
                    tails: np.ndarray) -> np.ndarray:
        """Exact per-cell trilinear products.

        Mathematically identical to gathering the :meth:`predict_tails`
        row, evaluated as a per-row dot product rather than a GEMM
        column (may differ in the last float64 ulp).
        """
        with inference_mode(self):
            ent = self.entity_embedding.weight.data
            query = self.ann_queries(heads, rels)
            return np.einsum("bd,bd->b", query, ent[np.asarray(tails, np.int64)])

    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:
        h, r, t = self._gather(triples)
        return F.sum(F.mul(F.mul(h, r), t), axis=-1)

    def score_queries(self, heads: np.ndarray, rels: np.ndarray,
                      candidates: np.ndarray | None = None) -> nn.Tensor:
        """1-to-N scoring (DistMult also trains well in the ConvE regime)."""
        h = self.entity_embedding(heads)
        r = self.relation_embedding(rels)
        query = F.mul(h, r)
        if candidates is None:
            return F.matmul(query, F.transpose(self.entity_embedding.weight))
        cand = F.embedding(self.entity_embedding.weight, candidates)
        b, k = candidates.shape
        return F.reshape(F.matmul(cand, F.reshape(query, (b, -1, 1))), (b, k))

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            ent = self.entity_embedding.weight.data
            rel = self.relation_embedding.weight.data
            return (ent[heads] * rel[rels]) @ ent.T
