"""PairRE (Chao et al., 2021).

Each relation owns a *pair* of vectors ``(r_H, r_T)``; entities are
L2-normalised and the score is ``gamma - ||h o r_H - t o r_T||_1``.
The paired representation encodes complex relations and multiple
relation patterns simultaneously.  Trained with self-adversarial
negatives, as in the original.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .base import EmbeddingModel, chunked_entity_scores, inference_mode

__all__ = ["PairRE"]


class PairRE(EmbeddingModel):
    """PairRE with L2-normalised entities and paired relation vectors."""

    def __init__(self, num_entities: int, num_relations: int, dim: int = 64,
                 gamma: float = 12.0, rng: np.random.Generator | None = None) -> None:
        super().__init__(num_entities, num_relations, dim, rng=rng, relation_factor=2)
        self.gamma = gamma

    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:
        h, r, t = self._gather(triples)
        h = F.l2_normalize(h)
        t = F.l2_normalize(t)
        d = self.dim
        r_head, r_tail = r[:, :d], r[:, d:]
        distance = F.sum(F.abs(F.sub(F.mul(h, r_head), F.mul(t, r_tail))), axis=-1)
        return F.sub(self.gamma, distance)

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            ent = self.entity_embedding.weight.data
            ent = ent / (np.linalg.norm(ent, axis=1, keepdims=True) + 1e-12)
            rel = self.relation_embedding.weight.data[rels]
            d = self.dim
            query = ent[heads] * rel[:, :d]        # (B, d)

            def block(start: int, stop: int) -> np.ndarray:
                tails = ent[start:stop][None, :, :] * rel[:, None, d:]
                return self.gamma - np.abs(query[:, None, :] - tails).sum(axis=-1)

            return chunked_entity_scores(len(heads), self.num_entities, d, block)
