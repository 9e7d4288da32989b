"""ComplEx (Trouillon et al., 2016).

Extends DistMult to the complex plane so antisymmetric relations are
expressible: ``f(h, r, t) = Re(<h, r, conj(t)>)``.  Embeddings store the
real and imaginary halves in one ``2*dim`` vector.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .base import EmbeddingModel, inference_mode

__all__ = ["ComplEx"]


class ComplEx(EmbeddingModel):
    """ComplEx scorer; ``dim`` counts complex components."""

    #: ``Re(<h, r, conj(t)>) = q_re . t_re + q_im . t_im`` — an inner
    #: product of the rotated-query vector against the entity table in
    #: its native ``[re || im]`` layout.
    ann_metric = "ip"

    def __init__(self, num_entities: int, num_relations: int, dim: int = 32,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(num_entities, num_relations, dim, rng=rng,
                         relation_factor=2, entity_factor=2)

    def ann_queries(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        ent = self.entity_embedding.weight.data
        rel = self.relation_embedding.weight.data
        d = self.dim
        heads = np.asarray(heads, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        h_re, h_im = ent[heads, :d], ent[heads, d:]
        r_re, r_im = rel[rels, :d], rel[rels, d:]
        return np.concatenate(
            [h_re * r_re - h_im * r_im, h_re * r_im + h_im * r_re], axis=-1)

    def score_cells(self, heads: np.ndarray, rels: np.ndarray,
                    tails: np.ndarray) -> np.ndarray:
        """Exact per-cell scores (per-row dot instead of a GEMM column)."""
        with inference_mode(self):
            ent = self.entity_embedding.weight.data
            query = self.ann_queries(heads, rels)
            return np.einsum("bd,bd->b", query, ent[np.asarray(tails, np.int64)])

    @staticmethod
    def _split(x: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        d = x.shape[-1] // 2
        return x[:, :d], x[:, d:]

    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:
        h, r, t = self._gather(triples)
        h_re, h_im = self._split(h)
        r_re, r_im = self._split(r)
        t_re, t_im = self._split(t)
        # Re(<h, r, conj(t)>) expanded into four trilinear terms.
        term = F.add(
            F.add(F.mul(F.mul(h_re, r_re), t_re), F.mul(F.mul(h_im, r_re), t_im)),
            F.sub(F.mul(F.mul(h_re, r_im), t_im), F.mul(F.mul(h_im, r_im), t_re)),
        )
        return F.sum(term, axis=-1)

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            ent = self.entity_embedding.weight.data
            rel = self.relation_embedding.weight.data
            d = self.dim
            h_re, h_im = ent[heads, :d], ent[heads, d:]
            r_re, r_im = rel[rels, :d], rel[rels, d:]
            e_re, e_im = ent[:, :d], ent[:, d:]
            q_re = h_re * r_re - h_im * r_im
            q_im = h_re * r_im + h_im * r_re
            return q_re @ e_re.T + q_im @ e_im.T
