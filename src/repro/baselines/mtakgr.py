"""MTAKGR (Mousselly-Sergieh et al., 2018).

A multimodal translation-based approach: the energy of a triple is the
sum of sub-energies over the structural embedding and the (projected)
multimodal feature vector, including crossed head/tail combinations.
Here the multimodal vector concatenates the textual and molecular
features, mirroring the original's concatenated visual+linguistic
feature.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .base import EmbeddingModel, chunked_entity_scores, inference_mode

__all__ = ["MTAKGR"]


class MTAKGR(EmbeddingModel):
    """Multimodal translation with crossed sub-energy functions."""

    def __init__(self, num_entities: int, num_relations: int,
                 text_features: np.ndarray, modal_features: np.ndarray,
                 dim: int = 64, gamma: float = 12.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(num_entities, num_relations, dim, rng=rng)
        gen = rng if rng is not None else np.random.default_rng(0)
        self.gamma = gamma
        self.multimodal = np.concatenate([text_features, modal_features], axis=1)
        self.modal_proj = nn.Linear(self.multimodal.shape[1], dim, rng=gen)

    def _modal(self, ids: np.ndarray) -> nn.Tensor:
        return self.modal_proj(nn.Tensor(self.multimodal[ids]))

    @staticmethod
    def _energy(h: nn.Tensor, r: nn.Tensor, t: nn.Tensor) -> nn.Tensor:
        return F.sum(F.abs(F.sub(F.add(h, r), t)), axis=-1)

    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:
        h_s, r, t_s = self._gather(triples)
        h_m = self._modal(triples[:, 0])
        t_m = self._modal(triples[:, 2])
        energy = F.add(
            F.add(self._energy(h_s, r, t_s), self._energy(h_m, r, t_m)),
            F.add(self._energy(h_m, r, t_s), self._energy(h_s, r, t_m)),
        )
        return F.sub(self.gamma, F.mul(energy, 0.25))

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            ent = self.entity_embedding.weight.data
            rel = self.relation_embedding.weight.data[rels]
            modal_all = self.modal_proj(nn.Tensor(self.multimodal)).data
            q_s = ent[heads] + rel
            q_m = modal_all[heads] + rel

            def block(start: int, stop: int) -> np.ndarray:
                t_s = ent[start:stop][None]
                t_m = modal_all[start:stop][None]
                energy = (
                    np.abs(q_s[:, None] - t_s).sum(-1) + np.abs(q_m[:, None] - t_m).sum(-1)
                    + np.abs(q_m[:, None] - t_s).sum(-1) + np.abs(q_s[:, None] - t_m).sum(-1)
                )
                return self.gamma - energy / 4.0

            return chunked_entity_scores(len(heads), self.num_entities,
                                         self.dim, block,
                                         budget=2_000_000)
