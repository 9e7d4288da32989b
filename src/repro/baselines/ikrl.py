"""IKRL (Xie et al., 2017) adapted to molecular features.

IKRL learns an image-based entity representation alongside the
structure-based one and scores a triple with four TransE-style energies
(ss, ii, si, is) so the two spaces align.  As in the paper's experiment
setup, the "image" modality here is the pre-trained molecule feature
vector (one instance per entity, so the attention-based instance
aggregation of the original is inert); entities without molecules have
zero features, which the learned projection maps into the joint space.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .base import EmbeddingModel, chunked_entity_scores, inference_mode

__all__ = ["IKRL"]


class IKRL(EmbeddingModel):
    """IKRL: TransE energies over structural and projected-modal spaces."""

    def __init__(self, num_entities: int, num_relations: int,
                 modal_features: np.ndarray, dim: int = 64, gamma: float = 12.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(num_entities, num_relations, dim, rng=rng)
        gen = rng if rng is not None else np.random.default_rng(0)
        self.gamma = gamma
        self.modal_features = modal_features
        self.modal_proj = nn.Linear(modal_features.shape[1], dim, rng=gen)

    def _modal(self, ids: np.ndarray) -> nn.Tensor:
        return self.modal_proj(nn.Tensor(self.modal_features[ids]))

    @staticmethod
    def _energy(h: nn.Tensor, r: nn.Tensor, t: nn.Tensor) -> nn.Tensor:
        return F.sum(F.abs(F.sub(F.add(h, r), t)), axis=-1)

    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:
        h_s, r, t_s = self._gather(triples)
        h_i = self._modal(triples[:, 0])
        t_i = self._modal(triples[:, 2])
        energy = F.add(
            F.add(self._energy(h_s, r, t_s), self._energy(h_i, r, t_i)),
            F.add(self._energy(h_s, r, t_i), self._energy(h_i, r, t_s)),
        )
        return F.sub(self.gamma, F.mul(energy, 0.25))

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            ent = self.entity_embedding.weight.data
            rel = self.relation_embedding.weight.data[rels]
            modal_all = self.modal_proj(nn.Tensor(self.modal_features)).data
            q_s = ent[heads] + rel
            q_i = modal_all[heads] + rel

            def block(start: int, stop: int) -> np.ndarray:
                t_s = ent[start:stop][None]
                t_i = modal_all[start:stop][None]
                energy = (
                    np.abs(q_s[:, None] - t_s).sum(-1) + np.abs(q_i[:, None] - t_i).sum(-1)
                    + np.abs(q_s[:, None] - t_i).sum(-1) + np.abs(q_i[:, None] - t_s).sum(-1)
                )
                return self.gamma - energy / 4.0

            return chunked_entity_scores(len(heads), self.num_entities,
                                         self.dim, block,
                                         budget=2_000_000)
