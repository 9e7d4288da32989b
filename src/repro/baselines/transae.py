"""TransAE (Wang et al., 2019).

A multimodal autoencoder compresses the concatenated modality features
into the entity representation used by a TransE score; the training
objective adds the autoencoder's reconstruction error to the
translation loss.  As the paper notes, TransAE "essentially still adopts
the score function of TransE and is difficult to handle complex
interactions" — it is the weakest multimodal baseline in Table III.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .base import EmbeddingModel, chunked_entity_scores, inference_mode

__all__ = ["TransAE"]


class TransAE(EmbeddingModel):
    """TransE over autoencoded multimodal entity representations."""

    def __init__(self, num_entities: int, num_relations: int,
                 text_features: np.ndarray, modal_features: np.ndarray,
                 dim: int = 64, gamma: float = 12.0,
                 reconstruction_weight: float = 0.1,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(num_entities, num_relations, dim, rng=rng)
        gen = rng if rng is not None else np.random.default_rng(0)
        self.gamma = gamma
        self.reconstruction_weight = reconstruction_weight
        self.multimodal = np.concatenate([text_features, modal_features], axis=1)
        in_dim = self.multimodal.shape[1]
        self.encoder = nn.Sequential(
            nn.Linear(in_dim, dim * 2, rng=gen), nn.Tanh(),
            nn.Linear(dim * 2, dim, rng=gen),
        )
        self.decoder = nn.Sequential(
            nn.Linear(dim, dim * 2, rng=gen), nn.Tanh(),
            nn.Linear(dim * 2, in_dim, rng=gen),
        )

    def _encode(self, ids: np.ndarray) -> nn.Tensor:
        return self.encoder(nn.Tensor(self.multimodal[ids]))

    def reconstruction_loss(self, ids: np.ndarray) -> nn.Tensor:
        """Mean squared reconstruction error of the autoencoder."""
        inputs = nn.Tensor(self.multimodal[ids])
        recon = self.decoder(self.encoder(inputs))
        diff = F.sub(recon, inputs)
        return F.mean(F.mul(diff, diff))

    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:
        """TransE score on encoded entities, minus weighted recon error.

        Folding the reconstruction term into the score lets the generic
        :class:`~repro.train.NegativeSamplingObjective` optimise
        both objectives without a bespoke loop: the subtraction pushes
        the score of *positives* up only when reconstruction is good.
        """
        h = self._encode(triples[:, 0])
        t = self._encode(triples[:, 2])
        r = self.relation_embedding(triples[:, 1])
        distance = F.sum(F.abs(F.sub(F.add(h, r), t)), axis=-1)
        score = F.sub(self.gamma, distance)
        ids = np.unique(triples[:, [0, 2]])
        recon = self.reconstruction_loss(ids)
        return F.sub(score, F.mul(recon, self.reconstruction_weight))

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            encoded = self.encoder(nn.Tensor(self.multimodal)).data
            rel = self.relation_embedding.weight.data[rels]
            query = encoded[heads] + rel

            def block(start: int, stop: int) -> np.ndarray:
                diff = np.abs(query[:, None, :] - encoded[None, start:stop])
                return self.gamma - diff.sum(-1)

            return chunked_entity_scores(len(heads), self.num_entities,
                                         self.dim, block)
