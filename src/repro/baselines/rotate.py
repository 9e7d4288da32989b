"""RotatE and a-RotatE (Sun et al., 2019).

Relations are rotations in the complex plane: ``t ~ h o r`` with
``|r_i| = 1``, scored as ``gamma - ||h o r - t||_2``.  Relation
embeddings store phases; ``a-RotatE`` is the same model trained with
self-adversarial negative sampling (a trainer flag, per the paper).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .base import EmbeddingModel, chunked_entity_scores, inference_mode

__all__ = ["RotatE"]


class RotatE(EmbeddingModel):
    """RotatE with phase-parameterised relations.

    ``dim`` counts complex components; entities use ``2*dim`` reals and
    relations ``dim`` phases.
    """

    #: The true score sums per-component complex moduli (an L2,1 norm);
    #: flat L2 distance between the rotated head and the entity table is
    #: a tightly correlated surrogate, good enough for *candidate*
    #: generation — the serving layer reranks candidates exactly.
    ann_metric = "l2"

    def __init__(self, num_entities: int, num_relations: int, dim: int = 32,
                 gamma: float = 12.0, rng: np.random.Generator | None = None) -> None:
        super().__init__(num_entities, num_relations, dim, rng=rng,
                         entity_factor=2, relation_factor=2)
        self.gamma = gamma

    def _rotated_heads(self, heads: np.ndarray, rels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Numpy rotation of head embeddings (inference path)."""
        d = self.dim
        ent = self.entity_embedding.weight.data
        raw = self.relation_embedding.weight.data[np.asarray(rels, np.int64)]
        c, s = raw[:, :d], raw[:, d:]
        norm = np.sqrt(c * c + s * s + 1e-9)
        cos, sin = c / norm, s / norm
        heads = np.asarray(heads, dtype=np.int64)
        h_re, h_im = ent[heads, :d], ent[heads, d:]
        return h_re * cos - h_im * sin, h_re * sin + h_im * cos

    def ann_queries(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        rot_re, rot_im = self._rotated_heads(heads, rels)
        return np.concatenate([rot_re, rot_im], axis=-1)

    def score_cells(self, heads: np.ndarray, rels: np.ndarray,
                    tails: np.ndarray) -> np.ndarray:
        """Exact per-cell scores, same float64 ops as :meth:`predict_tails`."""
        with inference_mode(self):
            d = self.dim
            ent = self.entity_embedding.weight.data
            rot_re, rot_im = self._rotated_heads(heads, rels)
            tails = np.asarray(tails, dtype=np.int64)
            dr = rot_re - ent[tails, :d]
            di = rot_im - ent[tails, d:]
            return self.gamma - np.sqrt(dr * dr + di * di + 1e-9).sum(axis=-1)

    def _unit_rotation(self, rels: np.ndarray) -> tuple[nn.Tensor, nn.Tensor]:
        """Unit-modulus rotation components for a relation id batch.

        Instead of a trigonometric parameterisation (our op zoo has no
        cos), each relation stores two free components per dimension and
        is normalised onto the unit circle — the same unit-modulus
        constraint RotatE's phase parameterisation guarantees.
        """
        raw = self.relation_embedding(rels)
        d = self.dim
        c, s = raw[:, :d], raw[:, d:]
        norm = F.sqrt(F.add(F.add(F.mul(c, c), F.mul(s, s)), 1e-9))
        return F.div(c, norm), F.div(s, norm)

    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:
        d = self.dim
        h = self.entity_embedding(triples[:, 0])
        t = self.entity_embedding(triples[:, 2])
        cos, sin = self._unit_rotation(triples[:, 1])
        h_re, h_im = h[:, :d], h[:, d:]
        t_re, t_im = t[:, :d], t[:, d:]
        rot_re = F.sub(F.mul(h_re, cos), F.mul(h_im, sin))
        rot_im = F.add(F.mul(h_re, sin), F.mul(h_im, cos))
        diff_re = F.sub(rot_re, t_re)
        diff_im = F.sub(rot_im, t_im)
        modulus = F.sqrt(F.add(F.add(F.mul(diff_re, diff_re), F.mul(diff_im, diff_im)), 1e-9))
        return F.sub(self.gamma, F.sum(modulus, axis=-1))

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            d = self.dim
            ent = self.entity_embedding.weight.data
            rot_re, rot_im = self._rotated_heads(heads, rels)
            e_re, e_im = ent[:, :d], ent[:, d:]

            def block(start: int, stop: int) -> np.ndarray:
                dr = rot_re[:, None, :] - e_re[None, start:stop]
                di = rot_im[:, None, :] - e_im[None, start:stop]
                return self.gamma - np.sqrt(dr * dr + di * di + 1e-9).sum(axis=-1)

            return chunked_entity_scores(len(heads), self.num_entities, d, block,
                                         budget=2_000_000)
