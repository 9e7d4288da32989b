"""DualE (Cao et al., 2021).

Entities and relations are *dual quaternions* ``q = q_r + eps * q_d``
(eight reals per component block).  A relation acts on the head by
dual-quaternion multiplication, which composes a 3-D rotation with a
translation — unifying the RotatE and TransE geometries.  The relation
is normalised to a *unit* dual quaternion (``|q_r| = 1`` and
``<q_r, q_d> = 0``) before acting, exactly as in the original; the
score is the inner product of the transformed head with the tail.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .base import EmbeddingModel, inference_mode

__all__ = ["DualE"]


def _hamilton(a: tuple, b: tuple) -> tuple:
    """Quaternion Hamilton product on component tuples ``(w, x, y, z)``."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        F.sub(F.sub(F.sub(F.mul(aw, bw), F.mul(ax, bx)), F.mul(ay, by)), F.mul(az, bz)),
        F.sub(F.add(F.add(F.mul(aw, bx), F.mul(ax, bw)), F.mul(ay, bz)), F.mul(az, by)),
        F.add(F.sub(F.add(F.mul(aw, by), F.mul(ay, bw)), F.mul(ax, bz)), F.mul(az, bx)),
        F.sub(F.add(F.add(F.mul(aw, bz), F.mul(az, bw)), F.mul(ax, by)), F.mul(ay, bx)),
    )


def _hamilton_np(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by + ay * bw - ax * bz + az * bx,
        aw * bz + az * bw + ax * by - ay * bx,
    )


class DualE(EmbeddingModel):
    """DualE dual-quaternion scorer.

    ``dim`` counts dual-quaternion blocks; every embedding stores
    ``8 * dim`` reals laid out as eight contiguous component planes
    ``(rw, rx, ry, rz, dw, dx, dy, dz)``.
    """

    COMPONENTS = 8

    def __init__(self, num_entities: int, num_relations: int, dim: int = 8,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(num_entities, num_relations, dim, rng=rng,
                         relation_factor=self.COMPONENTS, entity_factor=self.COMPONENTS)

    def _components(self, x: nn.Tensor) -> tuple:
        d = self.dim
        return tuple(x[:, i * d:(i + 1) * d] for i in range(self.COMPONENTS))

    def _normalized_relation(self, rels: np.ndarray) -> tuple:
        """Unit dual quaternion: normalise q_r, project q_d orthogonal."""
        raw = self.relation_embedding(rels)
        comps = self._components(raw)
        q_r, q_d = comps[:4], comps[4:]
        norm_sq = None
        for c in q_r:
            term = F.mul(c, c)
            norm_sq = term if norm_sq is None else F.add(norm_sq, term)
        inv_norm = F.div(1.0, F.sqrt(F.add(norm_sq, 1e-9)))
        q_r = tuple(F.mul(c, inv_norm) for c in q_r)
        # <q_r, q_d> projection coefficient after normalisation.
        dot = None
        for cr, cd in zip(q_r, q_d):
            term = F.mul(cr, cd)
            dot = term if dot is None else F.add(dot, term)
        q_d = tuple(F.mul(F.sub(cd, F.mul(dot, cr)), inv_norm)
                    for cr, cd in zip(q_r, q_d))
        return q_r + q_d

    def triple_scores(self, triples: np.ndarray) -> nn.Tensor:
        h = self._components(self.entity_embedding(triples[:, 0]))
        t = self._components(self.entity_embedding(triples[:, 2]))
        r = self._normalized_relation(triples[:, 1])
        h_r, h_d = h[:4], h[4:]
        r_r, r_d = r[:4], r[4:]
        # (h_r + eps h_d)(r_r + eps r_d) = h_r r_r + eps(h_r r_d + h_d r_r).
        out_r = _hamilton(h_r, r_r)
        cross1 = _hamilton(h_r, r_d)
        cross2 = _hamilton(h_d, r_r)
        out_d = tuple(F.add(a, b) for a, b in zip(cross1, cross2))
        score = None
        for part, tail_part in zip(out_r + out_d, t):
            term = F.sum(F.mul(part, tail_part), axis=-1)
            score = term if score is None else F.add(score, term)
        return score

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            d = self.dim
            ent = self.entity_embedding.weight.data
            raw = self.relation_embedding.weight.data[rels]
            comps_h = tuple(ent[heads, i * d:(i + 1) * d] for i in range(8))
            comps_r = list(raw[:, i * d:(i + 1) * d] for i in range(8))
            q_r, q_d = comps_r[:4], comps_r[4:]
            norm = np.sqrt(sum(c * c for c in q_r) + 1e-9)
            q_r = [c / norm for c in q_r]
            dot = sum(cr * cd for cr, cd in zip(q_r, q_d))
            q_d = [(cd - dot * cr) / norm for cr, cd in zip(q_r, q_d)]
            out_r = _hamilton_np(comps_h[:4], q_r)
            c1 = _hamilton_np(comps_h[:4], q_d)
            c2 = _hamilton_np(comps_h[4:], q_r)
            out_d = tuple(a + b for a, b in zip(c1, c2))
            query = np.concatenate(out_r + out_d, axis=1)   # (B, 8d)
            return query @ ent.T
