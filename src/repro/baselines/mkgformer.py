"""MKGformer "M-Encoder" approximation (Chen et al., 2022).

The paper cannot run full MKGformer on biological data (its ViT vision
tower is coupled to natural-image pre-training), so it reproduces the
core "M-Encoder" — a Prefix-guided Interaction Module (PGI) plus a
Correlation-aware Fusion module (CAF) — and plugs it into the same
surrounding framework in place of CamE's MMF/RIC.  We do the same:

* **PGI**: the textual representation queries the molecular
  representation; a learned gate mixes the modal "prefix" into the text
  stream (coarse-grained interaction).
* **CAF**: fine-grained correlation between the two streams is
  estimated per dimension (sigmoid of an elementwise bilinear term) and
  used to weight the fused representation.

The fused multimodal entity vector then enters a ConvE-style decoder
with the relation embedding, trained 1-to-N.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..core.came import reshape_to_2d_shape

__all__ = ["MKGformer"]


class MKGformer(nn.Module):
    """M-Encoder fusion + ConvE decoder, 1-to-N trainable."""

    def __init__(self, num_entities: int, num_relations: int,
                 text_features: np.ndarray, modal_features: np.ndarray,
                 structural_features: np.ndarray, dim: int = 64,
                 conv_channels: int = 16, kernel_size: int = 3,
                 dropout: float = 0.2, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        self.text_features = text_features
        self.modal_features = modal_features
        self.structural_features = structural_features

        self.text_proj = nn.Linear(text_features.shape[1], dim, rng=gen)
        self.modal_proj = nn.Linear(modal_features.shape[1], dim, rng=gen)
        self.struct_proj = nn.Linear(structural_features.shape[1], dim, rng=gen)
        # PGI: gate computed from both streams decides how much modal
        # prefix enters the text stream.
        self.pgi_gate = nn.Linear(2 * dim, dim, rng=gen)
        # CAF: per-dimension correlation weighting of the fused vector.
        self.caf_text = nn.Linear(dim, dim, bias=False, rng=gen)
        self.caf_modal = nn.Linear(dim, dim, bias=False, rng=gen)
        self.fuse_out = nn.Linear(2 * dim, dim, rng=gen)

        self.relation_embedding = nn.Embedding(2 * num_relations, dim, rng=gen)
        self.entity_embedding = nn.Embedding(num_entities, dim, rng=gen)
        self.entity_bias = nn.Parameter(np.zeros(num_entities))

        height, width = reshape_to_2d_shape(dim)
        self.map_shape = (height, width)
        pad = kernel_size // 2
        self.conv = nn.Conv2d(3, conv_channels, kernel_size, padding=pad, rng=gen)
        self.bn = nn.BatchNorm2d(conv_channels)
        self.drop = nn.Dropout(dropout, rng=gen)
        self.fc = nn.Linear(conv_channels * height * width, dim, rng=gen)

    def m_encoder(self, ids: np.ndarray) -> nn.Tensor:
        """Fused multimodal entity representation (PGI + CAF)."""
        text = F.tanh(self.text_proj(nn.Tensor(self.text_features[ids])))
        modal = F.tanh(self.modal_proj(nn.Tensor(self.modal_features[ids])))
        struct = F.tanh(self.struct_proj(nn.Tensor(self.structural_features[ids])))
        # PGI: prefix-guided interaction, text attends to the modal prefix.
        gate = F.sigmoid(self.pgi_gate(F.concat([text, modal], axis=-1)))
        text_guided = F.add(F.mul(gate, modal), F.mul(F.sub(1.0, gate), text))
        # CAF: correlation-aware fusion weighting.
        correlation = F.sigmoid(F.mul(self.caf_text(text_guided), self.caf_modal(modal)))
        fused = F.mul(correlation, F.add(text_guided, modal))
        return self.fuse_out(F.concat([fused, struct], axis=-1))

    def _query(self, heads: np.ndarray, rels: np.ndarray) -> nn.Tensor:
        fused = self.m_encoder(heads)
        ent = self.entity_embedding(heads)
        rel = self.relation_embedding(rels)
        ht, wd = self.map_shape
        stacked = F.concat([
            F.reshape(fused, (fused.shape[0], 1, ht, wd)),
            F.reshape(ent, (ent.shape[0], 1, ht, wd)),
            F.reshape(rel, (rel.shape[0], 1, ht, wd)),
        ], axis=1)
        x = F.relu(self.bn(self.conv(stacked)))
        x = self.drop(F.reshape(x, (x.shape[0], -1)))
        return F.relu(self.fc(x))

    def score_queries(self, heads: np.ndarray, rels: np.ndarray,
                      candidates: np.ndarray | None = None) -> nn.Tensor:
        query = self._query(heads, rels)
        if candidates is None:
            scores = F.matmul(query, F.transpose(self.entity_embedding.weight))
            return F.add(scores, self.entity_bias)
        cand = F.embedding(self.entity_embedding.weight, candidates)
        b, k = candidates.shape
        scores = F.reshape(F.matmul(cand, F.reshape(query, (b, -1, 1))), (b, k))
        return F.add(scores, F.index(self.entity_bias, candidates))

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with nn.inference_mode(self):
            return self.score_queries(heads, rels).data
