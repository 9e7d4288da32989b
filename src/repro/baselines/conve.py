"""ConvE (Dettmers et al., 2018).

Head and relation embeddings are reshaped to 2-D maps, stacked, passed
through a convolution and a fully-connected layer, and the result is
matched against all entity embeddings (plus a per-entity bias).  This is
the architecture CamE's RIC/score head generalises, and the strongest
unimodal neural baseline in the paper's Table III.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..core.came import reshape_to_2d_shape

__all__ = ["ConvE"]


class ConvE(nn.Module):
    """ConvE 1-to-N scorer."""

    def __init__(self, num_entities: int, num_relations: int, dim: int = 64,
                 conv_channels: int = 16, kernel_size: int = 3,
                 dropout: float = 0.2, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        self.entity_embedding = nn.Embedding(num_entities, dim, rng=gen)
        self.relation_embedding = nn.Embedding(2 * num_relations, dim, rng=gen)
        self.entity_bias = nn.Parameter(np.zeros(num_entities))
        height, width = reshape_to_2d_shape(dim)
        self.map_shape = (height, width)  # each embedding becomes one map
        pad = kernel_size // 2
        self.conv = nn.Conv2d(2, conv_channels, kernel_size, padding=pad, rng=gen)
        self.bn = nn.BatchNorm2d(conv_channels)
        self.drop = nn.Dropout(dropout, rng=gen)
        self.fc = nn.Linear(conv_channels * height * width, dim, rng=gen)

    def _query(self, heads: np.ndarray, rels: np.ndarray) -> nn.Tensor:
        h = self.entity_embedding(heads)
        r = self.relation_embedding(rels)
        ht, wd = self.map_shape
        stacked = F.concat([
            F.reshape(h, (h.shape[0], 1, ht, wd)),
            F.reshape(r, (r.shape[0], 1, ht, wd)),
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
