"""CompGCN as a link-prediction baseline (Vashishth et al., 2020).

Wraps :class:`repro.gnn.CompGCNEncoder` with a DistMult decoder behind
the 1-to-N training interface.  Message passing runs over (a capped
subset of) the training edges each forward pass; inference caches the
propagated embeddings.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..gnn import CompGCNEncoder, as_relational_graph
from ..graph import GraphData
from .base import inference_mode

__all__ = ["CompGCNLinkPredictor"]


class CompGCNLinkPredictor(nn.Module):
    """CompGCN encoder + DistMult decoder, 1-to-N trainable.

    Parameters
    ----------
    train_triples:
        Edges used for message passing (original direction only; the
        layer handles both directions internally).
    max_message_edges:
        Cap on edges sampled per forward pass, bounding CPU cost.
    """

    def __init__(self, num_entities: int, num_relations: int,
                 train_triples: np.ndarray, dim: int = 32,
                 num_layers: int = 1, composition: str = "sub",
                 max_message_edges: int = 4000,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.num_entities = num_entities
        self.num_relations = num_relations
        # The encoder needs embeddings for inverse relations too because
        # the 1-to-N protocol trains on inverse-augmented triples.
        self.encoder = CompGCNEncoder(num_entities, 2 * num_relations, dim=dim,
                                      num_layers=num_layers,
                                      composition=composition, rng=gen)
        self.entity_bias = nn.Parameter(np.zeros(num_entities))
        self._train_triples = train_triples
        self._max_edges = max_message_edges
        self._rng = gen
        self._cached: tuple[np.ndarray, np.ndarray] | None = None
        # Fixed message graphs, converted to the shared CSR GraphData
        # form exactly once.  When the training set fits under the cap
        # the same GraphData serves every forward pass; the inference
        # graph (deterministic first-N cap, so predictions are stable
        # across calls) is likewise built once.
        self._full_graph: GraphData | None = (
            as_relational_graph(train_triples, num_entities)
            if len(train_triples) <= max_message_edges else None
        )
        self._infer_graph: GraphData | None = None

    def _message_edges(self) -> "np.ndarray | GraphData":
        if self._full_graph is not None:
            return self._full_graph
        idx = self._rng.choice(len(self._train_triples), self._max_edges, replace=False)
        return self._train_triples[idx]

    def score_queries(self, heads: np.ndarray, rels: np.ndarray,
                      candidates: np.ndarray | None = None) -> nn.Tensor:
        self._cached = None  # parameters are changing; invalidate cache
        ent, rel = self.encoder(self._message_edges())
        h = F.index(ent, heads)
        r = F.index(rel, rels)
        query = F.mul(h, r)
        if candidates is None:
            scores = F.matmul(query, F.transpose(ent))
            return F.add(scores, self.entity_bias)
        b, k = candidates.shape
        cand = F.index(ent, candidates)
        scores = F.reshape(F.matmul(cand, F.reshape(query, (b, -1, 1))), (b, k))
        return F.add(scores, F.index(self.entity_bias, candidates))

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        with inference_mode(self):
            if self._cached is None:
                if self._infer_graph is None:
                    self._infer_graph = (self._full_graph if self._full_graph is not None
                                         else as_relational_graph(
                                             self._train_triples[: self._max_edges],
                                             self.num_entities))
                ent, rel = self.encoder(self._infer_graph)
                self._cached = (ent.data.copy(), rel.data.copy())
            ent, rel = self._cached
            query = ent[heads] * rel[rels]
            return query @ ent.T + self.entity_bias.data
