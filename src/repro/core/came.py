"""The CamE model — co-attention multimodal embedding for BKG completion.

Assembles the paper's architecture (Fig. 2):

* fixed pre-trained modality features ``h_m`` / ``h_t`` / ``h_s`` per
  entity (molecule GIN, text encoder, CompGCN — see
  :mod:`repro.datasets.features`);
* learnable relation embeddings (with inverse relations) and learnable
  entity embeddings ``t_s`` for candidate scoring;
* the **MMF** module producing the joint representation ``h_f``;
* the **RIC** module producing interactive representations ``v_t``,
  ``v_m``, ``v_s``;
* the Eqn. 15 multi-channel convolutional scoring head:

  ``Phi = f(h_f * (v_t W_t) * (v_m W_m)) W_1 h_s  +  f(v_s * v_0) W_2 t_s``

  where ``*`` stacks reshaped vectors as channels of a 2-D feature map
  and ``f`` is a convolution + fully-connected block.  Following the
  paper's prose ("we construct a multi-channel feature map by stacking
  modality joint and interactive representations ... which are then fed
  into the convolutional neural network to infer the missing links"),
  all five views — ``h_f``, ``v_t W_t``, ``v_m W_m``, ``v_s`` and
  ``v_0 = [h; r]`` — are stacked into ONE feature map processed by a
  single convolution trunk, from which two fully-connected heads
  produce the Eqn. 15 query vectors: one scored against candidates'
  *pre-trained structural features* (the ``W_1 h_s`` term) and one
  against their *learned embeddings* (the ``W_2 t_s`` term), plus a
  per-entity bias (ConvE-style).  Read literally, Eqn. 15's first term
  would be a per-query scalar that cannot affect candidate ranking;
  the prose reading above is the consistent one.

Training uses 1-to-many scoring with the Bernoulli NLL of Eqn. 16
(:func:`repro.nn.functional.bce_with_logits`), implemented by
:class:`repro.train.OneToNObjective` and run by
:class:`repro.train.TrainingEngine`.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..datasets.features import ModalityFeatures
from .config import CamEConfig
from .mmf import MultimodalTCAFusion, SimpleFusion
from .ric import RelationInteractiveTCA

__all__ = ["CamE", "reshape_to_2d_shape"]


def reshape_to_2d_shape(length: int) -> tuple[int, int]:
    """Factor ``length`` into the most square ``(h, w)`` grid.

    Used to turn embedding vectors into 2-D maps for the convolutional
    scoring head, as the paper's ``*`` (reshape-and-stack) operator does.
    """
    h = int(np.sqrt(length))
    while h > 1 and length % h != 0:
        h -= 1
    return h, length // h


class _ConvTrunk(nn.Module):
    """``f`` of Eqn. 15: conv -> BN -> ReLU -> flatten -> dropout.

    Two downstream FC heads read the shared trunk features (see the
    module docstring for why the trunk is shared).
    """

    def __init__(self, channels_in: int, height: int, width: int,
                 conv_channels: int, kernel_size: int, dropout: float,
                 rng: np.random.Generator) -> None:
        super().__init__()
        pad = kernel_size // 2
        self.conv = nn.Conv2d(channels_in, conv_channels, kernel_size,
                              padding=pad, rng=rng)
        self.bn = nn.BatchNorm2d(conv_channels)
        self.drop = nn.Dropout(dropout, rng=rng)
        self.flat_dim = conv_channels * height * width

    def forward(self, feature_map: nn.Tensor) -> nn.Tensor:
        x = F.relu(self.bn(self.conv(feature_map)))
        return self.drop(F.reshape(x, (x.shape[0], -1)))


class CamE(nn.Module):
    """CamE link predictor over a multimodal BKG.

    Parameters
    ----------
    num_entities:
        Entity vocabulary size.
    num_relations:
        Number of *original* relations; the model allocates ``2x`` for
        inverse relations (Section IV-D).
    features:
        Fixed pre-trained modality feature matrices.
    config:
        Hyperparameters and ablation switches.
    rng:
        Weight initialisation source.
    """

    def __init__(self, num_entities: int, num_relations: int,
                 features: ModalityFeatures, config: CamEConfig | None = None,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        cfg = config or CamEConfig()
        self.config = cfg
        self.num_entities = num_entities
        self.num_relations = num_relations

        # Fixed modality features (constants, ablations may zero them).
        feats = features
        if not cfg.use_text:
            feats = feats.drop_modality("textual")
        if not cfg.use_molecule:
            feats = feats.drop_modality("molecular")
        self.h_m_table = feats.molecular
        self.h_t_table = feats.textual
        self.h_s_table = feats.structural
        d_m, d_t, d_s = feats.dims
        self.modality_dims = (d_m, d_t, d_s)

        # Learnable tables.
        self.relation_embedding = nn.Embedding(2 * num_relations, cfg.relation_dim, rng=gen)
        self.entity_embedding = nn.Embedding(num_entities, cfg.entity_dim, rng=gen)
        self.entity_bias = nn.Parameter(np.zeros(num_entities))

        # MMF -----------------------------------------------------------
        if cfg.use_mmf:
            self.fusion = MultimodalTCAFusion(
                (d_m, d_t, d_s), cfg.fusion_dim, num_heads=cfg.num_heads,
                interval=cfg.interval, temperature_init=cfg.temperature_init,
                theta=cfg.exchange_theta, use_tca=cfg.use_tca,
                use_exchange=cfg.use_exchange, rng=gen,
            )
        else:
            self.fusion = SimpleFusion((d_m, d_t, d_s), cfg.fusion_dim, rng=gen)

        # RIC -----------------------------------------------------------
        if cfg.use_ric:
            self.ric = RelationInteractiveTCA(
                (d_m, d_t, d_s), cfg.relation_dim, cfg.fusion_dim,
                num_heads=cfg.num_heads, interval=cfg.interval,
                temperature_init=cfg.temperature_init, use_tca=cfg.use_tca,
                rng=gen,
            )
            # W_t, W_m of Eqn. 15: project v_t, v_m (2*d_f) to d_f; v_s
            # gets the analogous projection so all channels share a grid.
            self.w_vt = nn.Linear(2 * cfg.fusion_dim, cfg.fusion_dim, bias=False, rng=gen)
            self.w_vm = nn.Linear(2 * cfg.fusion_dim, cfg.fusion_dim, bias=False, rng=gen)
            self.w_vs = nn.Linear(2 * cfg.fusion_dim, cfg.fusion_dim, bias=False, rng=gen)
        else:
            self.ric = None
            # "w/o RIC": modality channels come straight from projections.
            self.proj_t_plain = nn.Linear(d_t, cfg.fusion_dim, bias=False, rng=gen)
            self.proj_m_plain = nn.Linear(d_m, cfg.fusion_dim, bias=False, rng=gen)
            self.proj_s_plain = nn.Linear(d_s, cfg.fusion_dim, bias=False, rng=gen)

        # Scoring head ----------------------------------------------------
        fh, fw = cfg.fusion_height, cfg.fusion_width
        self.fusion_shape = (fh, fw)
        # v_0 = [h; r]: when the embedding dims match the fusion grid the
        # two halves become two full-resolution channels (ConvE's exact
        # input); otherwise v_0 is projected onto the common grid.
        self.v0_native = (cfg.entity_dim == cfg.fusion_dim
                          and cfg.relation_dim == cfg.fusion_dim)
        if not self.v0_native:
            self.w_v0 = nn.Linear(cfg.entity_dim + cfg.relation_dim,
                                  cfg.fusion_dim, bias=False, rng=gen)
        self.channels = 6 if self.v0_native else 5  # h_f, v_t, v_m, v_s + v_0 view(s)
        self.input_bn = nn.BatchNorm2d(self.channels) if cfg.input_bn else None
        self.trunk = _ConvTrunk(self.channels, fh, fw, cfg.conv_channels,
                                cfg.kernel_size, cfg.dropout, gen)
        if cfg.use_struct_term:
            self.head_struct = nn.Linear(self.trunk.flat_dim, d_s, rng=gen)
            # W_1 of Eqn. 15 applied on the candidate side: a learnable
            # transform of the pre-trained structural features, scaled by
            # a gate that starts at zero so the (initially noisy) term
            # cannot drown the embedding term early in training.
            self.w1_struct = nn.Linear(d_s, d_s, bias=False, rng=gen)
            self.struct_gate = nn.Parameter(np.zeros(1))
        else:
            self.head_struct = None
        self.head_embed = nn.Linear(self.trunk.flat_dim, cfg.entity_dim, rng=gen)
        self.input_drop = nn.Dropout(cfg.dropout, rng=gen)

    # ------------------------------------------------------------------
    def _modalities(self, heads: np.ndarray) -> tuple[nn.Tensor, nn.Tensor, nn.Tensor]:
        """Fixed (constant) modality features of the head batch."""
        return (
            nn.Tensor(self.h_m_table[heads]),
            nn.Tensor(self.h_t_table[heads]),
            nn.Tensor(self.h_s_table[heads]),
        )

    def _stack_channels(self, vectors: list[nn.Tensor], shape: tuple[int, int]) -> nn.Tensor:
        """The Eqn. 15 ``*`` operator: reshape each vector and stack as channels."""
        h, w = shape
        maps = [F.reshape(v, (v.shape[0], 1, h, w)) for v in vectors]
        return F.concat(maps, axis=1)

    def query_vectors(self, heads: np.ndarray, rels: np.ndarray) -> tuple[nn.Tensor, nn.Tensor]:
        """Compute the two Eqn. 15 query vectors for a ``(h, r)`` batch.

        Returns ``(q_struct, q_embed)`` where candidates are scored as
        ``q_struct . h_s[t] + q_embed . t_s[t] + bias[t]``.
        """
        h_m, h_t, h_s = self._modalities(heads)
        relation = self.relation_embedding(rels)

        h_f = self.input_drop(self.fusion(h_m, h_t, h_s))

        if self.ric is not None:
            v = self.ric(h_t, h_m, h_s, relation)
            chan_t = self.w_vt(v["t"])
            chan_m = self.w_vm(v["m"])
            chan_s = self.w_vs(v["s"])
        else:
            chan_t = self.proj_t_plain(h_t)
            chan_m = self.proj_m_plain(h_m)
            chan_s = self.proj_s_plain(h_s)
        head_emb = self.entity_embedding(heads)
        if self.v0_native:
            v0_channels = [head_emb, relation]
        else:
            v0_channels = [self.w_v0(F.concat([head_emb, relation], axis=-1))]

        feature_map = self._stack_channels(
            [h_f, chan_t, chan_m, chan_s, *v0_channels], self.fusion_shape
        )
        if self.input_bn is not None:
            feature_map = self.input_bn(feature_map)
        trunk = self.trunk(feature_map)
        q_struct = self.head_struct(trunk) if self.head_struct is not None else None
        q_embed = F.relu(self.head_embed(trunk))  # (B, d_e), ConvE-style ReLU
        return q_struct, q_embed

    # ------------------------------------------------------------------
    def score_queries(self, heads: np.ndarray, rels: np.ndarray,
                      candidates: np.ndarray | None = None) -> nn.Tensor:
        """Scores over all entities ``(B, E)`` or candidate subsets ``(B, K)``."""
        q_struct, q_embed = self.query_vectors(heads, rels)
        if candidates is None:
            scores = F.matmul(q_embed, F.transpose(self.entity_embedding.weight))
            if q_struct is not None:
                cand = F.transpose(self.w1_struct(nn.Tensor(self.h_s_table)))
                term1 = F.mul(F.matmul(q_struct, cand), self.struct_gate)
                scores = F.add(scores, term1)
            return F.add(scores, self.entity_bias)
        # Candidate-restricted scoring (1-to-K negative sampling).
        b, k = candidates.shape
        e_cand = F.embedding(self.entity_embedding.weight, candidates)  # (B, K, d_e)
        scores = F.reshape(F.matmul(e_cand, F.reshape(q_embed, (b, -1, 1))), (b, k))
        if q_struct is not None:
            s_cand = self.w1_struct(nn.Tensor(self.h_s_table[candidates]))  # (B, K, d_s)
            term1 = F.reshape(F.matmul(s_cand, F.reshape(q_struct, (b, -1, 1))), (b, k))
            scores = F.add(scores, F.mul(term1, self.struct_gate))
        bias = F.index(self.entity_bias, candidates)
        return F.add(scores, bias)

    def predict_tails(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        """Inference-mode scores over all entities (used by evaluation)."""
        with nn.inference_mode(self):
            return self.score_queries(heads, rels).data
