"""Reproduction-specific design ablations (beyond the paper's Fig. 6).

DESIGN.md calls out two reading/engineering choices this reproduction
made; each gets an ablation bench so the choice is measured, not
asserted:

* the gated ``W_1 h_s`` structural scoring term of Eqn. 15 (our reading
  applies a learnable transform + zero-initialised gate on the
  candidate side) versus dropping the term entirely;
* the hashed n-gram text encoder versus the trainable char-CNN.
"""

import numpy as np

from repro.core import CamE, CamEConfig
from repro.datasets import build_features
from repro.eval import RankingEvaluator
from repro.experiments import get_prepared
from repro.train import OneToNObjective, TrainingEngine

from conftest import publish


def _train_eval(mkg, feats, cfg, epochs, seed=1):
    rng = np.random.default_rng(seed)
    model = CamE(mkg.num_entities, mkg.num_relations, feats, cfg, rng=rng)
    engine = TrainingEngine(model, mkg.split, rng, OneToNObjective(batch_size=128),
                            lr=cfg.learning_rate)
    engine.fit(epochs, eval_every=max(epochs // 3, 1), eval_max_queries=100)
    return engine.evaluator.evaluate(model, part="test", max_queries=200,
                                     rng=np.random.default_rng(2))


def test_struct_term_ablation(benchmark, sweep_scale, capsys):
    mkg, feats = get_prepared("drkg-mm", sweep_scale)
    base = CamEConfig(entity_dim=sweep_scale.model_dim,
                      relation_dim=sweep_scale.model_dim)
    with_term = _train_eval(mkg, feats, base, sweep_scale.epochs_came)
    without = _train_eval(mkg, feats, base.variant(use_struct_term=False),
                          sweep_scale.epochs_came)
    text = (
        "Design ablation: gated W1*h_s structural scoring term (Eqn. 15)\n"
        f"  with gated term    : MRR={with_term.mrr:.1f} H@10={with_term.hits[10]:.1f}\n"
        f"  without the term   : MRR={without.mrr:.1f} H@10={without.hits[10]:.1f}"
    )
    publish("design_struct_term", text, capsys)
    # The zero-initialised gate must make the term at worst harmless.
    assert with_term.mrr >= without.mrr * 0.85

    benchmark.pedantic(lambda: RankingEvaluator(mkg.split).evaluate(
        _DummyScorer(mkg.num_entities), part="valid",
        max_queries=50, rng=np.random.default_rng(0)), rounds=2, iterations=1)


class _DummyScorer:
    """Constant scorer used to time the bare evaluation protocol."""

    def __init__(self, num_entities: int) -> None:
        self.num_entities = num_entities

    def predict_tails(self, heads, rels):
        return np.zeros((len(heads), self.num_entities))


def test_text_encoder_choice(benchmark, sweep_scale, capsys):
    mkg, _ = get_prepared("drkg-mm", sweep_scale)
    dims = dict(d_m=sweep_scale.feature_dim, d_t=sweep_scale.feature_dim,
                d_s=sweep_scale.feature_dim)
    ngram = build_features(mkg, np.random.default_rng(0), text_encoder="ngram",
                           gin_epochs=1, compgcn_epochs=2, **dims)
    charcnn = build_features(mkg, np.random.default_rng(0), text_encoder="charcnn",
                             gin_epochs=1, text_epochs=2, compgcn_epochs=2, **dims)
    cfg = CamEConfig(entity_dim=sweep_scale.model_dim,
                     relation_dim=sweep_scale.model_dim)
    epochs = max(sweep_scale.epochs_came // 2, 1)
    m_ngram = _train_eval(mkg, ngram, cfg, epochs)
    m_cnn = _train_eval(mkg, charcnn, cfg, epochs)
    text = (
        "Design ablation: text encoder (CharacterBERT stand-in)\n"
        f"  hashed n-grams : MRR={m_ngram.mrr:.1f} H@10={m_ngram.hits[10]:.1f}\n"
        f"  char-CNN (MLM) : MRR={m_cnn.mrr:.1f} H@10={m_cnn.hits[10]:.1f}"
    )
    publish("design_text_encoder", text, capsys)
    # Both encoders must produce usable features (sanity floor).
    assert m_ngram.mrr > 5.0 and m_cnn.mrr > 5.0

    from repro.text import NgramHashEncoder
    enc = NgramHashEncoder(dim=sweep_scale.feature_dim)
    texts = [mkg.entity_text(i) for i in range(min(64, mkg.num_entities))]
    benchmark(lambda: enc.encode(texts))
