"""Fig. 7 — case study (RQ5): semantic coherence of top-ranked tails.

The paper shows a *Drug-drug Interaction* query whose top-3 predicted
tails share class morphology ("-cillin" suffixes / penicillin-type
substructures).  We reproduce the analysis: take compound-compound test
queries, read CamE's top-k tails, and check (a) that predictions are
printed with their names, scaffolds and description phrases and (b) how
often the top-ranked tails share the head's latent scaffold — the
quantitative version of "the predictions are the same kind of drug".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ann.ivf import topk_indices
from ..eval import build_csr_filter
from .runner import get_prepared, train_model
from .scale import Scale

__all__ = ["CaseStudy", "run_fig7", "render_fig7"]


@dataclass
class CasePrediction:
    """One predicted tail entity with its modal context."""

    name: str
    scaffold: str
    description: str
    score: float


@dataclass
class CaseStudy:
    """Top-k analysis for one query plus corpus-level statistics."""

    head_name: str
    head_scaffold: str
    relation: str
    true_tail: str
    predictions: list[CasePrediction]
    scaffold_match_rate: float    # over many queries: top-3 scaffold agreement
    chance_match_rate: float      # scaffold agreement expected at random


def run_fig7(scale: Scale, seed: int = 0, top_k: int = 3,
             max_queries: int = 60) -> CaseStudy:
    """Train CamE (cached) and analyse compound-compound predictions."""
    mkg, _ = get_prepared("drkg-mm", scale, seed)
    run = train_model("CamE", "drkg-mm", scale, seed=seed)
    graph = mkg.graph
    types = graph.entity_types
    known = build_csr_filter(mkg.split)

    cc_tests = [t for t in mkg.split.test
                if types[int(t[0])] == "Compound" and types[int(t[2])] == "Compound"]
    if not cc_tests:
        raise RuntimeError("no compound-compound test triples; increase scale")
    rng = np.random.default_rng(500 + seed)
    order = rng.permutation(len(cc_tests))[:max_queries]

    matches, chances, showcase = [], [], None
    compounds = mkg.entities_of_type("Compound")
    scaffold_ids = {c: mkg.scaffold_of.get(int(c), "") for c in compounds}
    scaffold_freq = {}
    for s in scaffold_ids.values():
        scaffold_freq[s] = scaffold_freq.get(s, 0) + 1
    chance = sum((n / len(compounds)) ** 2 for n in scaffold_freq.values())

    for idx in order:
        h, r, t = (int(v) for v in cc_tests[idx])
        scores = np.array(run.model.predict_tails(np.array([h]), np.array([r])))
        # Filter every other known tail; the query's own answer competes.
        masked = known.mask_known(scores, [h], [r], keep=[t])[0]
        top = topk_indices(masked, top_k)
        head_scaffold = mkg.scaffold_of.get(h, "")
        top_scaffolds = [mkg.scaffold_of.get(int(e), None) for e in top]
        valid = [s for s in top_scaffolds if s is not None]
        if valid and head_scaffold:
            matches.append(np.mean([s == head_scaffold for s in valid]))
            chances.append(chance)
        if showcase is None and valid:
            showcase = (h, r, t, top, masked)

    if showcase is None:
        raise RuntimeError("no usable compound-compound queries found")
    h, r, t, top, masked = showcase
    predictions = [
        CasePrediction(
            name=graph.entities.name(int(e)),
            scaffold=mkg.scaffold_of.get(int(e), "(none)"),
            description=mkg.descriptions.get(int(e), ""),
            score=float(masked[int(e)]),
        )
        for e in top
    ]
    return CaseStudy(
        head_name=graph.entities.name(h),
        head_scaffold=mkg.scaffold_of.get(h, "(none)"),
        relation=graph.relations.name(int(r) % graph.num_relations),
        true_tail=graph.entities.name(t),
        predictions=predictions,
        scaffold_match_rate=float(np.mean(matches) * 100) if matches else float("nan"),
        chance_match_rate=float(np.mean(chances) * 100) if chances else float("nan"),
    )


def render_fig7(case: CaseStudy) -> str:
    lines = [
        "Fig. 7: case study — top predictions share class semantics",
        f"  query: ({case.head_name} [{case.head_scaffold}], {case.relation}, ?)"
        f"   true tail: {case.true_tail}",
    ]
    for rank, p in enumerate(case.predictions, 1):
        lines.append(f"  top-{rank}: {p.name:24s} scaffold={p.scaffold:14s} "
                     f"score={p.score:6.2f}")
        if p.description:
            lines.append(f"         \"{p.description}\"")
    lines.append(
        f"  top-3 scaffold agreement with head: {case.scaffold_match_rate:.1f}% "
        f"(chance: {case.chance_match_rate:.1f}%)"
    )
    return "\n".join(lines)
