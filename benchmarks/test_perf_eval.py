"""Evaluation microbenchmark: vectorized evaluator vs per-row reference.

Times the two filtered-ranking paths on a synthetic 2k-entity split —
the seed per-row implementation (dict filter rebuilt per call, Python
loop per query) against :class:`repro.eval.RankingEvaluator` (CSR
filter built once, batched ranking) — and records queries/sec plus
filter-build time into ``benchmarks/results/BENCH_eval.json`` so the
perf trajectory is tracked from PR 1 onward.

Set ``BENCH_EVAL_QUICK=1`` (CI) to shrink the workload; the recorded
speedup threshold still has to hold.  The per-row path is the parity
oracle in ``tests/eval/oracle.py``; run from the repo root with
``python -m pytest`` so the ``tests`` package is importable.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.eval import RankingEvaluator, build_csr_filter
from repro.eval.evaluator import CSRFilter
from repro.kg import KGSplit, KnowledgeGraph, Vocabulary
from tests.eval.oracle import build_filter, compute_ranks_reference

from conftest import RESULTS_DIR

QUICK = bool(os.environ.get("BENCH_EVAL_QUICK"))

NUM_ENTITIES = 2_000
NUM_RELATIONS = 12
# DRKG-like density: the real graph has ~60 triples per entity
# (5.87M edges / 97k entities); 30 per entity keeps the benchmark fast
# while staying representative of the per-entity filter load.
N_TRAIN, N_VALID, N_TEST = 48_000, 6_000, 6_000
N_QUERIES = 250 if QUICK else 1_000        # triples ranked (x2 directions)
MIN_SPEEDUP = 10.0


def synthetic_split(seed: int = 0) -> KGSplit:
    rng = np.random.default_rng(seed)
    total = N_TRAIN + N_VALID + N_TEST
    triples = np.stack([
        rng.integers(0, NUM_ENTITIES, total),
        rng.integers(0, NUM_RELATIONS, total),
        rng.integers(0, NUM_ENTITIES, total),
    ], axis=1)
    g = KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(NUM_ENTITIES)]),
        relations=Vocabulary([f"r{i}" for i in range(NUM_RELATIONS)]),
        triples=triples,
        entity_types=["Compound"] * NUM_ENTITIES,
    )
    return KGSplit(graph=g, train=triples[:N_TRAIN],
                   valid=triples[N_TRAIN:N_TRAIN + N_VALID],
                   test=triples[N_TRAIN + N_VALID:])


class RankOneScorer:
    """Deterministic dense scorer with memoized score blocks.

    Scores are a rank-2 function of the query, and every batch a path
    requests is computed once and cached — after the warm-up pass both
    timed paths pay only a dict lookup per ``predict_tails`` call, so
    the benchmark measures the *ranking* machinery, not the model.
    """

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.u = rng.normal(size=NUM_ENTITIES)
        self.w = rng.normal(size=NUM_ENTITIES)
        self.v = rng.normal(size=2 * NUM_RELATIONS)
        self.z = rng.normal(size=NUM_ENTITIES)
        self._blocks: dict[bytes, np.ndarray] = {}

    def predict_tails(self, heads, rels):
        key = np.asarray(heads).tobytes() + np.asarray(rels).tobytes()
        block = self._blocks.get(key)
        if block is None:
            block = self.u[heads][:, None] * self.w[None, :] \
                + self.v[rels][:, None] * self.z[None, :]
            self._blocks[key] = block
        return block


def test_perf_eval(capsys):
    split = synthetic_split()
    scorer = RankOneScorer()
    queries = split.test[:N_QUERIES]

    # Warm-up: run both paths once untimed so the scorer's block cache
    # is hot for both and one-off numpy/import costs are off the clock.
    compute_ranks_reference(scorer, split, queries)
    RankingEvaluator(split).compute_ranks(scorer, queries)

    # Filter construction: per-triple dict loop vs vectorized CSR pass.
    tick = time.perf_counter()
    dict_filter = build_filter(split)
    dict_build_s = time.perf_counter() - tick
    tick = time.perf_counter()
    csr: CSRFilter = build_csr_filter(split)
    csr_build_s = time.perf_counter() - tick
    assert csr.nnz == sum(len(v) for v in dict_filter.values())

    # End-to-end ranking, old path (rebuilds its dict filter internally,
    # exactly as the seed implementation did on every call).
    tick = time.perf_counter()
    ref_ranks = compute_ranks_reference(scorer, split, queries)
    ref_seconds = time.perf_counter() - tick

    # New path: construct-once evaluator, batched ranking.
    tick = time.perf_counter()
    evaluator = RankingEvaluator(split)
    new_ranks = evaluator.compute_ranks(scorer, queries)
    new_seconds = time.perf_counter() - tick

    # The speedup must not come at the cost of correctness.
    np.testing.assert_allclose(new_ranks, ref_ranks, rtol=0, atol=1e-12)

    n_ranked = len(ref_ranks)  # both directions
    ref_qps = n_ranked / ref_seconds
    new_qps = n_ranked / new_seconds
    speedup = new_qps / ref_qps

    record = {
        "workload": {
            "num_entities": NUM_ENTITIES,
            "num_relations": NUM_RELATIONS,
            "num_filter_triples": N_TRAIN + N_VALID + N_TEST,
            "num_ranked_queries": n_ranked,
            "quick_mode": QUICK,
        },
        "reference_per_row": {
            "filter_build_seconds": round(dict_build_s, 6),
            "total_seconds": round(ref_seconds, 6),
            "queries_per_second": round(ref_qps, 1),
        },
        "vectorized_evaluator": {
            "filter_build_seconds": round(csr_build_s, 6),
            "total_seconds": round(new_seconds, 6),
            "queries_per_second": round(new_qps, 1),
        },
        "speedup_queries_per_second": round(speedup, 1),
        "filter_build_speedup": round(dict_build_s / max(csr_build_s, 1e-9), 1),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_eval.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    with capsys.disabled():
        print(f"\n[eval perf] reference {ref_qps:,.0f} q/s | vectorized "
              f"{new_qps:,.0f} q/s | speedup {speedup:.1f}x "
              f"| filter build {dict_build_s * 1e3:.1f}ms -> "
              f"{csr_build_s * 1e3:.1f}ms\n[written to {path}]")

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized evaluator only {speedup:.1f}x faster (< {MIN_SPEEDUP}x)")
