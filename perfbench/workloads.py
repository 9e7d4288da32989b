"""The CamE session every workload runs, and the three workloads.

Every workload runs the same pipeline on a synthetic DRKG-MM graph, so
each one reports every end-to-end metric: set-up (generate, pre-train
features, build CamE), a bundle export, and one timed phase.  The timed
phase trains CamE batch by batch through ``TrainingEngine.train_epoch``;
after every training batch it ranks a chunk of the test split and runs
the workload's serving work (filtered top-k queries, entity appends,
cold starts and bulk scoring) on engines loaded from the bundle.  The
workloads differ in their inputs and in how much serving work follows
each batch (see README.md).  One caller thread; no server, pool or
worker process.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import repro.eval.evaluator
import repro.nn
import repro.serve.engine
import repro.stream.apply
from repro import datasets, serve
from repro.baselines import get_spec
from repro.datasets import features as features_module
from repro.eval import CSRFilter, RankingEvaluator
from repro.kg import KGSplit
from repro.nn.tensor import Tensor
from repro.serve import PredictionEngine
from repro.stream import apply_append
from repro.train import OneToNObjective, TrainingEngine

from reference import KnownTails, filtered_ranks, random_mrr, ranking_summary, top_k

#: DRKG-MM scale 1.0 (380 entities).  Larger graphs are left out:
#: generation hangs at scale 2 for some seeds (see README.md).
SCALE = 1.0
FEATURE_DIM = 24
PRETRAIN_EPOCHS = 2
MODEL_DIM = 48
BATCH_SIZE = 128
LEARNING_RATE = 3e-3
#: Test triples ranked, in both directions, after every training batch.
EVAL_TRIPLES = 64
CACHE_SIZE = 512
TOP_K = 10
SETUP_REPEATS = 3
#: Untimed training batches before the export and the timed phase.
WARMUP_BATCHES = 2
WARMUP_QUERIES = 20
#: The timed phase runs at least this many training batches (the loss
#: check compares the first five with the last five) ...
MIN_BATCHES = 10
#: ... and at least this many queries, so p99 has ten samples beyond it.
MIN_QUERIES = 1000
BULK_BATCH = 64
ZIPF_EXPONENT = 1.1
#: After every this many queries, the cached row is compared with a
#: fresh forward.
FRESH_CHECK_EVERY = 50
#: Misses timed (and profiled) for the per-layer split of one forward.
PROBE_MISSES = 40
PROFILED_MISSES = 10


@dataclass(frozen=True)
class Workload:
    """Inputs and the serving work that follows every training batch.

    After each training batch the timed phase ranks ``EVAL_TRIPLES``
    test triples in both directions, runs ``rounds`` serving rounds of
    ``round_queries`` filtered top-k queries followed by
    ``round_appends`` entity appends, then ``cold_starts`` cold starts
    and ``bulk_batches`` bulk scoring batches on the last cold-started
    engine.  Interleaving at the grain of one batch spreads every
    metric's samples over the whole phase, so a slow spell of the host
    weighs on all of them alike.
    """

    name: str
    train_fraction: float     # share of the train triples trained on
    hot_keys: int             # 0: keys uniform over every (h, r)
    rounds: int
    round_queries: int
    round_appends: int
    cold_starts: int
    bulk_batches: int


WORKLOADS = {w.name: w for w in (
    Workload("train", train_fraction=1.0, hot_keys=0, rounds=1,
             round_queries=48, round_appends=3, cold_starts=2, bulk_batches=1),
    Workload("serve-longtail", train_fraction=0.25, hot_keys=0, rounds=1,
             round_queries=120, round_appends=3, cold_starts=2, bulk_batches=4),
    Workload("serve-hot-append", train_fraction=0.25, hot_keys=96, rounds=4,
             round_queries=200, round_appends=1, cold_starts=2, bulk_batches=2),
)}


def laps(marks: list[tuple[float, int]], start: float) -> list[tuple[float, int]]:
    """``(seconds, rows)`` per batch from end times, and clears ``marks``.

    ``marks`` holds each batch's end time; ``start`` is the first
    batch's start.
    """
    bounds = [start] + [t for t, _ in marks]
    out = [(b - a, n) for a, b, (_, n) in zip(bounds, bounds[1:], marks)]
    marks.clear()
    return out


def median_rate(batches: list[tuple[float, int]], size: int) -> float:
    """Rows per second of the median full-size batch."""
    return size / statistics.median(s for s, n in batches if n == size)


class Checks:
    """Collects failed correctness checks instead of stopping at the first."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.failures) < 20:
            self.failures.append(message)

    @property
    def passed(self) -> bool:
        return not self.failures


class Session:
    """One run of one workload: set-up, the timed phase, checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 probe, out_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.probe = probe
        self.out_dir = out_dir
        self.checks = Checks()
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.record: dict[str, float] = {}   # counts the per-layer metrics divide by
        # Samples of the timed phase.
        self.train_laps: list[tuple[float, int]] = []
        self.eval_laps: list[tuple[float, int]] = []
        self.latencies: list[float] = []
        self.hit_count = 0
        self.round_rates: list[float] = []   # queries per second of each round
        self.cold_ms: list[float] = []
        self.append_ms: list[float] = []
        self.bulk_laps: list[tuple[float, int]] = []
        self.last_bulk = None

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def _attempt(self, fn, *args, **kwargs):
        """Run one operation; a raised error counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - counted and reported, run goes on
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None

    # ------------------------------------------------------------------
    def run(self, import_seconds: float) -> None:
        setup = []
        for _ in range(SETUP_REPEATS):
            datasets.clear_cache()
            tick = time.perf_counter()
            self._set_up()
            setup.append(time.perf_counter() - tick)
        self.metrics["setup_s"] = import_seconds + statistics.median(setup)
        self.record["setup_repeats"] = SETUP_REPEATS
        self._timed()
        self._check_serving()
        if self.probe.traced:
            self._probe_misses()

    def _set_up(self) -> None:
        probe = self.probe
        with probe.timing(
                (datasets, "get_dataset", "datasets.generate"),
                (features_module.MaskedAttributePretrainer, "train",
                 "mol.gin_pretrain"),
                (features_module.GINEncoder, "encode", "mol.gin_pretrain"),
                (features_module.NgramHashEncoder, "encode", "text.encode"),
                (features_module, "pretrain_structural_embeddings",
                 "gnn.compgcn_pretrain"),
                (repro.eval.evaluator, "build_csr_filter", "eval.filter_build")):
            self.mkg = datasets.get_dataset("drkg-mm", scale=SCALE,
                                            seed=self.seed)
            self.features = datasets.build_features(
                self.mkg, self.rng(1), d_m=FEATURE_DIM, d_t=FEATURE_DIM,
                d_s=FEATURE_DIM, gin_epochs=PRETRAIN_EPOCHS,
                compgcn_epochs=PRETRAIN_EPOCHS)
            self.model = get_spec("CamE").builder(self.mkg, self.features,
                                                  MODEL_DIM, self.rng(2))
            split = self.mkg.split
            train = split.train
            if self.workload.train_fraction < 1.0:
                keep = self.rng(3).permutation(len(train))
                train = train[np.sort(keep[:int(len(train) * self.workload.train_fraction)])]
            self.trainer = TrainingEngine(
                self.model, KGSplit(split.graph, train, split.valid, split.test),
                self.rng(4), OneToNObjective(batch_size=BATCH_SIZE),
                lr=LEARNING_RATE)
            self.evaluator = RankingEvaluator(split, batch_size=EVAL_TRIPLES)

    def _export(self) -> None:
        """Export the briefly trained model; the serving engines load it."""
        self.bundle = os.path.join(self.out_dir, "came.npz")
        with self.probe.timing((serve, "save_bundle", "serve.export")):
            self._attempt(serve.save_bundle, self.bundle, self.model, "CamE",
                          self.mkg.split, self.features, dim=MODEL_DIM)
        self.metrics["bundle_mb"] = os.path.getsize(self.bundle) / 1e6

    def _open_engine(self) -> None:
        """Cold-start the serving engine, check it and warm it up."""
        split = self.mkg.split
        self.keys = KeyStream(self.workload, self.mkg, self.rng(6))
        self.bulk_keys = KeyStream(WORKLOADS["serve-longtail"], self.mkg, self.rng(10))
        self.first = self.keys.round(1)[0]
        engine = self.engine = self._cold_start(self.first)
        for h, r in self.keys.round(4):
            served = engine.scores([h], [r])[0]
            fresh = self.model.predict_tails(np.array([h]), np.array([r]))[0]
            self.checks.expect(np.array_equal(served, fresh),
                               f"bundle-loaded row ({h}, {r}) differs from the exported model")
        for h, r in self.keys.round(WARMUP_QUERIES):
            engine.top_k_tails(h, r, TOP_K, filter_known=True)
        self.known = KnownTails(split.num_relations)
        self.known.add(np.concatenate([split.train, split.valid, split.test]))
        self.appender = Appender(self, self.keys, self.rng(8))
        self.old_entities = engine.num_entities
        self.hits = engine.metrics.get("serve_cache_lookups_total").labels(result="hit")
        self.invalidations = engine.metrics.get("serve_cache_invalidations_total")
        self.watched = self.keys.round(4)
        self.watched_rows = [engine.model.predict_tails(np.array([h]), np.array([r]))[0]
                             for h, r in self.watched]

    # ------------------------------------------------------------------
    def _timed(self) -> None:
        """Warm up, export, then train batch by batch and serve after each.

        The first ``WARMUP_BATCHES`` training batches are untimed; after
        them the model is exported and the serving engine opened.  After
        every later batch the phase ranks a test chunk and runs the
        workload's serving work.  The benchmark shadows the objective's
        ``batches`` and ``loss`` and the evaluator's ``rank_scores`` on
        the instances for the phase: the first to run the other work
        between training batches, the others to record losses and the
        scores the evaluator ranked.
        """
        trainer, evaluator, model = self.trainer, self.evaluator, self.model
        objective = trainer.objective
        epoch, loss_fn, rank_scores = objective.batches, objective.loss, evaluator.rank_scores
        losses: list[float] = []
        captured: list[tuple] = []
        eval_marks: list[tuple[float, int]] = []   # (end time, rows) per eval batch
        ranked: list[tuple[np.ndarray, int]] = []   # (ranks, captured so far)
        test = self.mkg.split.test
        order = self.rng(5).permutation(len(test))
        probes = contextlib.ExitStack()
        start = None

        def recorded_loss(model, batch):
            loss = loss_fn(model, batch)
            losses.append(float(loss.data))
            return loss

        def captured_ranks(scores, heads, rels, targets):
            ranks = rank_scores(scores, heads, rels, targets)
            eval_marks.append((time.perf_counter(), len(heads)))
            captured.append((scores, heads, rels, targets))
            return ranks

        def begin() -> float:
            """Export, open the serving engine and start the probes."""
            self._export()
            self._open_engine()
            probes.enter_context(self.probe.timing(
                (objective, "loss", "train.forward"),
                (Tensor, "backward", "train.backward"),
                (repro.nn, "clip_grad_norm", "train.step"),
                (trainer.optimizer, "step", "train.step"),
                (model, "predict_tails", "eval.predict"),
                (evaluator, "rank_scores", "eval.rank"),
                (repro.stream.apply, "plan_append", "stream.plan"),
                (self.engine, "adopt_append", "stream.adopt"),
                (CSRFilter, "mask_known", "serve.mask"),
                (repro.serve.engine, "topk_indices", "serve.topk")))
            return time.perf_counter()

        def finished() -> bool:
            return (start is not None
                    and time.perf_counter() - start >= self.seconds
                    and len(self.train_laps) >= MIN_BATCHES
                    and len(self.latencies) >= MIN_QUERIES)

        def interleaved():
            nonlocal start
            batches = iter(epoch())
            while not finished():
                tick = time.perf_counter()
                batch = next(batches, None)
                if batch is None:
                    return
                if start is None:
                    yield batch
                    if len(losses) == WARMUP_BATCHES:
                        start = begin()
                    continue
                with self.probe.profiling("train"):
                    yield batch
                self.train_laps.append((time.perf_counter() - tick, len(batch[0])))

                chunk = test[order[np.arange(EVAL_TRIPLES * len(ranked),
                                             EVAL_TRIPLES * (len(ranked) + 1)) % len(test)]]
                tick = time.perf_counter()
                ranks = self._attempt(evaluator.compute_ranks, model, chunk,
                                      batch_size=EVAL_TRIPLES)
                self.eval_laps += laps(eval_marks, tick)
                if ranks is not None:
                    ranked.append((ranks, len(captured)))
                self._serve()

        objective.batches, objective.loss = interleaved, recorded_loss
        evaluator.rank_scores = captured_ranks
        with probes:
            while not finished():
                self._attempt(trainer.train_epoch)

        lat_ms = 1e3 * np.asarray(self.latencies)
        self.metrics.update(
            train_queries_per_s=median_rate(self.train_laps, BATCH_SIZE),
            eval_queries_per_s=median_rate(self.eval_laps, EVAL_TRIPLES),
            cold_start_ms=statistics.median(self.cold_ms),
            predict_per_s=statistics.median(self.round_rates),
            predict_p50_ms=float(np.percentile(lat_ms, 50)),
            append_p50_ms=statistics.median(self.append_ms),
            bulk_rows_per_s=median_rate(self.bulk_laps, BULK_BATCH))
        self.record.update(
            train_batches=len(self.train_laps),
            train_seconds=sum(s for s, _ in self.train_laps),
            queries=len(self.latencies), hits=self.hit_count,
            predict_p99_ms=float(np.percentile(lat_ms, 99)),
            appends=len(self.append_ms),
            rows_invalidated=self.invalidations.value)

        head, tail = losses[:5], losses[-5:]
        self.checks.expect(np.mean(tail) < np.mean(head),
                           f"training loss did not fall: first {head}, last {tail}")
        split = self.mkg.split
        known = KnownTails(split.num_relations)
        known.add(np.concatenate([split.train, split.valid, split.test]))
        done = 0
        for unit, (ranks, upto) in enumerate(ranked):
            scores, heads, rels, targets = (np.concatenate(part)
                                            for part in zip(*captured[done:upto]))
            done = upto
            ours = filtered_ranks(scores, heads, rels, targets, known)
            self.checks.expect(np.array_equal(ranks, ours),
                               f"eval chunk {unit}: evaluator ranks differ from the reference")
        if self.workload.train_fraction == 1.0:
            # Only full training is expected to learn; the serve workloads
            # train briefly on a subsample, which need not beat chance.
            # One full filtered evaluation, untimed, after the phase.
            del captured[:]
            result = evaluator.evaluate(model, part="test", batch_size=EVAL_TRIPLES)
            scores, heads, rels, targets = (np.concatenate(part) for part in zip(*captured))
            ours = ranking_summary(filtered_ranks(scores, heads, rels, targets, known))
            theirs = {"mr": result.mr, "mrr": result.mrr,
                      **{f"hits@{n}": v for n, v in result.hits.items()}}
            self.checks.expect(ours == theirs,
                               f"final eval: evaluator {theirs} != reference {ours}")
            baseline = random_mrr(heads, rels, targets, split.num_entities, known)
            self.checks.expect(
                result.mrr > baseline,
                f"final MRR {result.mrr:.3f} does not beat random {baseline:.3f}")
        del objective.batches, objective.loss, evaluator.rank_scores

    # ------------------------------------------------------------------
    def _cold_start(self, key: tuple[int, int]) -> PredictionEngine | None:
        """Load the bundle into a new engine and answer one filtered query."""
        with self.probe.timing(
                (PredictionEngine, "from_bundle", "serve.bundle_load"),
                (repro.serve.engine, "build_csr_filter", "serve.filter_build")):
            engine = self._attempt(PredictionEngine.from_bundle, self.bundle,
                                   cache_size=CACHE_SIZE)
            if engine is not None and \
                    self._attempt(engine.top_k_tails, *key, TOP_K, filter_known=True):
                return engine
        return None

    def _serve(self) -> None:
        """The serving work that follows one training batch.

        The bulk batches run on the last cold-started engine: batched
        rows may differ from single-query rows in the last bit, so they
        stay out of the serving engine's row cache.
        """
        workload, engine, hits = self.workload, self.engine, self.hits
        for _ in range(workload.rounds):
            done = len(self.latencies)
            for h, r in self.keys.round(workload.round_queries):
                before = hits.value
                tick = time.perf_counter()
                answer = self._attempt(engine.top_k_tails, h, r, TOP_K,
                                       filter_known=True)
                elapsed = time.perf_counter() - tick
                if answer is None:
                    continue
                self.latencies.append(elapsed)
                self.hit_count += hits.value > before
                self._check_answer(h, r, answer,
                                   fresh=len(self.latencies) % FRESH_CHECK_EVERY == 1)
            round_seconds = sum(self.latencies[done:])
            if round_seconds:
                self.round_rates.append((len(self.latencies) - done) / round_seconds)
            for _ in range(workload.round_appends):
                tick = time.perf_counter()
                triples = self.appender.append()
                if triples is not None:
                    self.append_ms.append(1e3 * (time.perf_counter() - tick))
                    self.known.add(triples)

        cold = None
        for _ in range(workload.cold_starts):
            tick = time.perf_counter()
            cold = self._cold_start(self.first)
            if cold is not None:
                self.cold_ms.append(1e3 * (time.perf_counter() - tick))
        if cold is None:
            return
        with self.probe.timing((cold.model, "predict_tails", "bulk.predict")):
            for _ in range(workload.bulk_batches):
                batch = np.array(self.bulk_keys.round(BULK_BATCH, distinct=True))
                tick = time.perf_counter()
                out = self._attempt(cold.scores, batch[:, 0], batch[:, 1])
                if out is not None:
                    self.bulk_laps.append((time.perf_counter() - tick, len(batch)))
                    self.last_bulk = (cold.model, batch, out)

    def _check_answer(self, h, r, answer, fresh) -> None:
        """The answer is the reference top-k of the engine's score row."""
        ids, scores = answer
        row = self.engine.scores([h], [r])[0]
        expected = top_k(row, self.known.get(h, r), TOP_K)
        self.checks.expect(np.array_equal(ids, expected)
                           and np.array_equal(scores, row[expected]),
                           f"top-k of ({h}, {r}) differs from the reference")
        if fresh:
            model_row = self.engine.model.predict_tails(np.array([h]), np.array([r]))[0]
            self.checks.expect(np.array_equal(row, model_row),
                               f"cached row ({h}, {r}) differs from a fresh forward")

    def _check_serving(self) -> None:
        """Old columns unchanged, appends filtered and rankable, bulk rows."""
        model = self.engine.model
        for (h, r), before_row in zip(self.watched, self.watched_rows):
            after = model.predict_tails(np.array([h]), np.array([r]))[0]
            self.checks.expect(np.array_equal(after[:self.old_entities], before_row),
                               f"old columns of ({h}, {r}) changed across appends")
        self.appender.check(self.engine)
        bulk_model, batch, out = self.last_bulk
        for i in range(4):
            single = bulk_model.predict_tails(batch[i:i + 1, 0], batch[i:i + 1, 1])[0]
            self.checks.expect(np.allclose(out[i], single, rtol=0.0, atol=1e-9),
                               f"bulk row {tuple(batch[i])} differs from the single-query row")

    def _probe_misses(self) -> None:
        """Traced run only: time single misses, split into their CamE
        parts, then the same keys again as cache hits."""
        engine, model = self.engine, self.engine.model
        keys = KeyStream(WORKLOADS["serve-longtail"], self.mkg, self.rng(9))
        engine.invalidate()
        probed = keys.round(PROBE_MISSES, distinct=True)
        with self.probe.timing((model, "predict_tails", "miss.predict"),
                               (model, "query_vectors", "miss.query_vectors"),
                               (model, "score_queries", "miss.score_queries")):
            for h, r in probed:
                engine.top_k_tails(h, r, TOP_K, filter_known=True)
        hit_seconds = []
        for h, r in probed:
            tick = time.perf_counter()
            engine.top_k_tails(h, r, TOP_K, filter_known=True)
            hit_seconds.append(time.perf_counter() - tick)
        self.record["hit_ms"] = 1e3 * statistics.median(hit_seconds)
        engine.invalidate()
        with self.probe.profiling("miss"):
            for h, r in keys.round(PROFILED_MISSES):
                engine.top_k_tails(h, r, TOP_K, filter_known=True)
        self.record["profiled_misses"] = PROFILED_MISSES


class KeyStream:
    """``(h, r)`` query keys drawn from one workload's distribution.

    Uniform workloads draw every ``(h, r)`` pair of the original entity
    table (inverse relations included) with replacement; hot workloads
    draw a fixed set of ``hot_keys`` training queries with Zipf weights.
    """

    def __init__(self, workload: Workload, mkg, rng: np.random.Generator) -> None:
        self.rng = rng
        self.num_entities = mkg.num_entities
        self.num_keys = mkg.num_entities * 2 * mkg.num_relations
        self.num_relations = mkg.num_relations
        self.hot = None
        if workload.hot_keys:
            train_keys = np.unique(mkg.split.train[:, :2], axis=0)
            chosen = rng.choice(len(train_keys), workload.hot_keys, replace=False)
            self.hot = train_keys[chosen]
            weights = 1.0 / np.arange(1, workload.hot_keys + 1) ** ZIPF_EXPONENT
            self.weights = weights / weights.sum()

    def round(self, count: int, distinct: bool = False) -> list[tuple[int, int]]:
        if self.hot is not None:
            picks = self.hot[self.rng.choice(len(self.hot), count, p=self.weights)]
            return [(int(h), int(r)) for h, r in picks]
        codes = self.rng.choice(self.num_keys, count, replace=not distinct)
        inverse = 2 * self.num_relations
        return [(int(c // inverse), int(c % inverse)) for c in codes]

    def relation_key(self) -> tuple[int, int]:
        """A key with an original (not inverse) relation, for new triples."""
        if self.hot is not None:
            h, r = self.hot[self.rng.integers(len(self.hot))]
            return int(h), int(r)
        return (int(self.rng.integers(self.num_entities)),
                int(self.rng.integers(self.num_relations)))


class Appender:
    """Appends unseen compounds, each with text, a molecule row and triples.

    Compound ``c`` joins the graph through ``(h1, r1, c)`` and
    ``(c, r2, h2)``, where ``(h1, r1)`` and ``(h2, r2)`` come from the
    workload's key distribution (hot keys on the hot workload).
    """

    def __init__(self, session: Session, keys: KeyStream,
                 rng: np.random.Generator) -> None:
        self.session = session
        self.keys = keys
        self.rng = rng
        self.dim = session.features.molecular.shape[1]
        self.appended: list[tuple[int, np.ndarray]] = []

    def append(self) -> np.ndarray | None:
        engine = self.session.engine
        name = f"perfbench-compound-{self.session.seed}-{len(self.appended)}"
        (h1, r1), (h2, r2) = self.keys.relation_key(), self.keys.relation_key()
        body = {
            "entities": [{
                "name": name, "type": "Compound",
                "description": f"{name} is an investigational compound "
                               f"screened against target family {h1 % 7}.",
                "molecule": self.rng.standard_normal(self.dim).tolist()}],
            "triples": [[h1, r1, name], [name, r2, h2]],
        }
        delta = self.session._attempt(apply_append, engine, body, source="perfbench")
        if delta is None:
            return None
        self.appended.append((delta.entity_ids[0], delta.triples))
        return delta.triples

    def check(self, engine) -> None:
        """Appended triples are filtered out; new entities are rankable."""
        expect = self.session.checks.expect
        inverse = engine.num_relations
        width = engine.num_entities
        checks = [(new_id, head, rel, tail)
                  for new_id, triples in self.appended
                  for h, r, t in triples.tolist()
                  for head, rel, tail in ((h, r, t), (t, r + inverse, h))]
        # One batched forward puts every checked row in the row cache.
        engine.scores([c[1] for c in checks], [c[2] for c in checks])
        for new_id, head, rel, tail in checks:
            ids, _ = engine.top_k_tails(head, rel, width, filter_known=True)
            expect(tail not in ids,
                   f"appended triple ({head}, {rel}, {tail}) not filtered")
            if tail == new_id:
                ids, scores = engine.top_k_tails(head, rel, width)
                ranked = np.flatnonzero(ids == new_id)
                expect(len(ranked) == 1 and np.isfinite(scores[ranked]).all(),
                       f"new entity {new_id} is not rankable for ({head}, {rel})")
