"""Sharded filtered-ranking evaluation across worker processes.

Filtered ranking is embarrassingly parallel over queries:
:class:`ShardedEvaluator` partitions each query set into contiguous
chunks, forks one worker per chunk, and concatenates the returned rank
vectors in chunk order — so the merged rank histogram, and therefore
MR / MRR / Hits@k, is *exactly* what the single-process
:class:`~repro.eval.RankingEvaluator` produces (the parity test in
``tests/dist`` asserts equality, not closeness).

The workers inherit the parent's model replica and the read-only CSR
filter through fork copy-on-write — the filter is built once in the
parent and never copied or rebuilt.  A worker that dies or hangs simply
forfeits its chunk: the parent recomputes it in-process, so evaluation
degrades to slower-but-correct instead of deadlocking.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import time

import numpy as np

from ..eval import RankingEvaluator
from ..kg import KGSplit
from ..obs import disable_tracing

__all__ = ["ShardedEvaluator"]

logger = logging.getLogger("repro.dist")


def fork_available() -> bool:
    """Whether the platform supports the fork start method we rely on."""
    return "fork" in mp.get_all_start_methods()


def _eval_worker(evaluator: "ShardedEvaluator", model, queries: np.ndarray,
                 targets: np.ndarray, batch_size: int, index: int,
                 results: mp.Queue) -> None:
    # Runs in a forked child: tracing would interleave writes on the
    # parent's JSONL handle, so turn it off for this process only.
    disable_tracing()
    try:
        ranks = RankingEvaluator._ranks_for_queries(
            evaluator, model, queries, targets, batch_size)
        results.put((index, ranks))
    except Exception as exc:  # pragma: no cover - worker-side failure path
        results.put((index, f"{type(exc).__name__}: {exc}"))


class ShardedEvaluator(RankingEvaluator):
    """Drop-in :class:`RankingEvaluator` that fans ranking out to processes.

    Parameters beyond the base class:

    num_workers:
        Worker processes per ranking pass.  ``1`` (or a platform without
        ``fork``) runs everything in-process — the engine's
        ``world_size=1`` fast path.
    min_queries_per_worker:
        Below this per-worker share the fork overhead outweighs the
        parallelism and the pass stays in-process.
    timeout:
        Seconds to wait for worker chunks before recomputing the missing
        ones in the parent.
    """

    def __init__(self, split: KGSplit,
                 parts: tuple[str, ...] = ("train", "valid", "test"),
                 batch_size: int = 128,
                 num_workers: int = 2,
                 min_queries_per_worker: int = 32,
                 timeout: float = 120.0) -> None:
        super().__init__(split, parts=parts, batch_size=batch_size)
        self.num_workers = max(1, int(num_workers))
        self.min_queries_per_worker = min_queries_per_worker
        self.timeout = timeout
        #: Chunks the parent had to recompute across all passes (fault
        #: fallbacks); exposed for tests and ops visibility.
        self.recomputed_chunks = 0

    def _ranks_for_queries(self, model, queries: np.ndarray,
                           targets: np.ndarray, batch_size: int) -> np.ndarray:
        workers = min(self.num_workers,
                      max(1, len(queries) // max(1, self.min_queries_per_worker)))
        if workers <= 1 or not fork_available():
            return super()._ranks_for_queries(model, queries, targets, batch_size)

        bounds = np.linspace(0, len(queries), workers + 1).astype(int)
        chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:])
                  if hi > lo]
        ctx = mp.get_context("fork")
        results: mp.Queue = ctx.Queue()
        procs = []
        for index, (lo, hi) in enumerate(chunks):
            proc = ctx.Process(
                target=_eval_worker,
                args=(self, model, queries[lo:hi], targets[lo:hi],
                      batch_size, index, results),
                daemon=True)
            proc.start()
            procs.append(proc)

        collected: dict[int, np.ndarray] = {}
        deadline = time.monotonic() + self.timeout
        while len(collected) < len(chunks) and time.monotonic() < deadline:
            try:
                index, payload = results.get(timeout=0.05)
            except Exception:
                # Nothing queued: if every straggler is dead, drain once
                # more then stop waiting for chunks that can never come.
                if all(not p.is_alive() for i, p in enumerate(procs)
                       if i not in collected):
                    try:
                        while True:
                            index, payload = results.get(timeout=0.2)
                            if isinstance(payload, np.ndarray):
                                collected[index] = payload
                    except Exception:
                        pass
                    break
                continue
            if isinstance(payload, np.ndarray):
                collected[index] = payload
            else:
                logger.warning("eval worker %d failed: %s", index, payload)
        for proc in procs:
            proc.join(timeout=0.5)
            if proc.is_alive():  # pragma: no cover - hung-worker cleanup
                proc.terminate()
                proc.join(timeout=1.0)
        results.close()

        ranks = np.zeros(len(queries))
        for index, (lo, hi) in enumerate(chunks):
            chunk = collected.get(index)
            if chunk is None:
                # Fault fallback: exactness is preserved because the
                # parent reruns the identical chunk single-process.
                self.recomputed_chunks += 1
                logger.warning("recomputing eval chunk %d/%d in parent",
                               index + 1, len(chunks))
                chunk = super()._ranks_for_queries(
                    model, queries[lo:hi], targets[lo:hi], batch_size)
            ranks[lo:hi] = chunk
        return ranks
