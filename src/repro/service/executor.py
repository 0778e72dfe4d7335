"""Pluggable batch evaluators for objective evaluation.

Three backends implement one ``evaluate_batch(problem, genomes)``
interface:

* :class:`SerialExecutor` — in-process loop (zero overhead, the
  baseline),
* :class:`ThreadPoolExecutor` — shared-memory workers; useful once the
  estimation models call into native code or the cache disk tier
  dominates,
* :class:`ProcessPoolExecutor` — true parallel CPython workers; the
  problem object is pickled once per chunk.

All backends chunk the genome list so per-task overhead is amortised,
and all preserve input order, which keeps GA runs bit-identical across
backends.  Task granularity is the *chunk*, not the genome: each task
calls the problem's ``evaluate_batch`` once, which hands the whole
chunk to the vectorised :class:`repro.model.engine.CostEngine` — so
parallelism multiplies the batch speedup instead of fragmenting it.
:class:`ProblemEvaluator` binds a backend and an optional
:class:`~repro.service.cache.EvaluationCache` to one problem, exposing
the ``evaluate_batch(genomes)`` hook that :func:`repro.dse.nsga2.nsga2`
injects.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import threading
import time
from typing import Callable, Protocol, Sequence

from repro.obs.metrics import get_registry
from repro.obs.trace import current_span, get_tracer
from repro.service.cache import EvaluationCache, GenomeKeyer

__all__ = [
    "BatchExecutor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "ProblemEvaluator",
    "make_executor",
    "chunked",
    "EXECUTOR_BACKENDS",
]

Genome = tuple[int, ...]
Objectives = tuple[float, ...]

#: Backend names accepted by :func:`make_executor` and the CLI.
EXECUTOR_BACKENDS = ("serial", "thread", "process")


def chunked(items: Sequence, size: int) -> list[Sequence]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [items[i : i + size] for i in range(0, len(items), size)]


def _evaluate_chunk(problem, genomes: Sequence[Genome]) -> list[Objectives]:
    """Worker entry point; module-level so process pools can pickle it.

    One call per chunk: batch-capable problems (``DcimProblem``) ship
    the whole chunk to their cost engine in a single evaluation.
    """
    batch = getattr(problem, "evaluate_batch", None)
    if batch is not None:
        return list(batch(genomes))
    return [problem.evaluate(genome) for genome in genomes]


def _evaluate_chunk_timed(
    problem, genomes: Sequence[Genome]
) -> tuple[float, list[Objectives]]:
    """:func:`_evaluate_chunk` plus its worker-side wall time.

    Module-level and returning plain picklable data, so process pools
    can measure the chunk *where it ran* — the parent observes the
    elapsed time into its own registry (child-side counters would be
    lost with the worker process).
    """
    started = time.perf_counter()
    results = _evaluate_chunk(problem, genomes)
    return time.perf_counter() - started, results


class _ExecutorMetrics:
    """Per-executor metric handles, re-resolved when the registry swaps.

    Families are looked up once per registry identity (not per batch),
    keeping the hot path at two attribute reads plus one identity
    check; :func:`~repro.obs.metrics.set_registry` (e.g. the overhead
    benchmark flipping to the null registry) invalidates the handles.
    """

    __slots__ = ("_registry", "evaluations", "chunk_seconds", "pool_rebuilds")

    def __init__(self) -> None:
        self._registry = None

    def resolve(self, backend: str) -> "_ExecutorMetrics":
        registry = get_registry()
        if registry is not self._registry:
            self._registry = registry
            self.evaluations = registry.counter(
                "repro_evaluations_total",
                "Genomes evaluated through the batch executors",
                ("backend",),
            ).labels(backend)
            self.chunk_seconds = registry.histogram(
                "repro_eval_chunk_seconds",
                "Worker-side latency of one evaluation chunk",
                ("backend",),
            ).labels(backend)
            self.pool_rebuilds = registry.counter(
                "repro_executor_pool_rebuilds_total",
                "Worker pools rebuilt after a BrokenExecutor failure",
                ("backend",),
            ).labels(backend)
        return self


class BatchExecutor(Protocol):
    """Anything that can evaluate many genomes against one problem."""

    name: str

    def evaluate_batch(
        self, problem, genomes: Sequence[Genome]
    ) -> list[Objectives]:
        """Objective vectors for ``genomes``, in input order."""
        ...

    def close(self) -> None:
        """Release worker resources (idempotent)."""
        ...


class SerialExecutor:
    """Evaluate genome chunks in the calling thread.

    By default the whole batch is one engine chunk (the optimal serial
    granularity); an explicit ``chunk_size`` is honoured so chunking
    behaviour can be exercised and benchmarked on any backend.
    """

    name = "serial"

    def __init__(self, chunk_size: int | None = None) -> None:
        self.chunk_size = chunk_size
        self._metrics = _ExecutorMetrics()

    def evaluate_batch(
        self, problem, genomes: Sequence[Genome]
    ) -> list[Objectives]:
        metrics = self._metrics.resolve(self.name)
        if self.chunk_size is None or len(genomes) <= self.chunk_size:
            chunks = [genomes]
        else:
            chunks = chunked(list(genomes), self.chunk_size)
        tracer, trace_parent = get_tracer(), current_span()
        results: list[Objectives] = []
        chunk_times: list[float] = []
        end_times: list[float] | None = (
            [] if trace_parent is not None else None
        )
        for chunk in chunks:
            elapsed, fresh = _evaluate_chunk_timed(problem, chunk)
            chunk_times.append(elapsed)
            results.extend(fresh)
            if end_times is not None:
                # One float per chunk is the entire hot-loop tracing
                # cost; the series records each span back-dated to its
                # true wall-clock slot.
                end_times.append(time.time())
        # One instrument transaction per batch, not per chunk: the
        # histogram still records every per-chunk latency, but the
        # lock/call overhead is paid once.  Chunk spans batch the same
        # way.
        if end_times:
            tracer.record_span_series(
                "executor.chunk",
                chunk_times,
                end_times,
                parent=trace_parent,
                category="executor",
                attributes={"backend": self.name},
                per_span=("genomes", [len(c) for c in chunks]),
            )
        metrics.chunk_seconds.observe_many(chunk_times)
        metrics.evaluations.inc(len(results))
        return results

    def close(self) -> None:
        pass


class _PoolExecutor:
    """Shared chunk-scatter/order-preserving-gather logic for pools."""

    name = "pool"
    _pool_factory: Callable[..., concurrent.futures.Executor]

    def __init__(
        self, workers: int | None = None, chunk_size: int | None = None
    ) -> None:
        self.workers = workers or max(os.cpu_count() or 2, 2)
        self.chunk_size = chunk_size
        self._pool: concurrent.futures.Executor | None = None
        self._pool_lock = threading.Lock()
        self._metrics = _ExecutorMetrics()

    def _ensure_pool(self) -> concurrent.futures.Executor:
        # Campaign workers share one executor; without the lock two
        # threads could each create a pool and leak the loser's workers.
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._pool_factory(max_workers=self.workers)
            return self._pool

    def _rebuild_pool(self) -> None:
        """Drop a broken pool so the next batch spawns fresh workers."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None

    def _chunk_size_for(self, n: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        # Aim for a few chunks per worker so stragglers even out, while
        # keeping chunks large enough to amortise submission overhead.
        return max(1, math.ceil(n / (4 * self.workers)))

    def _scatter_gather(
        self, problem, chunks: list, timed: bool
    ) -> tuple[list[float], list[float] | None, list[Objectives]]:
        """Submit every chunk and gather results in input order.

        The timed wrapper measures each chunk where it ran (worker
        side); the parent records it — process-pool children would
        lose any metrics (or spans) they created themselves.
        """
        pool = self._ensure_pool()
        futures = [
            pool.submit(_evaluate_chunk_timed, problem, chunk)
            for chunk in chunks
        ]
        results: list[Objectives] = []
        chunk_times: list[float] = []
        end_times: list[float] | None = [] if timed else None
        for future in futures:
            elapsed, fresh = future.result()
            chunk_times.append(elapsed)
            results.extend(fresh)
            if end_times is not None:
                # End time = arrival at the parent; the series record
                # back-dates by the worker-side elapsed time.
                end_times.append(time.time())
        return chunk_times, end_times, results

    def evaluate_batch(
        self, problem, genomes: Sequence[Genome]
    ) -> list[Objectives]:
        if not genomes:
            return []
        metrics = self._metrics.resolve(self.name)
        tracer, trace_parent = get_tracer(), current_span()
        chunks = chunked(list(genomes), self._chunk_size_for(len(genomes)))
        if len(chunks) == 1:
            elapsed, results = _evaluate_chunk_timed(problem, chunks[0])
            metrics.chunk_seconds.observe(elapsed)
            metrics.evaluations.inc(len(chunks[0]))
            if trace_parent is not None:
                tracer.record_span(
                    "executor.chunk",
                    elapsed,
                    attributes={
                        "backend": self.name, "genomes": len(chunks[0]),
                    },
                    parent=trace_parent,
                    category="executor",
                )
            return results
        try:
            chunk_times, end_times, results = self._scatter_gather(
                problem, chunks, timed=trace_parent is not None
            )
        except concurrent.futures.BrokenExecutor as exc:
            # A worker died mid-chunk (OOM kill, hard crash): the pool
            # is unusable and *every* outstanding future raises.  The
            # evaluation is deterministic, so rebuild the pool and
            # retry the whole batch once; a second death is structural
            # and surfaces as a structured failure instead of a hang.
            metrics.pool_rebuilds.inc()
            self._rebuild_pool()
            try:
                chunk_times, end_times, results = self._scatter_gather(
                    problem, chunks, timed=trace_parent is not None
                )
            except concurrent.futures.BrokenExecutor as retry_exc:
                self.close()
                raise RuntimeError(
                    f"{self.name} executor pool died evaluating a batch "
                    f"of {len(genomes)} genomes in {len(chunks)} chunks, "
                    f"and again after rebuilding the pool: "
                    f"{type(retry_exc).__name__}: {retry_exc or exc}"
                ) from retry_exc
        if end_times:
            tracer.record_span_series(
                "executor.chunk",
                chunk_times,
                end_times,
                parent=trace_parent,
                category="executor",
                attributes={"backend": self.name},
                per_span=("genomes", [len(c) for c in chunks]),
            )
        metrics.chunk_seconds.observe_many(chunk_times)
        metrics.evaluations.inc(len(results))
        return results

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ThreadPoolExecutor(_PoolExecutor):
    """Thread-pool backend (shared memory, no pickling)."""

    name = "thread"
    _pool_factory = staticmethod(concurrent.futures.ThreadPoolExecutor)


class ProcessPoolExecutor(_PoolExecutor):
    """Process-pool backend (true parallelism; problem pickled per chunk)."""

    name = "process"
    _pool_factory = staticmethod(concurrent.futures.ProcessPoolExecutor)


def make_executor(
    backend: str = "serial",
    workers: int | None = None,
    chunk_size: int | None = None,
) -> BatchExecutor:
    """Construct a batch executor by backend name."""
    if backend == "serial":
        return SerialExecutor(chunk_size)
    if backend == "thread":
        return ThreadPoolExecutor(workers, chunk_size)
    if backend == "process":
        return ProcessPoolExecutor(workers, chunk_size)
    raise ValueError(
        f"unknown executor backend {backend!r}; choose from {EXECUTOR_BACKENDS}"
    )


class ProblemEvaluator:
    """Cache-aware batch evaluator bound to one problem.

    This is the object :func:`repro.dse.nsga2.nsga2` accepts as its
    ``evaluator``: a single ``evaluate_batch(genomes)`` call per
    generation that

    1. deduplicates the batch,
    2. serves whatever the shared cache already knows through **one**
       :meth:`~repro.service.cache.EvaluationCache.get_many`,
    3. ships only the genuinely new genomes to the executor backend, and
    4. writes fresh results back through **one**
       :meth:`~repro.service.cache.EvaluationCache.put_many`.

    So a generation costs one batched disk read plus one batched disk
    transaction, never one round trip per genome.  Only the GA route
    evaluates through it: the exhaustive route
    (:meth:`~repro.dse.explorer.DesignSpaceExplorer.explore_exhaustive`)
    hands its enumeration straight to the executor, because keying and
    storing a few hundred genomes costs more than evaluating them.

    Args:
        problem: the problem instance (must offer ``evaluate`` or
            ``evaluate_batch``).
        cache: shared evaluation cache; ``None`` disables caching.
        executor: batch backend; defaults to :class:`SerialExecutor`.
        key_fn: maps a genome to a cache key.  Defaults to a
            :class:`~repro.service.cache.GenomeKeyer` over the
            problem's ``spec``/``library`` attributes (the
            :class:`~repro.dse.problem.DcimProblem` shape) — the
            context is hashed once, per-genome keys are one hashlib
            update, and the keys are bit-identical to
            :func:`~repro.service.cache.evaluation_key`.  Problems
            without those attributes run uncached unless a key
            function is supplied.
    """

    def __init__(
        self,
        problem,
        cache: EvaluationCache | None = None,
        executor: BatchExecutor | None = None,
        key_fn: Callable[[Genome], str] | None = None,
    ) -> None:
        self.problem = problem
        self.cache = cache
        self.executor = executor or SerialExecutor()
        if key_fn is None and cache is not None:
            key_fn = self._default_key_fn(problem)
            if key_fn is None:
                self.cache = None
        self.key_fn = key_fn
        #: Genomes actually evaluated (cache misses) through this evaluator.
        self.evaluated = 0

    @staticmethod
    def _default_key_fn(problem) -> Callable[[Genome], str] | None:
        spec = getattr(problem, "spec", None)
        library = getattr(problem, "library", None)
        if spec is None or library is None:
            return None
        return GenomeKeyer.for_problem(spec, library)

    def evaluate_batch(self, genomes: Sequence[Genome]) -> list[Objectives]:
        """Objective vectors for ``genomes``, in input order."""
        unique: dict[Genome, Objectives | None] = dict.fromkeys(genomes)
        pending: list[Genome] = []
        pending_keys: list[str] = []
        if self.cache is not None and self.key_fn is not None:
            order = list(unique)
            keys = [self.key_fn(genome) for genome in order]
            for genome, key, hit in zip(order, keys, self.cache.get_many(keys)):
                if hit is not None:
                    unique[genome] = hit
                else:
                    pending.append(genome)
                    pending_keys.append(key)
        else:
            pending = list(unique)
        if pending:
            fresh = self.executor.evaluate_batch(self.problem, pending)
            self.evaluated += len(pending)
            updates: dict[str, Objectives] = {}
            for i, (genome, objectives) in enumerate(zip(pending, fresh)):
                objectives = tuple(objectives)
                unique[genome] = objectives
                if pending_keys:
                    updates[pending_keys[i]] = objectives
            if updates and self.cache is not None:
                self.cache.put_many(updates)
        return [unique[genome] for genome in genomes]

    def close(self) -> None:
        self.executor.close()
