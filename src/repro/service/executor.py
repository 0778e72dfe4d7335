"""Batch evaluation of genomes against one problem.

:class:`SerialExecutor` is the batch executor: it implements the
``evaluate_batch(problem, genomes)`` interface (:class:`BatchExecutor`)
in the calling thread.  By default a batch is one chunk, so each call
hands the whole batch to the problem's ``evaluate_batch`` and from
there to the vectorised :class:`repro.model.engine.CostEngine`.
Results come back in input order, which keeps GA runs bit-identical
for a fixed seed whatever the chunking.  Under a trace, each call
records one ``executor.chunk`` span, however many chunks it ran.
:class:`ProblemEvaluator` binds an executor and an optional
:class:`~repro.service.cache.EvaluationCache` to one problem, exposing
the ``evaluate_batch(genomes)`` hook that :func:`repro.dse.nsga2.nsga2`
injects.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

if TYPE_CHECKING:  # the cache module loads only when a cache is passed
    from repro.service.cache import EvaluationCache

__all__ = [
    "BatchExecutor",
    "SerialExecutor",
    "ProblemEvaluator",
    "chunked",
]

Genome = tuple[int, ...]
Objectives = tuple[float, ...]


def chunked(items: Sequence, size: int) -> list[Sequence]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [items[i : i + size] for i in range(0, len(items), size)]


class _ExecutorMetrics:
    """Per-executor metric handles, re-resolved when the registry swaps.

    Families are looked up once per registry identity (not per batch),
    keeping the hot path at two attribute reads plus one identity
    check; :func:`~repro.obs.metrics.set_registry` (e.g. the overhead
    benchmark flipping to the null registry) invalidates the handles.
    """

    __slots__ = ("_registry", "evaluations", "chunk_seconds")

    def __init__(self) -> None:
        self._registry = None

    def resolve(self, backend: str) -> "_ExecutorMetrics":
        registry = get_registry()
        if registry is not self._registry:
            self._registry = registry
            self.evaluations = registry.counter(
                "repro_evaluations_total",
                "Genomes evaluated through the batch executor",
                ("backend",),
            ).labels(backend)
            self.chunk_seconds = registry.histogram(
                "repro_eval_chunk_seconds",
                "Latency of one evaluation chunk",
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
        """Release any held resources (idempotent)."""
        ...


class SerialExecutor:
    """Evaluate genome chunks in the calling thread.

    By default the whole batch is one engine chunk (the optimal serial
    granularity); an explicit ``chunk_size`` splits it, so the
    per-chunk latency histogram can be exercised and benchmarked.
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
        # One call per chunk: batch-capable problems (``DcimProblem``)
        # ship the whole chunk to their cost engine at once.
        batch = getattr(problem, "evaluate_batch", None)
        results: list[Objectives] = []
        chunk_times: list[float] = []
        for chunk in chunks:
            started = time.perf_counter()
            if batch is not None:
                fresh = list(batch(chunk))
            else:
                fresh = [problem.evaluate(genome) for genome in chunk]
            chunk_times.append(time.perf_counter() - started)
            results.extend(fresh)
        # One instrument transaction per batch, not per chunk: one span,
        # back-dated over the batch's chunks, and one histogram call
        # that still records every per-chunk latency.
        get_tracer().record_span(
            "executor.chunk",
            sum(chunk_times),
            attributes={"backend": self.name, "genomes": len(genomes)},
            category="executor",
        )
        metrics.chunk_seconds.observe_many(chunk_times)
        metrics.evaluations.inc(len(results))
        return results

    def close(self) -> None:
        pass


class ProblemEvaluator:
    """Cache-aware batch evaluator bound to one problem.

    This is the object :func:`repro.dse.nsga2.nsga2` accepts as its
    ``evaluator``: a single ``evaluate_batch(genomes)`` call per
    generation that

    1. deduplicates the batch,
    2. serves whatever the shared cache already knows through **one**
       :meth:`~repro.service.cache.EvaluationCache.get_many`,
    3. ships only the genuinely new genomes to the executor, and
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
        executor: batch executor; defaults to :class:`SerialExecutor`.
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
        from repro.service.cache import GenomeKeyer

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
