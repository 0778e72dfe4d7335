"""Instrumentation overhead on the batch-evaluation hot path.

The operations layer (Issue 6) promises that metrics stay cheap enough
to leave on everywhere: executors resolve their metric handles once per
registry identity and flush one batched histogram transaction (all the
per-chunk timings) plus one counter increment per batch.  This bench
times the same
evaluation workload against the real process-global registry and
against :data:`~repro.obs.metrics.NULL_REGISTRY` (all instruments
no-ops) and asserts the relative overhead stays under 3%.

The tracing layer (Issue 9) makes the same promise: a fully sampled
:class:`~repro.obs.trace.Tracer` (every trace kept) versus
:data:`~repro.obs.trace.NULL_TRACER` on the same workload must also
stay under the 3% gate.
"""

import statistics
import timeit

import pytest

from repro.core.spec import DcimSpec
from repro.dse.problem import DcimProblem
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, set_registry
from repro.obs.trace import NULL_TRACER, Tracer, get_tracer, set_tracer
from repro.reporting import ascii_table
from repro.service.executor import SerialExecutor

#: Allowed slowdown of the instrumented hot path (acceptance criterion).
MAX_OVERHEAD = 0.03


def _interleaved_overhead(
    evaluate, real, rounds: int = 160, null=NULL_REGISTRY, switch=set_registry
):
    """Median paired overhead ratio plus the best real/null times.

    Timing all real repeats and then all null repeats lets one
    background-load burst land entirely on one side and swing the ratio
    by tens of percent (this box is a single shared core), so each
    round times exactly one real and one null run back to back — the
    tightest possible pairing, a few ms, shorter than typical load
    bursts — alternating which goes first so a systematic
    first-position penalty cannot bill to one mode.  The reported
    overhead is the *median* of the per-round ratios: rounds wrecked by
    a burst cannot move it.  Each sample averages three runs so
    single-run scheduler jitter does not dominate the per-round ratio.
    ``switch``/``null`` select which global the modes toggle (metrics
    registry by default, tracer for the tracing gate).
    """
    def sample(mode):
        switch(mode)
        evaluate()  # re-resolve instrument handles outside the timed run
        return timeit.timeit(evaluate, number=3) / 3

    ratios, t_real, t_null = [], float("inf"), float("inf")
    for round_index in range(rounds):
        if round_index % 2 == 0:
            r, n = sample(real), sample(null)
        else:
            n, r = sample(null), sample(real)
        ratios.append(r / n)
        t_real, t_null = min(t_real, r), min(t_null, n)
    return statistics.median(ratios) - 1.0, t_real, t_null


@pytest.mark.bench
def test_instrumentation_overhead(record):
    problem = DcimProblem(DcimSpec(wstore=64 * 1024, precision="INT8"))
    genomes = problem.codec.enumerate()
    # Small chunks maximise per-chunk instrument traffic.  The program
    # always runs one chunk per batch, so 32-genome chunks bound the
    # instrument cost far above anything a real run pays.
    chunk_size = 32
    executor = SerialExecutor(chunk_size=chunk_size)

    def evaluate():
        return executor.evaluate_batch(problem, genomes)

    real = MetricsRegistry()
    previous = set_registry(real)
    try:
        baseline = evaluate()  # warms the engine memo for both modes
        set_registry(NULL_REGISTRY)
        assert evaluate() == baseline  # instruments never touch results
        overhead, t_real, t_null = _interleaved_overhead(evaluate, real)
    finally:
        set_registry(previous)

    chunks = (len(genomes) + chunk_size - 1) // chunk_size
    rows = [
        (f"null registry ({len(genomes)} genomes, {chunks} chunks)",
         "-", f"{t_null * 1e3:.2f} ms"),
        ("process-global registry", f"< {MAX_OVERHEAD:.0%} overhead",
         f"{t_real * 1e3:.2f} ms ({overhead:+.1%})"),
    ]
    record(
        "obs_overhead",
        ascii_table(["configuration", "budget", "measured"], rows),
    )
    assert overhead < MAX_OVERHEAD, (
        f"instrumentation overhead {overhead:+.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} (real {t_real * 1e3:.2f} ms vs "
        f"null {t_null * 1e3:.2f} ms)"
    )


@pytest.mark.bench
def test_tracing_overhead(record):
    """Fully sampled tracing vs NULL_TRACER on the evaluation hot path."""
    problem = DcimProblem(DcimSpec(wstore=64 * 1024, precision="INT8"))
    genomes = problem.codec.enumerate()
    chunk_size = 32  # matches the metrics gate: a worst-case granularity
    executor = SerialExecutor(chunk_size=chunk_size)

    def evaluate():
        # A root span makes the chunk spans record (the executor only
        # reports spans under an ambient trace) — exactly the traced
        # campaign shape, one span per chunk.
        with get_tracer().span("bench", root_if_orphan=True):
            return executor.evaluate_batch(problem, genomes)

    # A bounded ring with every trace kept: the worst-case retention.
    real = Tracer(sample_ratio=1.0, max_traces=8)
    previous_tracer = get_tracer()
    previous_registry = set_registry(NULL_REGISTRY)  # isolate tracing cost
    try:
        set_tracer(real)
        baseline = evaluate()
        set_tracer(NULL_TRACER)
        assert evaluate() == baseline  # spans never touch results
        overhead, t_real, t_null = _interleaved_overhead(
            evaluate, real, null=NULL_TRACER, switch=set_tracer
        )
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)

    chunks = (len(genomes) + chunk_size - 1) // chunk_size
    rows = [
        (f"null tracer ({len(genomes)} genomes, {chunks} chunks)",
         "-", f"{t_null * 1e3:.2f} ms"),
        ("sampled tracer (ratio 1.0)", f"< {MAX_OVERHEAD:.0%} overhead",
         f"{t_real * 1e3:.2f} ms ({overhead:+.1%})"),
    ]
    record(
        "trace_overhead",
        ascii_table(["configuration", "budget", "measured"], rows),
    )
    assert overhead < MAX_OVERHEAD, (
        f"tracing overhead {overhead:+.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} (traced {t_real * 1e3:.2f} ms vs "
        f"null {t_null * 1e3:.2f} ms)"
    )
