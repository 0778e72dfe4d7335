"""Async serving: stream a campaign's progress and cancel another.

Demonstrates the progress-aware serving core on top of the evaluation
service: an :class:`~repro.service.server.AsyncCampaignService` backed
by background workers runs two campaigns —

1. a short INT8/BF16 campaign whose per-generation events are streamed
   with ``async for`` while it runs, and
2. a deliberately long campaign that is cancelled cooperatively after
   its first few generation events, showing it stops well before its
   configured generation budget.

Both share one in-memory :class:`~repro.service.cache.EvaluationCache`;
the short campaign's small spaces are enumerated exactly (the default
route), so only the forced-GA campaign consults it.  The same
interactions work over a socket::

    python -m repro serve --port 8000 --workers 2 &
    python -m repro submit --url http://127.0.0.1:8000 --spec 8192:INT8 --watch

Usage::

    python examples/async_service.py
"""

import asyncio

from repro.service import (
    AsyncCampaignService,
    CampaignRequest,
    EvaluationCache,
    EventKind,
    SpecRequest,
)

SHORT = CampaignRequest(
    specs=(SpecRequest(8192, "INT8"), SpecRequest(8192, "BF16")),
    population_size=32,
    generations=12,
    seed=0,
)
LONG = CampaignRequest(
    specs=(SpecRequest(8192, "INT8"),),
    population_size=32,
    generations=500,  # far more than we intend to wait for
    seed=1,
    # Small dcim spaces default to instant exhaustive enumeration,
    # which would leave nothing to cancel — force the GA for the demo.
    exhaustive_threshold=0,
)


async def stream_short(service: AsyncCampaignService) -> None:
    job_id = await service.submit(SHORT)
    print(f"streaming {job_id}:")
    async for event in service.events(job_id):
        print(f"  {event.describe()}")
    response = await service.result(job_id)
    print(
        f"{job_id}: {len(response.frontier)} frontier designs, "
        f"{response.fresh_evaluations}/{response.evaluations} computed fresh\n"
    )


async def cancel_long(service: AsyncCampaignService) -> None:
    job_id = await service.submit(LONG)
    print(f"cancelling {job_id} after three generations:")
    generations = 0
    async for event in service.events(job_id):
        if event.kind is EventKind.GENERATION_DONE:
            generations += 1
            if generations == 3:
                await service.cancel(job_id)
        if event.terminal:
            print(f"  {event.describe()}")
    status = await service.status(job_id)
    print(
        f"{job_id}: status {status.value} after {generations} of "
        f"{LONG.generations} configured generations"
    )


def print_live_metrics() -> None:
    """Everything above also fed the process-global metrics registry.

    This is the same registry ``GET /metrics`` (Prometheus text) and
    ``GET /api/metrics`` (this ``to_dict()`` document) serve over HTTP.
    """
    from repro.obs import get_registry

    interesting = {
        "repro_evaluations_total",
        "repro_jobs_submitted_total",
        "repro_jobs_total",
        "repro_campaign_generations_total",
        "repro_cache_hits_total",
        "repro_job_run_seconds",
    }
    print("\nlive metrics (subset of /api/metrics):")
    for family in get_registry().to_dict()["metrics"]:
        if family["name"] not in interesting:
            continue
        for series in family["series"]:
            labels = ",".join(f"{k}={v}" for k, v in series["labels"].items())
            name = f"{family['name']}{{{labels}}}" if labels else family["name"]
            if family["kind"] == "histogram":
                print(f"  {name} count={series['count']} p95={series['p95']:g}")
            else:
                print(f"  {name} = {series['value']:g}")


def print_trace_tree(tracer) -> None:
    """Show where the newest campaign's time went, span by span.

    Every campaign above also produced an end-to-end trace (queue wait
    -> run -> campaign -> specs -> generations -> executor chunks).
    This renders the newest campaign trace the way
    ``repro trace show <id>`` would.
    """
    from repro.obs.trace import trace_tree

    records = [r for r in tracer.finished() if r.name != "null"]
    if not records:
        print("\nno finished traces (unexpected)")
        return
    print("\ntrace of the most recent campaign:")
    print(trace_tree(records[0].spans))


async def main() -> None:
    # Install a fresh process tracer, so the trace printed at the end
    # is this demo's; every completed trace is kept.
    from repro.obs.trace import Tracer, set_tracer

    tracer = Tracer()
    set_tracer(tracer)

    cache = EvaluationCache()
    async with AsyncCampaignService(workers=2, cache=cache) as service:
        await stream_short(service)
        await cancel_long(service)
    print(f"\nshared cache: {cache.stats.hits} hits / {cache.stats.misses} misses")
    print_live_metrics()
    print_trace_tree(tracer)


if __name__ == "__main__":
    asyncio.run(main())
