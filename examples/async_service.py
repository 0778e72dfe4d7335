"""Async serving: stream a campaign's progress and cancel another.

The :class:`~repro.service.jobs.JobQueue` is the in-process serving
API.  Asyncio code drives it through :func:`asyncio.to_thread`, so no
queue call stalls the event loop: here a ``JobQueue(workers=2)`` runs
two campaigns —

1. a short INT8/BF16 campaign whose progress events are streamed with
   a ``wait_events`` cursor loop while it runs, and
2. a deliberately long campaign that is cancelled cooperatively after
   its first few generation events, showing it stops well before its
   configured generation budget.

The same interactions work over a socket::

    python -m repro serve --port 8000 --workers 2 &
    python -m repro submit --url http://127.0.0.1:8000 --spec 8192:INT8 --watch

Usage::

    python examples/async_service.py
"""

import asyncio

from repro.service import CampaignRequest, EventKind, JobQueue, SpecRequest

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


async def events(queue: JobQueue, job_id: str):
    """Yield a job's progress events as they arrive, up to its last.

    Each ``wait_events`` call blocks (on a worker thread) for up to a
    second until the job's buffer holds events past ``cursor``, then
    returns the batch one short window collects (the terminal event at
    once).
    """
    cursor, done = 0, False
    while not done:
        batch, cursor, done = await asyncio.to_thread(
            queue.wait_events, job_id, cursor, 1.0
        )
        for event in batch:
            yield event


async def stream_short(queue: JobQueue) -> None:
    job_id = await asyncio.to_thread(queue.submit, SHORT)
    print(f"streaming {job_id}:")
    async for event in events(queue, job_id):
        print(f"  {event.describe()}")
    # The terminal event is emitted after the result is stored.
    response = await asyncio.to_thread(queue.result, job_id)
    print(
        f"{job_id}: {len(response.frontier)} frontier designs from "
        f"{response.evaluations} evaluations\n"
    )


async def cancel_long(queue: JobQueue) -> None:
    job_id = await asyncio.to_thread(queue.submit, LONG)
    print(f"cancelling {job_id} after three generations:")
    generations = 0
    async for event in events(queue, job_id):
        if event.kind is EventKind.GENERATION_DONE:
            generations += 1
            if generations == 3:
                await asyncio.to_thread(queue.cancel, job_id)
        if event.terminal:
            print(f"  {event.describe()}")
    status = await asyncio.to_thread(queue.status, job_id)
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

    queue = JobQueue(workers=2)
    try:
        await stream_short(queue)
        await cancel_long(queue)
    finally:
        await asyncio.to_thread(queue.close)
    print_live_metrics()
    print_trace_tree(tracer)


if __name__ == "__main__":
    asyncio.run(main())
