"""Evaluation service: cached, batched DSE campaigns.

The service layer turns the per-run, in-memory evaluation loop of the
MOGA explorer into shared infrastructure:

* :mod:`repro.service.cache` — content-addressed persistent evaluation
  cache (memory LRU + SQLite disk tier, hit/miss statistics), local to
  the process that runs the campaign,
* :mod:`repro.service.executor` — the serial batch executor behind the
  ``evaluate_batch`` interface, and the cache-aware evaluator the GA
  injects,
* :mod:`repro.service.campaign` — multi-spec campaign runner that
  shards specs across workers and merges fronts into one
  cross-architecture frontier,
* :mod:`repro.service.jobs` — job queue / background-worker scheduler
  with request deduplication, per-job status/result records, streaming
  progress events and cooperative cancellation; the in-process serving
  API (asyncio code calls it through :func:`asyncio.to_thread`),
* :mod:`repro.service.events` — typed, JSON-able campaign progress
  events and the bounded per-job event buffer,
* :mod:`repro.service.server` — the stdlib-only HTTP/JSON server that
  puts the job queue on a socket, and its client,
* :mod:`repro.service.distributed` — coordinator that shards campaigns
  into leasable per-spec work units (TTL leases, heartbeats, bounded
  retry, idempotent result submission),
* :mod:`repro.service.worker` — the ``repro worker`` loop that leases,
  evaluates (uncached) and submits units over the HTTP protocol,
* :mod:`repro.service.api` — typed, JSON round-trippable
  request/response records.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SCHEMA_VERSION",
    "CampaignCancelled",
    "CampaignEvent",
    "EventBuffer",
    "EventKind",
    "CampaignClient",
    "CampaignHTTPServer",
    "serve",
    "CacheStats",
    "EvaluationCache",
    "evaluation_key",
    "stable_hash",
    "WorkCoordinator",
    "CampaignWorker",
    "BatchExecutor",
    "SerialExecutor",
    "ProblemEvaluator",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "execute_request",
    "JobQueue",
    "JobRecord",
    "JobStatus",
    "SpecRequest",
    "CampaignRequest",
    "CampaignResponse",
    "FrontierPoint",
]

_EXPORTS = {
    "repro.service.api": (
        "SCHEMA_VERSION", "CampaignRequest", "CampaignResponse", "FrontierPoint",
        "SpecRequest",
    ),
    "repro.service.cache": ("CacheStats", "EvaluationCache", "evaluation_key"),
    "repro.core.hashing": ("stable_hash",),
    "repro.service.campaign": (
        "CampaignConfig", "CampaignResult", "execute_request", "run_campaign",
    ),
    "repro.service.events": (
        "CampaignCancelled", "CampaignEvent", "EventBuffer", "EventKind",
    ),
    "repro.service.executor": ("BatchExecutor", "ProblemEvaluator", "SerialExecutor"),
    "repro.service.distributed": ("WorkCoordinator",),
    "repro.service.jobs": ("JobQueue", "JobRecord", "JobStatus"),
    "repro.service.server": ("CampaignClient", "CampaignHTTPServer", "serve"),
    "repro.service.worker": ("CampaignWorker",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
