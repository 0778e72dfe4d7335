"""Evaluation service: run a cached multi-spec DSE campaign.

Explores two architectures (an INT8 and a BF16 candidate for the same
application) as one campaign: both NSGA-II runs share a persistent
evaluation cache and a batch executor, and their fronts are merged into
one cross-architecture frontier.  Running the campaign a second time
demonstrates the warm-cache path — every objective evaluation is served
from disk, so the run costs no model evaluations at all.

The same campaign can be driven from the command line::

    repro campaign --spec 8192:INT8 --spec 8192:BF16 \
        --exhaustive-threshold 0 \
        --cache build/evals.sqlite --workers 2

Both specs are small enough for exact enumeration, which is the default
route and never consults the cache; ``exhaustive_threshold=0`` keeps
them on NSGA-II, the route the cache serves.

For the progress-aware serving layer on top of this queue — streaming
generation-by-generation events and cancelling campaigns mid-flight,
in-process or over HTTP — see ``examples/async_service.py`` and the
``repro serve`` / ``repro submit`` / ``repro watch`` subcommands.

Usage::

    python examples/campaign_service.py [cache_path]
"""

import sys

from repro.core.spec import DcimSpec
from repro.dse.nsga2 import NSGA2Config
from repro.service import (
    CampaignConfig,
    CampaignRequest,
    EvaluationCache,
    JobQueue,
    SpecRequest,
    run_campaign,
)


def main(cache_path: str = "build/campaign_evals.sqlite") -> None:
    specs = [
        DcimSpec(wstore=8 * 1024, precision="INT8"),
        DcimSpec(wstore=8 * 1024, precision="BF16"),
    ]
    config = CampaignConfig(
        nsga2=NSGA2Config(population_size=32, generations=20),
        seed=0,
        workers=2,
        exhaustive_threshold=0,
    )

    for label in ("cold", "warm"):
        with EvaluationCache(cache_path) as cache:
            result = run_campaign(specs, config, cache=cache)
        stats = result.cache_stats
        print(
            f"{label} run: {len(result.merged_points)} frontier designs, "
            f"{result.evaluations} unique genomes, "
            f"hit rate {stats.hit_rate:.1%}, "
            f"wall time {result.wall_time_s * 1e3:.0f} ms"
        )

    print("\nMerged cross-architecture frontier (first 5 by area):")
    for point in result.merged_points[:5]:
        print(f"  {point.describe()}")

    # The same campaign through the job queue: identical requests are
    # deduplicated onto one job before any work happens.
    request = CampaignRequest(
        specs=tuple(SpecRequest.from_spec(s) for s in specs),
        population_size=32,
        generations=20,
        seed=0,
        exhaustive_threshold=0,
    )
    with EvaluationCache(cache_path) as cache:
        queue = JobQueue(cache=cache)
        first = queue.submit(request)
        second = queue.submit(request)
        queue.run_all()
        response = queue.result(first)
    print(
        f"\njob queue: {first} == {second} (deduplicated), "
        f"{len(response.frontier)} designs, "
        f"JSON payload {len(response.to_json())} bytes"
    )


if __name__ == "__main__":
    main(*sys.argv[1:])
