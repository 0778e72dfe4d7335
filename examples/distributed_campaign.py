"""Distributed execution: one coordinator, two worker processes.

Spawns ``repro serve --workers-remote`` (the coordinator: it shards
each submitted campaign into per-spec work units and leases them out)
plus two ``repro worker`` processes that drain the units, then submits
a two-spec campaign over HTTP and checks that the response equals
running the same request in-process, uncached, in every field but its
wall time.  Workers evaluate uncached: every genome of the campaign is
a fresh evaluation.

The same topology from the command line::

    repro serve --port 8000 --workers-remote --lease-ttl 30
    repro worker --url http://127.0.0.1:8000   # on each worker machine
    repro submit --url http://127.0.0.1:8000 --spec 4096:INT4 --watch

Usage::

    python examples/distributed_campaign.py
"""

import subprocess
import sys
import time

from repro.service import (
    CampaignClient,
    CampaignRequest,
    SpecRequest,
    execute_request,
)


def spawn(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def run(client: CampaignClient, request: CampaignRequest):
    job_id = client.submit(request)
    for event in client.watch(job_id):
        print(f"  event: {event.kind.value}")
    return client.result(job_id)


def main() -> None:
    coordinator = spawn(
        "serve", "--port", "0", "--workers-remote", "--lease-ttl", "10"
    )
    workers: list[subprocess.Popen] = []
    try:
        line = coordinator.stdout.readline()
        url = line.split()[3]
        print(f"coordinator up at {url}")
        client = CampaignClient(url, retries=4)
        while not client.healthy():
            time.sleep(0.1)

        for _ in range(2):
            workers.append(
                spawn("worker", "--url", url, "--poll", "0.1",
                      "--exit-idle", "30")
            )
        # Otherwise the first worker up can lease both units.
        while len(client.workers()) < 2:
            time.sleep(0.1)

        request = CampaignRequest(
            specs=(SpecRequest(4096, "INT4"), SpecRequest(8192, "INT8")),
            population_size=24,
            generations=8,
            seed=7,
            exhaustive_threshold=0,
        )
        print("submitting campaign to the worker pool...")
        response = run(client, request)
        print(f"distributed: {len(response.frontier)} frontier points, "
              f"{response.evaluations} evaluations "
              f"({response.fresh_evaluations} fresh)")

        for row in client.workers():
            print(f"  worker {row['worker_id']}: {row['units_done']} "
                  f"unit(s) done, state {row['state']}")

        distributed = response.to_dict()
        in_process = execute_request(request).to_dict()
        for payload in (distributed, in_process):
            del payload["wall_time_s"]
        print(f"equal to the uncached in-process run: "
              f"{distributed == in_process}")
    finally:
        for proc in workers:
            proc.terminate()
        coordinator.terminate()
        for proc in [*workers, coordinator]:
            proc.wait(timeout=30)


if __name__ == "__main__":
    main()
