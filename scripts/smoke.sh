#!/usr/bin/env bash
# Smoke test: tier-1 suite plus a tiny end-to-end campaign through the
# evaluation service (cold run populates the cache, warm run must be
# served from it). Run from anywhere; exercises the hot path every PR.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (critical rules) =="
    ruff check src tests examples benchmarks
else
    echo "== ruff not installed; skipping lint (CI runs it) =="
fi

python -m pytest -x -q

echo "== server tests under -X dev: no ResourceWarning =="
# Every server, queue, socket and pipe these tests open must be closed;
# development mode reports one that is left to the garbage collector.
if ! dev_output="$(python -X dev -m pytest -q tests/test_service_server.py \
        tests/test_distributed.py tests/test_obs_trace.py \
        tests/test_service_events.py tests/test_service_jobs_api.py 2>&1)"; then
    echo "$dev_output"
    echo "smoke: the server tests failed under -X dev" >&2
    exit 1
fi
tail -n 1 <<<"$dev_output"
if grep -q "ResourceWarning" <<<"$dev_output"; then
    grep "ResourceWarning" <<<"$dev_output" >&2
    echo "smoke: the server tests leaked a resource under -X dev" >&2
    exit 1
fi

echo "== property tests under the random 'explore' hypothesis profile =="
# Tier-1 runs every @given test derandomised (tests/conftest.py); this
# pass draws fresh examples so exploration is not lost.
mapfile -t given_files < <(grep -l "@given" tests/*.py)
python -m pytest -x -q --hypothesis-profile=explore "${given_files[@]}"

echo "== batch/scalar parity =="
python - <<'PY'
from repro.core.spec import DcimSpec
from repro.dse.problem import DcimProblem, objectives_of

for precision in ("INT8", "BF16"):
    problem = DcimProblem(DcimSpec(wstore=4096, precision=precision))
    genomes = problem.codec.enumerate()
    scalar = [
        objectives_of(problem.codec.decode(g).macro_cost(problem.library))
        for g in genomes
    ]
    assert problem.evaluate_batch(genomes) == scalar, precision
    print(f"parity OK: {precision} ({len(genomes)} genomes)")
PY

echo "== wall-clock gates (bench marker: overhead <3% x2, engine and GA kernels >=3x, cache >=5x, Pareto filter >=1.5x) =="
# Tier-1 deselects these; each must pass here, with its bound as set in
# the test.  They record benchmarks/results/*.txt as they go.
if ! bench_output="$(python -m pytest -m bench -q benchmarks 2>&1)"; then
    echo "$bench_output"
    echo "smoke: a wall-clock gate failed" >&2
    exit 1
fi
echo "$bench_output"
if ! grep -qE "^6 passed, [0-9]+ deselected" <<<"$bench_output"; then
    echo "smoke: expected exactly 6 passing bench gates" >&2
    exit 1
fi

echo "== benchmark workloads: every op checked against its oracle =="
# A short run of each workload: exact fronts, merges, compile checks and
# HTTP responses are all checked; no timing is asserted.  The traced
# in_process run wraps every layer perfbench/tracing.py names (distill,
# lint, the verify checks ...), so a renamed or broken target fails here.
for run in "in_process 0" "service_http 0" "in_process 1"; do
    read -r workload trace <<<"$run"
    bench_json="$(python perfbench/run.py --workload "$workload" \
        --seed 1 --seconds 2 --trace "$trace" | tail -n 1)"
    python - "$workload" "$trace" "$bench_json" <<'PY'
import json
import sys

workload, trace, line = sys.argv[1], sys.argv[2], sys.argv[3]
result = json.loads(line)
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"smoke: perfbench {workload} --trace {trace} checks failed: {line[:300]}")
print(f"perfbench {workload} --trace {trace}: {result['attempted']} ops, all correct")
PY
done

workdir="$(mktemp -d)"
server_pid=""
worker_pids=()
cleanup() {
    [[ -n "$server_pid" ]] && kill "$server_pid" 2>/dev/null || true
    for pid in "${worker_pids[@]}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT

# Block until a serving coordinator answers GET /api/healthz — the same
# readiness handshake 'repro worker' runs before registering.
wait_healthy() {
    python - "$1" <<'PY'
import sys
import time

from repro.service import CampaignClient

client = CampaignClient(sys.argv[1], retries=4)
deadline = time.time() + 15
while time.time() < deadline:
    try:
        payload = client.health()
    except RuntimeError:
        payload = {}
    if payload.get("status") == "ok":
        print(f"healthz: version {payload['version']}, "
              f"queue depth {payload['queue_depth']}")
        sys.exit(0)
    time.sleep(0.2)
sys.exit("server never became healthy on /api/healthz")
PY
}
cache="$workdir/evals.sqlite"

echo "== compile --verify: gate-level sign-off and artifacts =="
for precision in INT8 FP16; do
    compile_dir="$workdir/${precision,,}"
    if ! compile_output="$(python -m repro compile --wstore 4096 \
            --precision "$precision" --verify --out "$compile_dir")"; then
        echo "smoke: repro compile --verify exited non-zero for $precision" >&2
        exit 1
    fi
    echo "$compile_output"
    if ! grep -q "^verification: .*PASS" <<<"$compile_output"; then
        echo "smoke: $precision gate-level verification did not PASS" >&2
        exit 1
    fi
done
if ! compgen -G "$workdir/int8/rtl/tb_*.v" >/dev/null; then
    echo "smoke: INT8 compile wrote no rtl/tb_*.v testbench" >&2
    exit 1
fi

# The GA route is the one that reads and writes the evaluation cache
# (exhaustive specs bypass it), so the cold/warm check forces it.
run_campaign() {
    python -m repro campaign \
        --spec 4096:INT4 --spec 4096:INT8 \
        --population 16 --generations 6 --exhaustive-threshold 0 \
        --cache "$cache" --limit 5
}

echo "== cache key parity: pre-PR cache file resolves hit-for-hit =="
# The writer is pinned to the *pre-PR* key formula and to the on-disk
# layout of the removed JSONL tier — plain file writes, no cache
# classes.  'repro cache migrate' imports it into SQLite, so any drift
# in GenomeKeyer or in the import shows up as a miss here.
legacy_cache="$workdir/legacy_evals.jsonl"
migrated_cache="$workdir/legacy_evals.sqlite"
python - "$legacy_cache" <<'PY'
import dataclasses
import hashlib
import json
import sys

from repro.core.spec import DcimSpec
from repro.dse.problem import DcimProblem
from repro.tech.cells import CellLibrary


def sha(payload):  # the pre-PR stable_hash, frozen
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


spec = DcimSpec(wstore=4096, precision="INT8")
library = CellLibrary.default()
cells = {name: (c.area, c.delay, c.energy) for name, c in library.cells.items()}
context = sha({
    "spec": dataclasses.asdict(spec),
    "library": {"name": library.name, "cells": cells},
})
genomes = DcimProblem(spec, library).codec.enumerate()
with open(sys.argv[1], "w", encoding="utf-8") as out:
    for i, genome in enumerate(genomes):
        key = sha({"genome": list(genome), "context": context})
        out.write(json.dumps({"key": key, "objectives": [float(i), -1.0]}) + "\n")
print(f"pinned writer: {len(genomes)} pre-PR entries")
PY
migrate_output="$(python -m repro cache migrate "$legacy_cache" "$migrated_cache")"
echo "$migrate_output"
legacy_lines="$(wc -l <"$legacy_cache")"
if ! grep -q "^migrated $legacy_lines entries: .* \[jsonl\] -> .* ($legacy_lines stored)$" <<<"$migrate_output"; then
    echo "smoke: repro cache migrate did not import every JSONL line" >&2
    exit 1
fi
python - "$migrated_cache" <<'PY'
import sys

from repro.core.spec import DcimSpec
from repro.dse.problem import DcimProblem
from repro.service.cache import EvaluationCache, GenomeKeyer
from repro.tech.cells import CellLibrary

spec = DcimSpec(wstore=4096, precision="INT8")
library = CellLibrary.default()
genomes = DcimProblem(spec, library).codec.enumerate()
keyer = GenomeKeyer.for_problem(spec, library)
with EvaluationCache(sys.argv[1]) as cache:
    assert cache.backend == "sqlite"
    results = cache.get_many([keyer(g) for g in genomes])
    assert all(r is not None for r in results), "pre-PR keys stopped resolving"
    assert cache.stats.hit_rate == 1.0
    assert [r[0] for r in results] == [float(i) for i in range(len(genomes))]
print(f"key parity: {len(genomes)}/{len(genomes)} pre-PR entries hit")
PY

echo "== point hash parity: served fronts keep their recorded content addresses =="
# The pinned formula is the point hash and objectives column every
# registry so far has written — plain hashlib/json, no store classes —
# so any drift in the design-point encoder shows up on a served front.
python - "$workdir/parity_runs.sqlite" <<'PY'
import hashlib
import json
import sqlite3
import sys
from contextlib import closing

from repro.service import CampaignClient, CampaignRequest
from repro.service.server import serve
from repro.store import RunStore


def sha(payload):  # stable_hash as recorded rows were hashed, frozen
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_hash(point):
    payload = {"precision": point.precision, "n": point.n, "h": point.h,
               "l": point.l, "k": point.k, "objectives": list(point.objectives)}
    if point.extras:
        payload["extras"] = point.extras
    return sha(payload)


requests = [
    CampaignRequest(specs=({"wstore": 4096, "precision": "INT8"},
                           {"wstore": 8192, "precision": "BF16"})),
    CampaignRequest(problem="mapping",
                    specs=({"network": "tiny_cnn", "wstore": 4096},),
                    population_size=12, generations=3),
]
store = RunStore(sys.argv[1])
server = serve(port=0, workers=1, store=store)
server.serve_in_background()
client = CampaignClient(server.url)
try:
    for request in requests:
        job_id = client.submit(request)
        for _ in client.watch(job_id):
            pass
        front = client.result(job_id).frontier
        run_id = client.status(job_id)["run_id"]
        assert front and run_id, f"{request.problem}: no recorded front"
        assert store.front_hashes(run_id) == [pinned_hash(p) for p in front], (
            f"{request.problem}: point hashes drifted from the pinned formula"
        )
        with closing(sqlite3.connect(sys.argv[1])) as conn:
            columns = [row[0] for row in conn.execute(
                "SELECT p.objectives FROM fronts f JOIN design_points p "
                "ON p.point_hash = f.point_hash WHERE f.run_id = ? "
                "ORDER BY f.position", (run_id,))]
        assert columns == [json.dumps(list(p.objectives)) for p in front], (
            f"{request.problem}: stored objectives columns drifted"
        )
        print(f"point hash parity: {request.problem} run, {len(front)} points")
finally:
    client.close()
    server.shutdown()
    server.server_close()
    server.queue.close()
    store.close()
PY

echo "== cache CLI: stats + migrated entries vs the JSONL lines =="
python -m repro cache stats "$migrated_cache"
python -m repro cache stats "$migrated_cache" --json
python - "$legacy_cache" "$migrated_cache" <<'PY'
import json
import sys

from repro.service.cache import EvaluationCache

expected = {}
with open(sys.argv[1], encoding="utf-8") as lines:
    for line in lines:
        record = json.loads(line)
        expected[record["key"]] = tuple(record["objectives"])
with EvaluationCache(sys.argv[2]) as dst:
    assert dict(dst.items()) == expected, "migration dropped or changed entries"
    print(f"migrate parity: {len(dst)} entries survived jsonl -> sqlite")
PY
# A JSONL log no longer opens as a cache: the error names the import.
legacy_status=0
legacy_stats="$(python -m repro cache stats "$legacy_cache" 2>&1)" || legacy_status=$?
echo "$legacy_stats"
if [[ "$legacy_status" -ne 1 ]] || ! grep -q "repro cache migrate" <<<"$legacy_stats"; then
    echo "smoke: 'repro cache stats' on a JSONL log did not exit 1 naming migrate" >&2
    exit 1
fi

echo "== campaign (cold cache) =="
run_campaign
echo "== campaign (warm cache) =="
warm_output="$(run_campaign)"
echo "$warm_output"

# The warm run must be fully served from the persistent cache.
if ! grep -q "hit rate 100.0%" <<<"$warm_output"; then
    echo "smoke: warm campaign run was not served from the cache" >&2
    exit 1
fi
if ! grep -q "strategy: 4096:INT4=ga, 4096:INT8=ga$" <<<"$warm_output"; then
    echo "smoke: --exhaustive-threshold 0 did not force the GA" >&2
    exit 1
fi

echo "== default route: exhaustive specs leave the cache untouched =="
bypass_cache="$workdir/bypass_evals.sqlite"
bypass_output="$(python -m repro campaign --spec 4096:INT4 --spec 4096:INT8 \
    --cache "$bypass_cache" --limit 3)"
echo "$bypass_output"
# These specs enumerate under the default threshold, so the run takes
# the exhaustive route, which never consults the cache.
if ! grep -q "strategy: .*=exhaustive" <<<"$bypass_output"; then
    echo "smoke: small-space campaign did not default to exhaustive" >&2
    exit 1
fi
if ! grep -q "cache\[sqlite\]: not consulted" <<<"$bypass_output"; then
    echo "smoke: exhaustive campaign did not report an unconsulted cache" >&2
    exit 1
fi
python - "$bypass_cache" <<'PY'
import sys

from repro.service.cache import EvaluationCache

with EvaluationCache(sys.argv[1]) as cache:
    assert len(cache) == 0, f"exhaustive campaign stored {len(cache)} entries"
print("default route: cache file left empty")
PY

echo "== retired flags: --engine/--ga-backend/--cache-flush-every/--backend/--chunk-size are unknown arguments =="
# Their one round as hidden, ignored flags is over: each must now fail
# argument parsing (exit 2) before any work starts.
for flag_value in "--engine numpy" "--ga-backend python" \
        "--cache-flush-every 128" "--backend thread" "--chunk-size 64"; do
    set +e
    # shellcheck disable=SC2086  # the flag and its value are two words
    python -m repro campaign --spec 4096:INT8 --limit 1 $flag_value \
        >"$workdir/retired.out" 2>"$workdir/retired.err"
    retired_status=$?
    set -e
    if [[ "$retired_status" -ne 2 ]] \
            || ! grep -q "unrecognized arguments: $flag_value" "$workdir/retired.err" \
            || [[ -s "$workdir/retired.out" ]]; then
        cat "$workdir/retired.err" >&2
        echo "smoke: retired flag '$flag_value' was not rejected (exit $retired_status)" >&2
        exit 1
    fi
done
echo "retired flags: all five rejected with exit 2"

echo "== retired serve flags: --trace-sample/--trace-slow/--verbose/--snapshot-every/--buffer/--log-level/--no-trace are unknown arguments =="
# Trace sampling, the stdlib access log, the metrics history, the
# per-job event-buffer size, the JSON-lines log and the tracing switch
# are gone; argument parsing fails before a port is bound.  The timeout
# only stops a server that a regression would start instead.
for flag_value in "--trace-sample 0.1" "--trace-slow 30" "--verbose" \
        "--snapshot-every 1" "--buffer 8" "--log-level info" "--no-trace"; do
    set +e
    # shellcheck disable=SC2086  # the flag and its value are two words
    timeout 30 python -m repro serve --port 0 $flag_value \
        >"$workdir/retired.out" 2>"$workdir/retired.err"
    retired_status=$?
    set -e
    if [[ "$retired_status" -ne 2 ]] \
            || ! grep -q "unrecognized arguments: $flag_value" "$workdir/retired.err" \
            || [[ -s "$workdir/retired.out" ]]; then
        cat "$workdir/retired.err" >&2
        echo "smoke: retired serve flag '$flag_value' was not rejected (exit $retired_status)" >&2
        exit 1
    fi
done
echo "retired serve flags: all seven rejected with exit 2"

echo "== out-of-range serve and worker numbers are usage errors =="
# Each serve value would make WorkCoordinator, AdmissionPolicy or
# JobQueue raise (a NaN TTL would make an idle queue worker spin, and a
# TTL of 0 purges a result before its watcher reads it), and each
# worker value would make an idle worker poll back to back or never
# exit; the argparse types reject it first, with exit 2 and nothing on
# stdout, before a port is bound or a coordinator contacted.
serve_argv="serve --port 0 --workers-remote"
worker_argv="worker --url http://127.0.0.1:9"
for range_argv in "$serve_argv|--lease-ttl 0" "$serve_argv|--unit-attempts 0" \
        "$serve_argv|--rate-limit 0" "$serve_argv|--burst 0" \
        "$serve_argv|--max-pending -1" "$serve_argv|--max-budget 0" \
        "$serve_argv|--ttl nan" "$serve_argv|--ttl -1" "$serve_argv|--ttl 0" \
        "$worker_argv|--poll 0" "$worker_argv|--poll -1" \
        "$worker_argv|--poll nan" "$worker_argv|--exit-idle 0" \
        "$worker_argv|--exit-idle nan" "$worker_argv|--max-units 0"; do
    flag_value="${range_argv#*|}"
    set +e
    # shellcheck disable=SC2086  # the command and flag are several words
    timeout 30 python -m repro ${range_argv%%|*} $flag_value \
        >"$workdir/range.out" 2>"$workdir/range.err"
    range_status=$?
    set -e
    if [[ "$range_status" -ne 2 ]] \
            || ! grep -q "argument ${flag_value% *}: expected a" "$workdir/range.err" \
            || [[ -s "$workdir/range.out" ]]; then
        cat "$workdir/range.err" >&2
        echo "smoke: out-of-range '$flag_value' was not a usage error (exit $range_status)" >&2
        exit 1
    fi
done
echo "out-of-range serve and worker numbers: all fifteen rejected with exit 2"

echo "== retired trace-store flags: trace list --store and runs gc --keep-traces are unknown arguments =="
# Traces live only in a server's ring: the run registry keeps no copy
# to list or prune, so both fail argument parsing before any work.
retired_store="$workdir/retired_runs.sqlite"
for retired_argv in "trace list|--store $retired_store" \
        "runs gc --store $retired_store|--keep-traces 0"; do
    flag_value="${retired_argv#*|}"
    set +e
    # shellcheck disable=SC2086  # the command and flag are several words
    python -m repro ${retired_argv%%|*} $flag_value \
        >"$workdir/retired.out" 2>"$workdir/retired.err"
    retired_status=$?
    set -e
    if [[ "$retired_status" -ne 2 ]] \
            || ! grep -q "unrecognized arguments: $flag_value" "$workdir/retired.err" \
            || [[ -s "$workdir/retired.out" ]]; then
        cat "$workdir/retired.err" >&2
        echo "smoke: retired flag '$flag_value' was not rejected (exit $retired_status)" >&2
        exit 1
    fi
done
echo "retired trace-store flags: both rejected with exit 2"

echo "== problem registry: discovery + a non-DCIM campaign =="
problems_output="$(python -m repro problems list)"
echo "$problems_output"
for problem in dcim mapping; do
    if ! grep -q "$problem" <<<"$problems_output"; then
        echo "smoke: 'repro problems list' does not list $problem" >&2
        exit 1
    fi
done
mapping_output="$(python -m repro campaign --problem mapping \
    --spec tiny_cnn:INT8 --population 12 --generations 3 --limit 3)"
echo "$mapping_output"
if ! grep -q "Merged mapping frontier" <<<"$mapping_output"; then
    echo "smoke: mapping campaign printed no frontier" >&2
    exit 1
fi

echo "== serve / submit / watch round trip =="
server_log="$workdir/serve.log"
# Create the log before the server starts: the readiness loop below
# reads it at once, before a busy host may have run the redirect.
: >"$server_log"
serve_store="$workdir/serve_runs.sqlite"
python -m repro serve --host 127.0.0.1 --port 0 --workers 1 \
    --cache "$workdir/serve_evals.sqlite" \
    --store "$serve_store" >"$server_log" 2>&1 &
server_pid=$!
url=""
for _ in $(seq 100); do
    url="$(sed -n 's|serving campaigns on \(http://[^ ]*\).*|\1|p' "$server_log")"
    [[ -n "$url" ]] && break
    sleep 0.1
done
if [[ -z "$url" ]]; then
    echo "smoke: campaign server did not come up" >&2
    cat "$server_log" >&2
    exit 1
fi
wait_healthy "$url"
submit_output="$(python -m repro submit --url "$url" \
    --spec 4096:INT4 --population 16 --generations 6 --watch)"
echo "$submit_output"
if ! grep -q "campaign done" <<<"$submit_output"; then
    echo "smoke: submitted campaign did not stream to completion" >&2
    exit 1
fi
job_id="$(sed -n 's/^submitted \(job-[0-9]*\).*/\1/p' <<<"$submit_output")"
# Re-attaching to the finished job must replay the stream and the result.
watch_output="$(python -m repro watch --url "$url" "$job_id")"
if ! grep -q "frontier designs" <<<"$watch_output"; then
    echo "smoke: re-watching $job_id did not return the result" >&2
    exit 1
fi
# A forced-GA campaign streams one event per generation, and a long-poll
# answers with a batch of them: batching must lose none, so every
# generation line arrives, in order, before the terminal one.
ga_output="$(python -m repro submit --url "$url" --spec 4096:INT4 \
    --exhaustive-threshold 0 --population 16 --generations 6 --watch)"
echo "$ga_output"
ga_progress="$(grep -oE "generation [0-9]+/6|campaign done" <<<"$ga_output" \
    | paste -sd, - || true)"
expected_progress="generation 1/6,generation 2/6,generation 3/6"
expected_progress+=",generation 4/6,generation 5/6,generation 6/6,campaign done"
if [[ "$ga_progress" != "$expected_progress" ]]; then
    echo "smoke: the watched GA campaign streamed '$ga_progress'," \
        "expected '$expected_progress'" >&2
    exit 1
fi
# v2 API: the server lists both registered problems and serves a
# mapping campaign end to end.
python - "$url" <<'PY'
import sys

from repro.service import CampaignClient, CampaignRequest

client = CampaignClient(sys.argv[1])
names = [p["name"] for p in client.problems()]
assert names == ["dcim", "mapping"], f"GET /api/problems listed {names}"
job_id = client.submit(CampaignRequest(
    problem="mapping", specs=({"network": "tiny_cnn", "wstore": 4096},),
    population_size=12, generations=3,
))
for _ in client.watch(job_id):
    pass
response = client.result(job_id)
assert response.problem == "mapping" and response.frontier
assert response.frontier[0].extras["n_macros"] >= 1
print(f"mapping over HTTP: {len(response.frontier)} frontier points")
PY
echo "== operations: /metrics scrape + dashboard render =="
python - "$url" <<'PY'
import json
import sys
from urllib.error import HTTPError
from urllib.request import urlopen

url = sys.argv[1]
with urlopen(f"{url}/metrics", timeout=10) as answer:
    assert "text/plain" in answer.headers["Content-Type"]
    text = answer.read().decode("utf-8")
for series in ("repro_http_requests_total", "repro_evaluations_total",
               "repro_jobs_submitted_total", "repro_campaign_generations_total"):
    assert series in text, f"/metrics is missing {series}"
# /metrics is the one report of the numbers: the JSON copies are gone.
for path in ("/api/stats", "/api/metrics"):
    try:
        urlopen(f"{url}{path}", timeout=10)
    except HTTPError as exc:
        code = json.loads(exc.read().decode("utf-8"))["error"]["code"]
        assert (exc.code, code) == (404, "not_found"), (path, exc.code, code)
    else:
        sys.exit(f"GET {path} answered; it should be 404 not_found")
print(f"/metrics: {len(text.splitlines())} lines; "
      f"/api/stats and /api/metrics: 404 not_found")
PY
echo "== tracing: list -> show -> Perfetto export round trip =="
trace_id="$(python - "$url" <<'PY'
import sys
import time

from repro.service import CampaignClient

client = CampaignClient(sys.argv[1])
deadline = time.time() + 15
while time.time() < deadline:
    # The submitted campaign's trace completes just after its result:
    # find the one covering the whole submit -> campaign -> chunk path.
    for summary in client.traces():
        detail = client.trace(summary["trace_id"])
        names = {span["name"] for span in detail["spans"]}
        if {"http.request", "campaign", "executor.chunk"} <= names:
            print(summary["trace_id"])
            sys.exit(0)
    time.sleep(0.2)
sys.exit("no end-to-end campaign trace on /api/traces")
PY
)"
show_output="$(python -m repro trace show "$trace_id" --url "$url")"
echo "$show_output"
for span in job.queue_wait campaign generation executor.chunk; do
    if ! grep -q "$span" <<<"$show_output"; then
        echo "smoke: trace $trace_id is missing a $span span" >&2
        exit 1
    fi
done
trace_json="$workdir/trace.json"
python -m repro trace export "$trace_id" --url "$url" --out "$trace_json"
python - "$trace_json" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    payload = json.load(fh)
events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
assert events, "Perfetto export contains no complete events"
print(f"Perfetto export: {len(events)} span events")
PY
# A GET without a traceparent starts no trace, so the watch, status,
# result, catalogue, metrics and trace reads above left none: the ring
# holds exactly this step's three campaign traces, each rooted at its
# submit and linked to the run the server recorded.
trace_list_json="$(python -m repro trace list --url "$url" --json)"
linked_run="$(python - "$trace_list_json" <<'PY'
import json
import sys

traces = json.loads(sys.argv[1])["traces"]
shape = [(t["name"], t["span_count"], t["run_id"]) for t in traces]
assert len(traces) == 3, f"expected the 3 campaign traces, got {shape}"
assert all(t["span_count"] > 1 and t["run_id"] for t in traces), shape
print(f"ring traces: {shape}", file=sys.stderr)
print(traces[0]["run_id"])
PY
)"
run_traces_json="$(python -m repro trace list --url "$url" --run "$linked_run" --json)"
python - "$run_traces_json" "$linked_run" <<'PY'
import json
import sys

traces, run_id = json.loads(sys.argv[1])["traces"], sys.argv[2]
assert [t["run_id"] for t in traces] == [run_id], traces
print(f"trace list --run {run_id}: 1 trace")
PY
echo "== CLI and served parity: repro campaign --json equals repro submit --watch --json =="
# One set of flags builds one CampaignRequest, run in-process by
# 'repro campaign' and through this server by 'repro submit': the
# frontier, the evaluation counts and the strategies must match (the
# server's cache changes only the cache fields).  Runs after the trace
# checks above, which count this step's traces.
check_served_parity() {
    local label="$1"
    shift
    local local_json served_json
    local_json="$(python -m repro campaign "$@" --json)"
    served_json="$(python -m repro submit --url "$url" "$@" --watch --json \
        | tail -n 1)"
    python - "$label" "$local_json" "$served_json" <<'PY'
import json
import sys

label, local, served = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
keys = ("frontier", "evaluations", "per_spec_evaluations", "strategies")
differ = [key for key in keys if local[key] != served[key]]
assert not differ, f"smoke: {label}: repro campaign and repro submit differ in {differ}"
print(f"{label}: {len(local['frontier'])} frontier designs, "
      f"strategies {','.join(local['strategies'])}; {', '.join(keys)} equal")
PY
}
check_served_parity "default route" \
    --spec 4096:INT8 --spec 8192:BF16 --spec 16384:INT4
check_served_parity "forced GA" --spec 4096:INT4 --spec 8192:INT8 \
    --exhaustive-threshold 0 --population 16 --generations 6 --seed 5
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""
# Traces, metrics and events are the server's whole report: its output
# holds no JSON log line and no stdlib access-log line.
if grep -qE '"logger":|"GET |"POST ' "$server_log"; then
    grep -E '"logger":|"GET |"POST ' "$server_log" | head -n 5 >&2
    echo "smoke: repro serve wrote log lines" >&2
    exit 1
fi
echo "serve.log: no JSON log or access-log lines"
dashboard_out="$workdir/dashboard.html"
python -m repro dashboard --store "$serve_store" --out "$dashboard_out"
# The served campaigns fill the recent-runs section.
if ! grep -q "<h2>Recent runs</h2>" "$dashboard_out" \
        || grep -q "no runs recorded yet" "$dashboard_out"; then
    echo "smoke: repro dashboard shows no recent runs" >&2
    exit 1
fi

echo "== run registry: record -> list -> compare -> gate =="
store="$workdir/runs.sqlite"
python -m repro campaign --spec 4096:INT4 --spec 4096:INT8 \
    --population 16 --generations 6 --cache "$cache" \
    --store "$store" --name good --set-baseline main --limit 3
# An identical re-run records a twin front and must pass the gate.
python -m repro campaign --spec 4096:INT4 --spec 4096:INT8 \
    --population 16 --generations 6 --cache "$cache" \
    --store "$store" --name rerun --baseline main --limit 3
python -m repro runs list --store "$store"
compare_output="$(python -m repro runs compare main rerun --store "$store")"
echo "$compare_output"
if ! grep -q "hypervolume" <<<"$compare_output"; then
    echo "smoke: runs compare printed no hypervolume line" >&2
    exit 1
fi
# An artificially degraded front (worse objectives, half the points)
# must fail the regression gate; recording must also be cheap (store
# overhead < 10% on this campaign).
python - "$store" <<'PY'
import statistics
import sys
import time

import numpy as np

from repro.core.spec import DcimSpec
from repro.dse.nsga2 import NSGA2Config
from repro.service import CampaignConfig, CampaignRequest, run_campaign
from repro.service.api import CampaignResponse, FrontierPoint
from repro.service.campaign import _campaign_fingerprint
from repro.store import RunStore

store = RunStore(sys.argv[1])
front = store.front(store.get_baseline("main").run_id)
degraded = tuple(
    FrontierPoint(precision=p.precision, n=p.n, h=p.h, l=p.l, k=p.k,
                  objectives=tuple(o + abs(o) * 0.25 for o in p.objectives))
    for p in front[::2]
)
store.record_response(CampaignResponse(frontier=degraded),
                      specs=["degraded"], name="degraded")

# Parity + overhead: same campaign with and without recording.
specs = [DcimSpec(wstore=4096, precision=p) for p in ("INT4", "INT8")]
# Force the GA and size it up: the instant exhaustive path (and the
# vectorised GA kernels) shrank campaign wall time to the point where
# the fixed ~1 ms sqlite write would dominate a tiny run's ratio,
# which is not what this overhead bound is about.
config = CampaignConfig(
    nsga2=NSGA2Config(population_size=32, generations=24),
    exhaustive_threshold=0,
)

request = CampaignRequest(
    specs=({"wstore": 4096, "precision": "INT4"},
           {"wstore": 4096, "precision": "INT8"}),
    population_size=32, generations=24, exhaustive_threshold=0,
)
labels = ["4096:INT4", "4096:INT8"]

def run(store):
    # What `repro campaign --store` does: run, then record what the
    # campaign returned with one record_response call.
    start = time.perf_counter()
    result = run_campaign(specs, config)
    if store is not None:
        store.record_response(
            result.to_response(), request, specs=labels,
            fingerprint=_campaign_fingerprint(specs, config),
        )
    return result, time.perf_counter() - start

(plain, _) = run(None)
(recorded, _) = run(store)
assert np.array_equal(plain.merged_objectives, recorded.merged_objectives), \
    "recording changed the merged front"
# The store is written only after the exploration clock
# (result.wall_time_s) stops, so each run's time outside that clock
# holds all the recording adds.  Run-to-run noise in the ~30 ms
# exploration is larger than the write being measured; subtracting it
# per run, alternating the two modes over many runs and comparing
# medians leaves the write's own cost.
total_s = {"bare": [], "recorded": []}
outside_s = {"bare": [], "recorded": []}
for i in range(20):
    for mode in (("bare", "recorded") if i % 2 == 0 else ("recorded", "bare")):
        result, elapsed = run(store if mode == "recorded" else None)
        total_s[mode].append(elapsed)
        outside_s[mode].append(elapsed - result.wall_time_s)
bare_s = statistics.median(total_s["bare"])
added_s = (statistics.median(outside_s["recorded"])
           - statistics.median(outside_s["bare"]))
overhead = added_s / bare_s
print(f"store overhead: {overhead:+.1%} "
      f"({added_s*1e3:.2f} ms added to {bare_s*1e3:.1f} ms bare, "
      f"medians of 20 alternating runs per mode)")
assert overhead < 0.10, f"store overhead {overhead:.1%} exceeds 10%"
store.close()
PY
if python -m repro runs gate degraded --baseline main --store "$store"; then
    echo "smoke: degraded front passed the regression gate" >&2
    exit 1
fi
python -m repro runs gate rerun --baseline main --store "$store" >/dev/null
python -m repro runs gc --store "$store" --keep 2 >/dev/null

echo "== distributed: coordinator + 2 workers, parity with the uncached in-process run =="
dist_log="$workdir/serve_dist.log"
: >"$dist_log"  # read before the server may have opened it, as above
python -m repro serve --host 127.0.0.1 --port 0 \
    --workers-remote --lease-ttl 10 >"$dist_log" 2>&1 &
server_pid=$!
url=""
for _ in $(seq 100); do
    url="$(sed -n 's|serving campaigns on \(http://[^ ]*\).*|\1|p' "$dist_log")"
    [[ -n "$url" ]] && break
    sleep 0.1
done
if [[ -z "$url" ]]; then
    echo "smoke: distributed coordinator did not come up" >&2
    cat "$dist_log" >&2
    exit 1
fi
wait_healthy "$url"
# The worker's JSON-lines log level is gone too: parsing fails before
# the worker contacts the coordinator.
set +e
timeout 30 python -m repro worker --url "$url" --log-level info \
    >"$workdir/retired.out" 2>"$workdir/retired.err"
retired_status=$?
set -e
if [[ "$retired_status" -ne 2 ]] \
        || ! grep -q "unrecognized arguments: --log-level info" "$workdir/retired.err" \
        || [[ -s "$workdir/retired.out" ]]; then
    cat "$workdir/retired.err" >&2
    echo "smoke: retired worker flag '--log-level info' was not rejected (exit $retired_status)" >&2
    exit 1
fi
echo "retired worker flag: --log-level rejected with exit 2"
for _ in 1 2; do
    python -m repro worker --url "$url" --poll 0.05 --exit-idle 30 \
        >/dev/null 2>&1 &
    worker_pids+=($!)
done
python - "$url" <<'PY'
import json
import sys
import time

from repro.service import (
    CampaignClient,
    CampaignRequest,
    SpecRequest,
    execute_request,
)


def run(client, request):
    job_id = client.submit(request)
    for _ in client.watch(job_id):
        pass
    return client.result(job_id)


def fields(response):
    payload = response.to_dict()
    del payload["wall_time_s"]
    return payload


client = CampaignClient(sys.argv[1], retries=4)
# Submit only once both workers have registered: otherwise the first
# one can lease both units before the second one exists.
deadline = time.monotonic() + 30.0
while len(client.workers()) < 2 and time.monotonic() < deadline:
    time.sleep(0.05)
registered = client.workers()
if len(registered) < 2:
    print(f"smoke: {len(registered)} of 2 workers registered after 30 s; "
          f"workers table:\n{json.dumps(registered, indent=2)}", file=sys.stderr)
    sys.exit(1)
request = CampaignRequest(
    specs=(SpecRequest(4096, "INT4"), SpecRequest(8192, "INT8")),
    population_size=16, generations=6, seed=3, exhaustive_threshold=0,
)
response = run(client, request)
# Workers evaluate uncached: the whole response, not just the front,
# must equal the uncached in-process run.
assert fields(response) == fields(execute_request(request)), (
    "distributed response differs from the uncached in-process run"
)
workers = client.workers()
assert len(workers) == 2, f"expected 2 registered workers, got {workers}"
print(f"distributed parity: {len(response.frontier)} frontier points via "
      f"{len(workers)} workers; every field but wall_time_s equals the "
      f"uncached in-process run")
PY
for pid in "${worker_pids[@]}"; do kill "$pid" 2>/dev/null || true; done
worker_pids=()
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "smoke: OK"
