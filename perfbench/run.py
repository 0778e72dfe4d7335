"""Benchmark of the SEGA-DCIM compiler service, end to end and by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload in_process --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's seeded op list once, untraced, and
reports the end-to-end metrics.  ``--trace 1`` runs the first third of
the list's rounds three times (untraced, then traced twice), reports
the per-layer metrics,
checks that the exact counts and front fingerprints repeat, and writes
the spans to ``perfbench/.runs/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

SETUP_PROBES = 3
IMPORT_PROBES = 3
PACKAGES = ("core", "dse", "func", "layout", "model", "netlist", "obs", "problems",
            "reporting", "rtl", "service", "store", "tech", "workloads")

#: (name, unit); the order is the print order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_latency_ms_p50", "ms"),
    ("op_latency_ms_p90", "ms"),
    ("front_hv_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("problems.make_problem.calls", "count"),
    ("problems.make_problem.self_ms", "ms/op"),
    ("genome.enumerate.calls", "count"),
    ("genome.enumerate.genomes", "count"),
    ("genome.enumerate.self_ms", "ms/op"),
    ("genome.decode.genomes", "count"),
    ("genome.decode.self_ms", "ms/op"),
    ("engine.rows", "count"),
    ("engine.self_ms", "ms/op"),
    ("pareto.rows_in", "count"),
    ("pareto.kept_ratio", "ratio"),
    ("pareto.self_ms", "ms/op"),
    ("explorer.merge.self_ms", "ms/op"),
    ("campaign.specs", "count"),
    ("campaign.evaluations", "count"),
    ("campaign.self_ms", "ms/op"),
    ("nsga2.generations", "count"),
    ("nsga2.evaluations", "count"),
    ("nsga2.self_ms", "ms/op"),
    ("kernels.breed.offspring", "count"),
    ("kernels.breed.novel_ratio", "ratio"),
    ("kernels.breed.self_ms", "ms/op"),
    ("kernels.sort.self_ms", "ms/op"),
    ("kernels.crowding.self_ms", "ms/op"),
    ("executor.chunks", "count"),
    ("executor.self_ms", "ms/op"),
    ("mapping.map_system.calls", "count"),
    ("mapping.map_system.self_ms", "ms/op"),
    ("cache.get_many.keys", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_many.self_ms", "ms/op"),
    ("cache.put_many.keys", "count"),
    ("cache.put_many.self_ms", "ms/op"),
    ("jobs.queue_wait_ms", "ms/op"),
    ("jobs.run_ms", "ms/op"),
    ("http.submit_ms", "ms/op"),
    ("http.watch_ms", "ms/op"),
    ("http.result_ms", "ms/op"),
    ("http.calls_per_op", "count/op"),
    ("store.record.self_ms", "ms/op"),
    ("distill.self_ms", "ms/op"),
    ("layout.pnr.self_ms", "ms/op"),
    ("rtl.generate.self_ms", "ms/op"),
    ("rtl.lint.self_ms", "ms/op"),
    ("rtl.testbench.self_ms", "ms/op"),
    ("rtl.testbench.bytes", "count"),
    ("netlist.verify.trials", "count"),
    ("netlist.verify.self_ms", "ms/op"),
    ("manifest.write.self_ms", "ms/op"),
    *((f"import.{p}.self_s", "s") for p in ("repro",) + PACKAGES + ("numpy", "other")),
    ("unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# Set-up probes -----------------------------------------------------------------


def _probe(workload: str, workdir: Path, importtime: bool):
    """Spawn one fresh interpreter; returns (seconds to ready, stderr)."""
    flags = ["-X", "importtime"] if importtime else []
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *flags, str(HERE / "setup_probe.py"), workload, str(workdir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r} {err[-2000:]}")
    return elapsed, err


def measure_setup(workload: str, workdir: Path) -> float:
    """Median fresh-interpreter set-up time; one untimed probe first."""
    _probe(workload, workdir / "probe-warm", False)
    return statistics.median(
        _probe(workload, workdir / f"probe{i}", False)[0] for i in range(SETUP_PROBES)
    )


def measure_imports(workload: str, workdir: Path) -> dict:
    """Median ``-X importtime`` self seconds per repro subpackage."""
    samples: dict[str, list[float]] = {}
    for i in range(IMPORT_PROBES):
        _, err = _probe(workload, workdir / f"imports{i}", True)
        totals: dict[str, float] = {}
        for line in err.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, module = (part.strip() for part in line[12:].split("|"))
            parts = module.split(".")
            if module in ("workloads", "oracles"):  # the benchmark's own
                continue
            if parts[0] == "repro":
                group = parts[1] if len(parts) > 1 and parts[1] in PACKAGES else "repro"
            else:
                group = "numpy" if parts[0] == "numpy" else "other"
            totals[group] = totals.get(group, 0.0) + int(self_us) / 1e6
        for group in ("repro",) + PACKAGES + ("numpy", "other"):
            samples.setdefault(group, []).append(totals.get(group, 0.0))
    return {f"import.{g}.self_s": statistics.median(v) for g, v in samples.items()}


# Passes -------------------------------------------------------------------------


def run_pass(workload, ops, warmup, workdir: Path, tracer=None) -> dict:
    """Set up, warm up, then time every op; checks run outside the timing."""
    from workloads import Outcome

    env = workload.setup(workdir)
    latencies, outcomes = [], []
    try:
        for op in warmup:
            workload.check(op, workload.run(env, op))
        if tracer is not None:
            tracer.install()
        try:
            for op in ops:
                output, error = None, None
                with tracer.op(op.index, op.seed) if tracer else contextlib.nullcontext():
                    start = time.perf_counter()
                    try:
                        output = workload.run(env, op)
                    except Exception as exc:  # a failed op counts, the run goes on
                        error = f"{type(exc).__name__}: {exc}"
                    latencies.append(time.perf_counter() - start)
                if error is None:
                    try:
                        outcome = workload.check(op, output)
                    except Exception as exc:
                        outcome = Outcome()
                        outcome.fail(f"check raised {type(exc).__name__}: {exc}")
                else:
                    outcome = Outcome()
                    outcome.fail(error)
                outcomes.append(outcome)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        workload.close(env)
    return {"latencies": latencies, "outcomes": outcomes}


def settled(ops, latencies) -> list[float]:
    """Per slot, the fastest of its rounds: one latency per slot.

    Every round repeats the same slots, so keeping each slot's fastest
    run drops the time other tenants of a shared host took, which comes
    in bursts of seconds to minutes, without changing the work measured.
    A change that slows every run of an op still shows in full.
    """
    best: dict[int, float] = {}
    for op, latency in zip(ops, latencies):
        best[op.slot] = min(latency, best.get(op.slot, latency))
    return list(best.values())


def ops_per_s(ops, latencies) -> float:
    lat = settled(ops, latencies)
    return len(lat) / sum(lat)


def end_to_end(ops, result: dict, setup_s: float) -> dict:
    lat = settled(ops, result["latencies"])
    hv = [r for o in result["outcomes"] for r in o.hv]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_latency_ms_p50": statistics.median(lat) * 1e3,
        "op_latency_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "front_hv_ratio": statistics.fmean(hv) if hv else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracers, op_count: int, untraced_ops_per_s, traced_ops_per_s) -> dict:
    """The per-layer table: times averaged over the traced passes."""
    aggs = [t.layers(op_count) for t in tracers]
    counts = aggs[0]["counts"]

    def ms(kind, name):
        return statistics.fmean(a[kind].get(name, 0.0) for a in aggs)

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    waits = []
    for tracer in tracers:
        submits, runs = tracer.by_seed("jobs.submit"), tracer.by_seed("jobs.run")
        waits.append(sum(runs[s].start - submits[s].start for s in runs if s in submits))
    m = {
        "problems.make_problem.calls": count("problems.make_problem", "calls"),
        "genome.enumerate.calls": count("genome.enumerate", "calls"),
        "genome.enumerate.genomes": count("genome.enumerate", "genomes"),
        "genome.decode.genomes": count("genome.decode", "genomes"),
        "engine.rows": count("engine", "rows"),
        "pareto.rows_in": count("pareto", "rows_in"),
        "pareto.kept_ratio": ratio(count("pareto", "kept"), count("pareto", "rows_in")),
        "campaign.specs": count("campaign", "specs"),
        "campaign.evaluations": count("campaign", "evaluations"),
        "nsga2.generations": count("nsga2", "generations"),
        "nsga2.evaluations": count("nsga2", "evaluations"),
        "kernels.breed.offspring": count("kernels.breed", "offspring"),
        "kernels.breed.novel_ratio": ratio(
            count("kernels.breed", "novel"), count("kernels.breed", "requested")),
        "executor.chunks": count("executor", "chunks"),
        "mapping.map_system.calls": count("mapping.map_system", "calls"),
        "cache.get_many.keys": count("cache.get_many", "keys"),
        "cache.hit_ratio": ratio(count("cache.get_many", "hits"), count("cache.get_many", "keys")),
        "cache.put_many.keys": count("cache.put_many", "keys"),
        "jobs.queue_wait_ms": statistics.fmean(waits) * 1e3 / op_count,
        "jobs.run_ms": ms("total_ms", "jobs.run"),
        "http.submit_ms": ms("total_ms", "http.submit"),
        "http.watch_ms": ms("total_ms", "http.watch"),
        "http.result_ms": ms("total_ms", "http.result"),
        "http.calls_per_op": sum(
            count(n, "calls") for n in ("http.submit", "http.watch", "http.result")) / op_count,
        "rtl.testbench.bytes": count("rtl.testbench", "bytes"),
        "netlist.verify.trials": count("netlist.verify", "trials"),
        "unattributed_share": statistics.fmean(a["unattributed_share"] for a in aggs),
        "trace.overhead_share": 1.0 - traced_ops_per_s / untraced_ops_per_s,
    }
    for name, unit in PER_LAYER:
        if name.endswith(".self_ms"):
            m[name] = ms("self_ms", name[: -len(".self_ms")])
    return m


# Reporting ----------------------------------------------------------------------


def metadata(args, op_count: int) -> dict:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": op_count,
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        tmp = Path(tmp)
        setup_s = measure_setup(workload.name, tmp)
        imports = measure_imports(workload.name, tmp) if args.trace else {}
        ops = workload.make_ops(args.seed, args.seconds)
        if args.trace:  # three passes over the first third of the rounds
            ops = [op for op in ops if op.round < max(1, (ops[-1].round + 1) // 3)]
        warmup = workload.warmup_ops(args.seed)
        workload.build_oracles(warmup + ops)
        meta = metadata(args, len(ops))
        print("meta: " + json.dumps(meta, sort_keys=True))
        passes = [run_pass(workload, ops, warmup, tmp / "pass0")]
        tracers = []
        if args.trace:
            for i in (1, 2):
                tracers.append(Tracer())
                passes.append(run_pass(workload, ops, warmup, tmp / f"pass{i}", tracers[-1]))

    failed_ops = {
        op.index for p in passes for op, o in zip(ops, p["outcomes"]) if not o.ok
    }
    for p in passes:
        for op, outcome in zip(ops, p["outcomes"]):
            for error in outcome.errors:
                print(f"FAIL op {op.index} ({op.kind} {op.specs}): {error}")
    correct = not failed_ops
    e2e = end_to_end(ops, passes[0], setup_s)
    units = dict(END_TO_END + PER_LAYER)
    print_table(f"{workload.name}: {len(ops)} ops, failed_ratio "
                f"{len(failed_ops) / len(ops):.4f}", e2e, units)
    metrics = e2e
    if args.trace:
        fingerprints = [{k: v for o in p["outcomes"] for k, v in o.fingerprints.items()}
                        for p in passes]
        op_counts = [t.op_counts() for t in tracers]
        mismatches = [k for k in fingerprints[0]
                      if not fingerprints[0][k] == fingerprints[1].get(k) == fingerprints[2].get(k)]
        mismatches += [f"op {k} counts" for k in set(op_counts[0]) | set(op_counts[1])
                       if op_counts[0].get(k) != op_counts[1].get(k)]
        for mismatch in mismatches:
            print(f"FAIL: differs between passes of the same seed: {mismatch}")
        repeat = not mismatches
        correct = correct and repeat
        traced = statistics.fmean(ops_per_s(ops, p["latencies"]) for p in passes[1:])
        metrics = {**per_layer(tracers, len(ops), e2e["ops_per_s"], traced), **imports}
        metrics = {name: metrics[name] for name, _ in PER_LAYER}
        print_table("per layer (traced passes)", metrics, units)
        path = RUNS / f"trace-{workload.name}-seed{args.seed}.json"
        tracers[0].dump(path, {
            "meta": meta, "counts_repeat": repeat, "fingerprints": fingerprints[1],
            "op_counts": {str(k): v for k, v in op_counts[0].items()}, "layers": metrics,
        })
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
