"""The example scripts run end to end, writing only to temp directories."""

import asyncio
import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_campaign_service_warm_run_is_served_from_the_cache(tmp_path, capsys):
    cache_path = tmp_path / "evals.sqlite"
    load_example("campaign_service").main(str(cache_path))
    lines = capsys.readouterr().out.splitlines()
    (cold,) = [line for line in lines if line.startswith("cold run:")]
    (warm,) = [line for line in lines if line.startswith("warm run:")]
    assert "hit rate 0.0%" in cold
    assert "hit rate 100.0%" in warm
    assert any(line.startswith("job queue: job-1 == job-1") for line in lines)
    assert cache_path.read_bytes().startswith(b"SQLite format 3\x00")


def test_run_registry_gates_twin_and_degraded_runs(capsys):
    load_example("run_registry").main()
    out = capsys.readouterr().out
    assert "registry holds 2 runs" in out
    assert "gate on twin run: PASS" in out
    assert "regression gate: FAIL" in out


def test_async_service_prints_live_metrics_and_a_trace(capsys, fresh_registry):
    from repro.obs.trace import get_tracer, set_tracer

    previous = get_tracer()  # main() installs its own process tracer
    try:
        asyncio.run(load_example("async_service").main())
    finally:
        set_tracer(previous)
    lines = capsys.readouterr().out.splitlines()
    assert any(
        line.startswith("job-2: status cancelled after") for line in lines
    )
    metrics = lines[lines.index("live metrics (subset of GET /metrics):") + 1:]
    assert "  repro_jobs_submitted_total = 2" in metrics
    assert "  repro_jobs_total{status=done} = 1" in metrics
    assert "  repro_jobs_total{status=cancelled} = 1" in metrics
    assert any(
        line.startswith("  repro_job_run_seconds{status=done} count=1 ")
        for line in metrics
    )
    tree = lines[lines.index("trace of the most recent campaign:") + 1:]
    assert tree[0].startswith("trace ")
    assert any("job.run" in line for line in tree)
    assert any("generation" in line for line in tree)
