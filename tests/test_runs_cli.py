"""CLI tests for the run registry (`repro runs ...`, `repro campaign
--store/--baseline`)."""

import json
import os
import re
import sqlite3
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.service.api import CampaignRequest, CampaignResponse, FrontierPoint
from repro.store import RunStore


CAMPAIGN = [
    "campaign", "--spec", "4096:INT4",
    "--population", "16", "--generations", "4",
]

MAPPING_CAMPAIGN = [
    "campaign", "--problem", "mapping", "--spec", "tiny_cnn:INT8",
    "--population", "12", "--generations", "3",
]


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "runs.sqlite")


def record_degraded(store_path, baseline="main"):
    """Record an artificially degraded copy of the baseline's front."""
    with RunStore(store_path) as store:
        front = store.front(store.get_baseline(baseline).run_id)
        degraded = tuple(
            FrontierPoint(
                precision=p.precision, n=p.n, h=p.h, l=p.l, k=p.k,
                objectives=tuple(o + abs(o) * 0.3 for o in p.objectives),
            )
            for p in front[::2]
        )
        return store.record_response(
            CampaignResponse(frontier=degraded),
            specs=["degraded"], name="degraded",
        ).run_id


class TestCampaignStoreFlags:
    def test_store_records_and_pins_baseline(self, store_path, capsys):
        rc = run_cli(*CAMPAIGN, "--store", store_path,
                     "--name", "good", "--set-baseline", "main")
        assert rc == 0
        err = capsys.readouterr().err
        assert "recorded run-" in err
        assert "baseline 'main'" in err
        with RunStore(store_path) as store:
            assert len(store) == 1
            record = store.get_baseline("main")
            assert record.name == "good"
            assert record.front_size > 0

    def test_registry_flags_require_store(self, capsys):
        assert run_cli(*CAMPAIGN, "--name", "x") == 1
        assert "--store" in capsys.readouterr().err

    def test_runs_rejects_missing_registry(self, tmp_path, capsys):
        missing = tmp_path / "typo.sqlite"
        assert run_cli("runs", "list", "--store", str(missing)) == 1
        assert "no run registry" in capsys.readouterr().err
        assert not missing.exists()  # nothing silently created

    def test_baseline_seeds_then_passes(self, store_path, capsys):
        assert run_cli(*CAMPAIGN, "--store", store_path,
                       "--baseline", "main") == 0
        assert "seeded" in capsys.readouterr().err
        # The identical rerun gates cleanly against the seeded baseline.
        assert run_cli(*CAMPAIGN, "--store", store_path,
                       "--baseline", "main") == 0
        assert "regression gate: PASS" in capsys.readouterr().err

    def test_gate_fails_on_degraded_front(self, store_path, capsys):
        assert run_cli(*CAMPAIGN, "--store", store_path,
                       "--baseline", "main") == 0
        record_degraded(store_path)
        capsys.readouterr()
        rc = run_cli("runs", "gate", "degraded", "--baseline", "main",
                     "--store", store_path)
        assert rc == 1
        out = capsys.readouterr().out
        assert "regression gate: FAIL" in out
        assert "hypervolume" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("campaign", "--spec", "4096:INT8"),
        ("serve", "--port", "0"),
        ("runs", "list"),
        ("dashboard",),
    ],
    ids=["campaign", "serve", "runs-list", "dashboard"],
)
def test_unopenable_registry_is_one_error_line(argv, tmp_path):
    """A ``--store`` path SQLite cannot open (here a directory) ends the
    command with exit 1 and one ``error:`` line, before a campaign runs
    or a port is bound.  A fresh interpreter shows what a user sees; the
    timeout stops a server that a regression would start."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--store", str(tmp_path)],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"error: cannot open run registry {tmp_path}: "
    )
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.fixture
def seeded_store(store_path):
    assert run_cli(*CAMPAIGN, "--store", store_path, "--name", "good",
                   "--set-baseline", "main") == 0
    assert run_cli(*CAMPAIGN, "--store", store_path,
                   "--name", "rerun") == 0
    return store_path


class TestRunsCommands:
    def test_list(self, seeded_store, capsys):
        assert run_cli("runs", "list", "--store", seeded_store) == 0
        out = capsys.readouterr().out
        assert "run-" in out
        assert "good" in out and "rerun" in out
        assert "2 runs shown (2 recorded)" in out

    def test_list_status_filter(self, seeded_store, capsys):
        assert run_cli("runs", "list", "--store", seeded_store,
                       "--status", "failed") == 0
        assert "0 runs shown" in capsys.readouterr().out

    def test_list_pagination(self, seeded_store, capsys):
        assert run_cli("runs", "list", "--store", seeded_store,
                       "--limit", "1") == 0
        first = capsys.readouterr().out
        assert "1 runs shown (2 recorded)" in first
        assert run_cli("runs", "list", "--store", seeded_store,
                       "--limit", "1", "--offset", "1") == 0
        second = capsys.readouterr().out
        assert "offset 1" in second
        first_id = [l for l in first.splitlines() if "run-" in l]
        second_id = [l for l in second.splitlines() if "run-" in l]
        assert first_id != second_id

    def test_list_problem_filter(self, seeded_store, capsys):
        assert run_cli("runs", "list", "--store", seeded_store,
                       "--problem", "mapping") == 0
        assert "0 runs shown" in capsys.readouterr().out
        assert run_cli("runs", "list", "--store", seeded_store,
                       "--problem", "dcim") == 0
        assert "2 runs shown" in capsys.readouterr().out

    def test_show_by_baseline_name(self, seeded_store, capsys):
        assert run_cli("runs", "show", "main",
                       "--store", seeded_store) == 0
        out = capsys.readouterr().out
        assert "(good)" in out
        assert "INT4" in out

    def test_compare_prints_hv_and_epsilon_deltas(self, seeded_store, capsys):
        assert run_cli("runs", "compare", "main", "rerun",
                       "--store", seeded_store) == 0
        out = capsys.readouterr().out
        assert "hypervolume:" in out and "delta" in out
        assert "epsilon-indicator:" in out
        assert "knee drift:" in out

    def test_compare_json(self, seeded_store, capsys):
        assert run_cli("runs", "compare", "main", "rerun", "--json",
                       "--store", seeded_store) == 0
        payload = json.loads(capsys.readouterr().out)
        # Twin seeds, twin fronts: no quality movement at all.
        assert payload["hypervolume_delta"] == 0.0
        assert payload["epsilon_ba"] == 0.0

    def test_compare_unknown_run_errors(self, seeded_store, capsys):
        assert run_cli("runs", "compare", "main", "run-nope",
                       "--store", seeded_store) == 1
        assert "error:" in capsys.readouterr().err

    def test_export_markdown_and_csv(self, seeded_store, capsys, tmp_path):
        assert run_cli("runs", "export", "main",
                       "--store", seeded_store) == 0
        assert "# Campaign run" in capsys.readouterr().out
        out_file = tmp_path / "report.csv"
        assert run_cli("runs", "export", "main", "--format", "csv",
                       "--out", str(out_file),
                       "--store", seeded_store) == 0
        assert out_file.read_text().startswith("run_id,precision")

    def test_gc(self, seeded_store, capsys):
        assert run_cli("runs", "gc", "--keep", "0",
                       "--store", seeded_store) == 0
        # The baseline-pinned run survives keep 0.
        assert "deleted 1 runs (1 kept)" in capsys.readouterr().out

    def test_gc_requires_criterion(self, seeded_store, capsys):
        assert run_cli("runs", "gc", "--store", seeded_store) == 1
        assert "--keep" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--keep", "-1"),
        ("--older-than", "-5"),
    ])
    def test_gc_rejects_negative_values(
        self, seeded_store, capsys, flag, value
    ):
        assert run_cli("runs", "gc", flag, value,
                       "--store", seeded_store) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "must be >= 0" in captured.err
        assert "deleted" not in captured.out
        with RunStore(seeded_store) as store:
            assert len(store) == 2

    def test_baseline_set_and_show(self, seeded_store, capsys):
        assert run_cli("runs", "baseline", "release", "rerun",
                       "--store", seeded_store) == 0
        assert "baseline 'release'" in capsys.readouterr().out
        assert run_cli("runs", "baseline", "release",
                       "--store", seeded_store) == 0
        assert "rerun" in capsys.readouterr().out

    def test_unknown_baseline_errors(self, seeded_store, capsys):
        assert run_cli("runs", "baseline", "nope",
                       "--store", seeded_store) == 1
        assert "error:" in capsys.readouterr().err

    def test_gate_json_passes_for_twin(self, seeded_store, capsys):
        assert run_cli("runs", "gate", "rerun", "--baseline", "main",
                       "--json", "--store", seeded_store) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["failures"] == []


class TestProblemsCLI:
    def test_problems_list(self, capsys):
        assert run_cli("problems", "list") == 0
        out = capsys.readouterr().out
        assert "dcim" in out and "mapping" in out
        assert "neg_throughput" in out

    def test_problems_list_json(self, capsys):
        assert run_cli("problems", "list", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        names = [p["name"] for p in payload["problems"]]
        assert names == ["dcim", "mapping"]

    def test_unknown_problem_errors(self, capsys):
        assert run_cli("campaign", "--problem", "nope",
                       "--spec", "whatever") == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_bad_mapping_spec_errors(self, capsys):
        assert run_cli("campaign", "--problem", "mapping",
                       "--spec", "not_a_network:INT8") == 1
        assert "unknown network" in capsys.readouterr().err


class TestMappingCampaignCLI:
    def test_mapping_campaign_records_problem(self, store_path, capsys):
        assert run_cli(*MAPPING_CAMPAIGN, "--store", store_path,
                       "--name", "deploy", "--limit", "3") == 0
        out = capsys.readouterr().out
        assert "Merged mapping frontier" in out
        assert "macros" in out
        with RunStore(store_path) as store:
            record = store.list_runs()[0]
            assert record.problem == "mapping"
            assert record.specs == ("tiny_cnn:INT8:sequential",)

    def test_mapping_campaign_json(self, capsys):
        assert run_cli(*MAPPING_CAMPAIGN, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "mapping"
        assert payload["frontier"][0]["extras"]["n_macros"] >= 1

    def test_mapping_campaign_honours_corner_flag(self, capsys):
        """--pdk/--corner must reach the mapping spec: the physical
        objectives differ between PVT corners."""
        assert run_cli(*MAPPING_CAMPAIGN, "--json", "--corner", "tt") == 0
        tt = json.loads(capsys.readouterr().out)
        assert run_cli(*MAPPING_CAMPAIGN, "--json", "--corner", "ss") == 0
        ss = json.loads(capsys.readouterr().out)
        assert tt["frontier"][0]["objectives"] \
            != ss["frontier"][0]["objectives"]

    def test_mapping_gate_against_baseline(self, store_path, capsys):
        assert run_cli(*MAPPING_CAMPAIGN, "--store", store_path,
                       "--baseline", "deploy-main") == 0
        assert run_cli(*MAPPING_CAMPAIGN, "--store", store_path,
                       "--baseline", "deploy-main") == 0
        err = capsys.readouterr().err
        assert "gate" in err and "PASS" in err

    def test_cross_problem_baseline_is_clean_error(self, store_path, capsys):
        """Gating a mapping run against a dcim baseline must exit 1
        with an error message, not an unhandled traceback."""
        assert run_cli(*CAMPAIGN, "--store", store_path,
                       "--set-baseline", "main") == 0
        capsys.readouterr()
        assert run_cli(*MAPPING_CAMPAIGN, "--store", store_path,
                       "--baseline", "main") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "different problems" in err


class TestRunReportCache:
    """``runs export`` reports the cache like the campaign console does."""

    def export_latest(self, store_path, capsys, *campaign_args):
        assert run_cli("campaign", "--spec", "4096:INT8", *campaign_args,
                       "--store", store_path) == 0
        with RunStore(store_path) as store:
            run_id = store.list_runs()[0].run_id
        capsys.readouterr()
        assert run_cli("runs", "export", run_id, "--format", "md",
                       "--store", store_path) == 0
        return capsys.readouterr().out

    def test_exhaustive_run_reports_unconsulted_cache(
        self, store_path, tmp_path, capsys
    ):
        report = self.export_latest(
            store_path, capsys, "--cache", str(tmp_path / "c.sqlite")
        )
        assert "- strategy: exhaustive" in report
        assert "- cache: not consulted" in report
        assert "%" not in report

    def test_ga_run_reports_hit_rate(self, store_path, tmp_path, capsys):
        report = self.export_latest(
            store_path, capsys, "--cache", str(tmp_path / "c.sqlite"),
            "--exhaustive-threshold", "0",
            "--population", "16", "--generations", "4",
        )
        assert "- strategy: ga" in report
        assert re.search(r"^- cache: 0 hits / \d+ misses \(0\.0%\)$",
                         report, re.MULTILINE)


#: The ``runs`` table as the store created it while responses still
#: carried the ``engine_backend`` and ``ga_backend`` fields.
BACKEND_COLUMNS_RUNS_DDL = """
CREATE TABLE runs (
    run_id TEXT PRIMARY KEY,
    name TEXT,
    fingerprint TEXT NOT NULL,
    status TEXT NOT NULL,
    created_at REAL NOT NULL,
    wall_time_s REAL NOT NULL DEFAULT 0.0,
    evaluations INTEGER NOT NULL DEFAULT 0,
    fresh_evaluations INTEGER NOT NULL DEFAULT 0,
    engine_backend TEXT,
    specs TEXT NOT NULL,
    request TEXT,
    cache_stats TEXT,
    error TEXT,
    problem TEXT NOT NULL DEFAULT 'dcim',
    strategy TEXT,
    ga_backend TEXT
);
CREATE INDEX runs_by_fingerprint ON runs(fingerprint);
CREATE INDEX runs_by_created ON runs(created_at);
"""


class TestStoreWithBackendColumns:
    """A registry created while runs still recorded their numeric
    backends keeps listing, showing, exporting and recording."""

    @pytest.fixture
    def legacy_store(self, store_path):
        with sqlite3.connect(store_path) as conn:
            conn.executescript(BACKEND_COLUMNS_RUNS_DDL)
        request = {
            "schema_version": 2, "problem": "dcim",
            "specs": [{"wstore": 4096, "precision": "INT4", "max_l": 64,
                       "max_h": 2048, "min_n_factor": 4, "max_n": None}],
            "population_size": 16, "generations": 4, "seed": 0,
            "backend": "serial", "workers": 1, "chunk_size": None,
            "engine": "auto", "ga_backend": "auto",
            "exhaustive_threshold": 512,
        }
        with RunStore(store_path) as store:
            run_id = store.record_response(
                CampaignResponse(frontier=(
                    FrontierPoint("INT4", 64, 16, 64, 4, (1.0, 2.0, 3.0, -4.0)),
                )),
                specs=["4096:INT4"], name="legacy",
            ).run_id
        with sqlite3.connect(store_path) as conn:
            conn.execute(
                "UPDATE runs SET engine_backend = 'numpy', "
                "ga_backend = 'numpy', request = ? WHERE run_id = ?",
                (json.dumps(request), run_id),
            )
        return store_path, run_id

    def test_lists_shows_exports_and_records(self, legacy_store, capsys):
        store_path, run_id = legacy_store
        assert run_cli("runs", "list", "--store", store_path) == 0
        assert run_id in capsys.readouterr().out
        assert run_cli("runs", "show", run_id, "--store", store_path) == 0
        shown = capsys.readouterr().out
        assert "(legacy)" in shown and "INT4" in shown
        assert run_cli("runs", "export", run_id, "--store", store_path) == 0
        assert "# Campaign run `legacy`" in capsys.readouterr().out
        assert run_cli(*CAMPAIGN, "--store", store_path, "--name", "new") == 0
        with RunStore(store_path) as store:
            assert [r.name for r in store.list_runs()] == ["new", "legacy"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                request = store.request_of(run_id)
        assert request.fingerprint() == CampaignRequest(
            specs=({"wstore": 4096, "precision": "INT4"},),
            population_size=16, generations=4,
        ).fingerprint()


class TestRetiredBackendFlags:
    """``--engine``/``--ga-backend`` are gone: their round as hidden,
    ignored flags is over, so they fail as unknown arguments (exit 2)."""

    GA_CAMPAIGN = (
        "campaign", "--spec", "4096:INT8", "--population", "16",
        "--generations", "4", "--exhaustive-threshold", "0",
    )

    @pytest.mark.parametrize("flag", ["--engine", "--ga-backend"])
    def test_campaign_rejects_them(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*self.GA_CAMPAIGN, flag, "python")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} python" in captured.err
        assert captured.out == ""  # rejected before any campaign ran

    @pytest.mark.parametrize("command", ["campaign", "submit"])
    def test_hidden_from_help(self, command, capsys):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        out = capsys.readouterr().out
        assert "--engine" not in out and "--ga-backend" not in out

    @pytest.mark.parametrize("flag", ["--engine", "--ga-backend"])
    def test_submit_rejects_them(self, flag, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["submit", "--spec", "4096:INT8", flag, "numpy"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} numpy" in capsys.readouterr().err


class TestRetiredExecutorFlags:
    """``--backend``/``--chunk-size`` are gone: their round as hidden,
    ignored flags is over, so they fail as unknown arguments (exit 2)."""

    @pytest.mark.parametrize("flag, value", [("--backend", "thread"), ("--chunk-size", "7")])
    def test_campaign_rejects_them(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*TestRetiredBackendFlags.GA_CAMPAIGN, flag, value)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert captured.out == ""

    def test_submit_rejects_it(self, capsys):
        # Rejected while parsing: no server is contacted.
        with pytest.raises(SystemExit) as exc:
            run_cli("submit", "--url", "http://127.0.0.1:9", "--spec",
                    "4096:INT8", "--backend", "process", "--watch")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --backend process" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, flags",
        [("campaign", ("--backend", "--chunk-size")), ("submit", ("--backend",))],
    )
    def test_hidden_from_help(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        out = capsys.readouterr().out
        assert not any(flag in out for flag in flags)


#: The metrics-history table and index as registries written while
#: ``repro serve --snapshot-every`` existed hold them.
METRICS_HISTORY_DDL = """
CREATE TABLE IF NOT EXISTS metrics_history (
    snapshot_at REAL NOT NULL,
    source TEXT NOT NULL DEFAULT '',
    metrics TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS metrics_by_time ON metrics_history(snapshot_at);
"""


class TestRetiredMetricsHistory:
    """The metrics history is gone: a registry holding its table still
    opens and serves every command, which leave the rows alone, and the
    three flags that wrote, pruned or charted it fail as unknown
    arguments (exit 2)."""

    @pytest.fixture
    def history_store(self, seeded_store):
        with sqlite3.connect(seeded_store) as conn:
            conn.executescript(METRICS_HISTORY_DDL)
            conn.executemany(
                "INSERT INTO metrics_history (snapshot_at, source, metrics) "
                "VALUES (?, ?, ?)",
                [
                    (1000.0 + 30.0 * tick, "serve", json.dumps({
                        'repro_http_requests_total{route="/healthz",'
                        'method="GET",status="200"}': 5.0 * tick,
                        "repro_queue_depth": float(tick % 2),
                    }))
                    for tick in range(3)
                ],
            )
        return seeded_store

    @staticmethod
    def history_rows(store_path):
        with sqlite3.connect(store_path) as conn:
            return conn.execute(
                "SELECT rowid, snapshot_at, source, metrics "
                "FROM metrics_history ORDER BY rowid"
            ).fetchall()

    def test_commands_work_and_leave_the_rows(
        self, history_store, tmp_path, capsys
    ):
        before = self.history_rows(history_store)
        assert len(before) == 3
        assert run_cli("runs", "list", "--store", history_store) == 0
        assert "2 runs shown (2 recorded)" in capsys.readouterr().out
        out = tmp_path / "dashboard.html"
        assert run_cli("dashboard", "--store", history_store,
                       "--out", str(out)) == 0
        assert "recorded runs: 2" in out.read_text(encoding="utf-8")
        assert run_cli("runs", "gc", "--keep", "1",
                       "--store", history_store) == 0
        assert "deleted 0 runs (2 kept)" in capsys.readouterr().out
        assert self.history_rows(history_store) == before

    @pytest.mark.parametrize("argv, flag", [
        (("serve", "--port", "0", "--snapshot-every", "1"),
         "--snapshot-every 1"),
        (("runs", "gc", "--keep-snapshots", "1"), "--keep-snapshots 1"),
        (("dashboard", "--history", "5"), "--history 5"),
    ])
    def test_flags_are_gone(self, history_store, tmp_path, capsys, argv, flag):
        out = tmp_path / "dashboard.html"
        extra = ("--out", str(out)) if argv[0] == "dashboard" else ()
        store = () if argv[0] == "serve" else ("--store", history_store)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, *store, *extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""  # rejected before any work started
        assert not out.exists()
        assert len(self.history_rows(history_store)) == 3


#: The two telemetry tables of registries written while ``repro serve
#: --store`` persisted every trace and each distributed run's per-unit
#: worker rows, as they were created then.
TRACE_TABLES_DDL = """
CREATE TABLE IF NOT EXISTS trace_spans (
    trace_id TEXT NOT NULL,
    span_id TEXT NOT NULL,
    parent_id TEXT,
    name TEXT NOT NULL,
    category TEXT NOT NULL DEFAULT '',
    start_time REAL NOT NULL,
    duration_s REAL NOT NULL,
    status TEXT NOT NULL DEFAULT 'ok',
    error TEXT,
    attributes TEXT NOT NULL DEFAULT '{}',
    thread TEXT,
    source TEXT NOT NULL DEFAULT '',
    run_id TEXT,
    PRIMARY KEY (trace_id, span_id)
);
CREATE INDEX IF NOT EXISTS trace_spans_by_time ON trace_spans(start_time);
CREATE INDEX IF NOT EXISTS trace_spans_by_run ON trace_spans(run_id);
CREATE TABLE IF NOT EXISTS work_units (
    run_id TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    unit_id TEXT NOT NULL,
    spec_index INTEGER NOT NULL,
    spec TEXT NOT NULL DEFAULT '',
    worker_id TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL DEFAULT '',
    wall_time_s REAL NOT NULL DEFAULT 0.0,
    evaluations INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    PRIMARY KEY (run_id, unit_id)
);
CREATE INDEX IF NOT EXISTS work_units_by_worker ON work_units(worker_id);
"""


class TestRetiredTraceTables:
    """Persisted traces and work-unit rows are gone: a registry holding
    their tables still opens and serves every command, which leave its
    trace rows alone, and the flags that read or pruned them fail as
    unknown arguments (exit 2)."""

    @pytest.fixture
    def old_store(self, seeded_store):
        """The seeded registry (``good`` pinned as ``main``, then
        ``rerun``) with a trace and unit rows for ``rerun``, and a newer
        third run, so ``gc --keep 1`` deletes ``rerun``."""
        with RunStore(seeded_store) as store:
            rerun = store.resolve("rerun").run_id
            store.record_response(CampaignResponse(frontier=()), specs=["extra"])
        with sqlite3.connect(seeded_store) as conn:
            conn.executescript(TRACE_TABLES_DDL)
            conn.executemany(
                "INSERT INTO trace_spans (trace_id, span_id, parent_id, "
                "name, start_time, duration_s, source, run_id) "
                "VALUES (?, ?, ?, ?, ?, ?, 'serve', ?)",
                [
                    ("1" * 32, "a" * 16, None, "http.request", 1000.0, 0.5,
                     rerun),
                    ("1" * 32, "b" * 16, "a" * 16, "campaign", 1000.1, 0.3,
                     rerun),
                ],
            )
            conn.executemany(
                "INSERT INTO work_units (run_id, unit_id, spec_index, spec, "
                "worker_id, attempts, status) VALUES (?, ?, ?, ?, ?, 1, "
                "'done')",
                [(rerun, f"unit-{i}", i, "4096:INT4", "w1") for i in range(2)],
            )
        return seeded_store

    @staticmethod
    def span_rows(store_path):
        with sqlite3.connect(store_path) as conn:
            return conn.execute(
                "SELECT * FROM trace_spans ORDER BY span_id"
            ).fetchall()

    def test_commands_work_and_leave_the_rows(
        self, old_store, tmp_path, capsys
    ):
        before = self.span_rows(old_store)
        assert len(before) == 2
        assert run_cli("runs", "list", "--store", old_store) == 0
        assert "3 runs shown (3 recorded)" in capsys.readouterr().out
        assert run_cli("runs", "show", "rerun", "--store", old_store) == 0
        assert "(rerun)" in capsys.readouterr().out
        out = tmp_path / "dashboard.html"
        assert run_cli("dashboard", "--store", old_store,
                       "--out", str(out)) == 0
        assert "recorded runs: 3" in out.read_text(encoding="utf-8")
        assert run_cli("runs", "gc", "--keep", "1",
                       "--store", old_store) == 0
        assert "deleted 1 runs (2 kept)" in capsys.readouterr().out
        assert self.span_rows(old_store) == before

    @pytest.mark.parametrize("argv, flag", [
        (("trace", "list", "--store"), "--store"),
        (("runs", "gc", "--keep-traces", "0", "--store"), "--keep-traces 0"),
    ])
    def test_flags_are_gone(self, old_store, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, old_store)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""
        assert len(self.span_rows(old_store)) == 2
