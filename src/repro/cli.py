"""Command-line interface for the SEGA-DCIM compiler.

Usage (also via ``python -m repro``)::

    repro precisions
    repro pdks
    repro explore --wstore 65536 --precision INT8 --limit 10
    repro compile --wstore 8192 --precision BF16 --out build/macro
    repro report  --precision INT8 --n 64 --h 128 --l 64 --k 8
    repro problems list
    repro campaign --spec 8192:INT8 --spec 8192:BF16 --cache build/evals.sqlite
    repro cache stats build/evals.sqlite
    repro cache migrate build/evals.jsonl build/evals.sqlite
    repro campaign --problem mapping --spec tiny_cnn:INT8
    repro campaign --spec 8192:INT8 --store build/runs.sqlite --baseline main
    repro serve  --port 8000 --workers 2 --cache build/evals.sqlite
    repro serve  --store build/runs.sqlite --rate-limit 5 \\
                 --max-pending 32 --max-budget 100000
    repro dashboard --store build/runs.sqlite --out build/dashboard.html
    repro submit --url http://127.0.0.1:8000 --spec 8192:INT8 --watch
    repro watch  --url http://127.0.0.1:8000 job-1
    repro runs list --store build/runs.sqlite --limit 20 --offset 0
    repro runs compare run-abc run-def --store build/runs.sqlite
    repro trace list --url http://127.0.0.1:8000 --run run-abc
    repro trace show  trace-id --url http://127.0.0.1:8000
    repro trace export trace-id --out build/t.json
"""

from __future__ import annotations

import argparse
import sys

from repro.core.precision import STANDARD_PRECISIONS, parse_precision
from repro.core.spec import DcimSpec, DesignPoint
from repro.reporting.tables import ascii_table, format_si
from repro.tech.corners import STANDARD_CORNERS, apply_corner
from repro.tech.pdk import available_pdks, load_pdk

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return int(text)


def _non_negative_int(text: str) -> int:
    """argparse ``type=`` for row limits, where 0 is allowed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEGA-DCIM: DSE-guided automatic digital CIM compiler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("precisions", help="list supported precisions")

    sub.add_parser("pdks", help="list bundled PDKs and corners")

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--wstore", type=int, required=True,
                       help="number of stored weights (power of two)")
        p.add_argument("--precision", required=True,
                       help="computing precision, e.g. INT8 or BF16")
        p.add_argument("--pdk", default="generic28", help="technology node")
        p.add_argument("--corner", default="tt",
                       choices=sorted(STANDARD_CORNERS),
                       help="PVT corner")
        p.add_argument("--seed", type=int, default=0, help="GA seed")
        p.add_argument("--ga", action="store_true",
                       help="use NSGA-II instead of exhaustive enumeration")

    explore = sub.add_parser("explore", help="print the Pareto frontier")
    add_spec_args(explore)
    explore.add_argument("--limit", type=_non_negative_int, default=20,
                         help="max rows to print")

    compile_p = sub.add_parser("compile", help="run the full pipeline")
    add_spec_args(compile_p)
    compile_p.add_argument("--strategy", default="knee",
                           help="selection strategy (knee, min_area, ...)")
    compile_p.add_argument("--max-area", type=float, default=None,
                           help="distillation budget: layout area in mm2")
    compile_p.add_argument("--min-tops", type=float, default=None,
                           help="distillation budget: peak TOPS")
    compile_p.add_argument("--out", default=None,
                           help="write RTL/layout/report artifacts here")
    compile_p.add_argument("--verify", action="store_true",
                           help="run scaled gate-level verification "
                                "(exit status 1 on a mismatch)")

    report = sub.add_parser("report", help="area/timing/power of one design")
    report.add_argument("--precision", required=True)
    report.add_argument("--n", type=int, required=True)
    report.add_argument("--h", type=int, required=True)
    report.add_argument("--l", type=int, required=True)
    report.add_argument("--k", type=int, required=True)
    report.add_argument("--pdk", default="generic28")
    report.add_argument("--corner", default="tt",
                        choices=sorted(STANDARD_CORNERS))

    lint = sub.add_parser("lint", help="lint generated Verilog files")
    lint.add_argument("paths", nargs="+", help="Verilog files to lint")

    sweep = sub.add_parser(
        "sweep", help="efficiency sweep over Wstore (Fig. 8 style)"
    )
    sweep.add_argument("--precision", required=True)
    sweep.add_argument("--wstores", default="4096,8192,16384,32768,65536",
                       help="comma-separated Wstore values")
    sweep.add_argument("--pdk", default="generic28")
    sweep.add_argument("--corner", default="tt",
                       choices=sorted(STANDARD_CORNERS))

    problems_p = sub.add_parser(
        "problems",
        help="inspect the registered optimisation problems",
    )
    problems_sub = problems_p.add_subparsers(dest="problems_command",
                                             required=True)
    problems_list = problems_sub.add_parser(
        "list", help="registered problems, their objectives and spec schema"
    )
    problems_list.add_argument("--json", action="store_true",
                               help="print the problem catalogue as JSON")

    cache_p = sub.add_parser(
        "cache",
        help="inspect and maintain persistent evaluation caches "
             "(stats/compact/migrate)",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, file size, and hit rate"
    )
    cache_stats.add_argument("path", help="SQLite cache file")
    cache_stats.add_argument("--json", action="store_true",
                             help="print the report as JSON")
    cache_compact = cache_sub.add_parser(
        "compact", help="reclaim free pages (SQLite VACUUM)",
    )
    cache_compact.add_argument("path", help="SQLite cache file")
    cache_migrate = cache_sub.add_parser(
        "migrate",
        help="copy every entry into a new SQLite cache file; also "
             "imports a log of the removed JSONL tier "
             "(e.g. evals.jsonl -> evals.sqlite)",
    )
    cache_migrate.add_argument("src", help="source cache file "
                                           "(SQLite or JSONL log)")
    cache_migrate.add_argument("dst", help="destination SQLite cache file")
    cache_migrate.add_argument("--batch-size", type=_positive_int, default=1024,
                               metavar="N",
                               help="entries per put_many transaction")

    campaign = sub.add_parser(
        "campaign",
        help="explore many specs through the evaluation service and "
             "merge one cross-architecture frontier",
    )
    campaign.add_argument("--problem", default="dcim", metavar="NAME",
                          help="registered problem to optimise "
                               "(see 'repro problems list'; default dcim)")
    campaign.add_argument(
        "--spec", action="append", required=True, metavar="SPEC",
        help="one specification in the problem's CLI syntax, e.g. "
             "8192:INT8 (dcim) or tiny_cnn:INT8 (mapping); repeatable",
    )
    campaign.add_argument("--population", type=int, default=None,
                          help="NSGA-II population size (default: the "
                               "problem's own)")
    campaign.add_argument("--generations", type=int, default=None,
                          help="NSGA-II generations (default: the "
                               "problem's own)")
    campaign.add_argument("--seed", type=int, default=0, help="base GA seed")
    campaign.add_argument("--exhaustive-threshold", type=int, default=None,
                          metavar="N",
                          help="enumerate design spaces of up to N "
                               "genomes instead of running the GA "
                               "(0 always runs the GA; default 512)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="specs explored concurrently")
    campaign.add_argument("--cache", default=None, metavar="PATH",
                          help="persistent evaluation cache "
                               "(SQLite file; omit to run uncached)")
    campaign.add_argument("--pdk", default="generic28", help="technology node")
    campaign.add_argument("--corner", default="tt",
                          choices=sorted(STANDARD_CORNERS), help="PVT corner")
    campaign.add_argument("--limit", type=_non_negative_int, default=20,
                          help="max frontier rows to print")
    campaign.add_argument("--json", action="store_true",
                          help="print the CampaignResponse as JSON")
    campaign.add_argument("--store", default=None, metavar="PATH",
                          help="record the campaign into this run "
                               "registry (SQLite)")
    campaign.add_argument("--name", default=None, metavar="LABEL",
                          help="human label for the recorded run "
                               "(needs --store)")
    campaign.add_argument("--baseline", default=None, metavar="NAME",
                          help="gate the recorded run against this "
                               "baseline; seeds it on first use and "
                               "exits non-zero on regression "
                               "(needs --store)")
    campaign.add_argument("--set-baseline", default=None, metavar="NAME",
                          help="pin this run as the named baseline "
                               "after recording (needs --store)")

    serve_p = sub.add_parser(
        "serve",
        help="run the HTTP campaign server (submit/poll/stream/cancel "
             "over a socket)",
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument("--port", type=int, default=8000,
                         help="bind port (0 picks a free port)")
    serve_p.add_argument("--workers", type=_positive_int, default=2,
                         help="background campaign workers")
    serve_p.add_argument("--cache", default=None, metavar="PATH",
                         help="shared persistent evaluation cache "
                              "(SQLite file; omit for in-memory; not "
                              "with --workers-remote, whose workers "
                              "evaluate uncached)")
    serve_p.add_argument("--store", default=None, metavar="PATH",
                         help="record every campaign into this run "
                              "registry (SQLite) and serve the "
                              "/api/runs endpoints")
    serve_p.add_argument("--ttl", type=float, default=None, metavar="S",
                         help="purge finished job records after S seconds")
    serve_p.add_argument("--buffer", type=int, default=256, metavar="N",
                         help="progress events retained per job")
    serve_p.add_argument("--log-level", default="warning",
                         choices=["debug", "info", "warning", "error"],
                         help="structured JSON-lines log level on stderr")
    serve_p.add_argument("--rate-limit", type=float, default=None,
                         metavar="R/S",
                         help="admission control: sustained submissions "
                              "per second allowed per client")
    serve_p.add_argument("--burst", type=int, default=None, metavar="N",
                         help="admission control: token-bucket burst "
                              "capacity (default ceil(rate))")
    serve_p.add_argument("--max-pending", type=int, default=None,
                         metavar="N",
                         help="admission control: reject submissions "
                              "(429) once N campaigns are pending")
    serve_p.add_argument("--max-budget", type=int, default=None,
                         metavar="N",
                         help="admission control: reject requests (413) "
                              "whose specs x generations x population "
                              "exceeds N")
    serve_p.add_argument("--no-trace", action="store_true",
                         help="disable request/campaign tracing")
    serve_p.add_argument("--workers-remote", action="store_true",
                         help="distributed mode: campaigns shard into "
                              "leasable work units drained by external "
                              "'repro worker' processes instead of "
                              "running in-process")
    serve_p.add_argument("--lease-ttl", type=float, default=None,
                         metavar="S",
                         help="with --workers-remote: work-unit lease "
                              "TTL; a unit whose worker stops "
                              "heartbeating for S seconds is requeued "
                              "(default 30)")
    serve_p.add_argument("--unit-attempts", type=int, default=None,
                         metavar="N",
                         help="with --workers-remote: lease a unit at "
                              "most N times before failing the "
                              "campaign (default 3)")

    worker_p = sub.add_parser(
        "worker",
        help="connect to a 'repro serve --workers-remote' coordinator "
             "and evaluate leased work units",
    )
    worker_p.add_argument("--url", default="http://127.0.0.1:8000",
                          help="coordinator base URL")
    worker_p.add_argument("--worker-id", default=None, metavar="ID",
                          help="stable worker identity (default: "
                               "coordinator-assigned)")
    worker_p.add_argument("--poll", type=float, default=0.5, metavar="S",
                          help="idle sleep between lease attempts")
    worker_p.add_argument("--max-units", type=int, default=None,
                          metavar="N",
                          help="exit after completing N units")
    worker_p.add_argument("--exit-idle", type=float, default=None,
                          metavar="S",
                          help="exit after S seconds without leasing a "
                               "unit (default: run until interrupted)")
    worker_p.add_argument("--log-level", default="warning",
                          choices=["debug", "info", "warning", "error"],
                          help="structured JSON-lines log level on stderr")

    dashboard_p = sub.add_parser(
        "dashboard",
        help="render a static HTML operations dashboard from a run "
             "registry's runs",
    )
    dashboard_p.add_argument("--store", required=True, metavar="PATH",
                             help="run registry database (SQLite)")
    dashboard_p.add_argument("--out", default="build/dashboard.html",
                             metavar="PATH", help="output HTML file")
    dashboard_p.add_argument("--title", default="repro operations",
                             help="page heading")
    dashboard_p.add_argument("--runs", type=int, default=15, metavar="N",
                             help="rows in the recent-runs table")

    def add_client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default="http://127.0.0.1:8000",
                       help="campaign server base URL")

    submit_p = sub.add_parser(
        "submit", help="submit a campaign to a running server"
    )
    add_client_args(submit_p)
    submit_p.add_argument("--problem", default="dcim", metavar="NAME",
                          help="registered problem to optimise "
                               "(see 'repro problems list'; default dcim)")
    submit_p.add_argument(
        "--spec", action="append", required=True, metavar="SPEC",
        help="one specification in the problem's CLI syntax, e.g. "
             "8192:INT8 (dcim) or tiny_cnn:INT8 (mapping); repeatable",
    )
    submit_p.add_argument("--population", type=int, default=None,
                          help="NSGA-II population size (default: the "
                               "problem's own)")
    submit_p.add_argument("--generations", type=int, default=None,
                          help="NSGA-II generations (default: the "
                               "problem's own)")
    submit_p.add_argument("--seed", type=int, default=0, help="base GA seed")
    submit_p.add_argument("--workers", type=int, default=1,
                          help="specs explored concurrently")
    submit_p.add_argument("--exhaustive-threshold", type=int, default=None,
                          metavar="N",
                          help="enumerate design spaces of up to N "
                               "genomes instead of running the GA "
                               "(0 always runs the GA; default 512)")
    submit_p.add_argument("--watch", action="store_true",
                          help="stream progress events until the "
                               "campaign finishes")
    submit_p.add_argument("--json", action="store_true",
                          help="with --watch: print the final "
                               "CampaignResponse as JSON")

    watch_p = sub.add_parser(
        "watch", help="stream a submitted campaign's progress events"
    )
    add_client_args(watch_p)
    watch_p.add_argument("job_id", help="job id returned by submit")
    watch_p.add_argument("--cursor", type=int, default=0,
                         help="resume the event stream from this cursor")
    watch_p.add_argument("--json", action="store_true",
                         help="print events (and the result) as JSON lines")

    runs_p = sub.add_parser(
        "runs",
        help="inspect the persistent run registry (list/show/compare/"
             "export/gc/baseline/gate)",
    )
    runs_sub = runs_p.add_subparsers(dest="runs_command", required=True)

    def add_store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", required=True, metavar="PATH",
                       help="run registry database (SQLite)")

    runs_list = runs_sub.add_parser("list", help="recorded runs, newest first")
    add_store_arg(runs_list)
    runs_list.add_argument("--limit", type=int, default=None,
                           help="max rows to print")
    runs_list.add_argument("--offset", type=int, default=0,
                           help="skip this many newest rows (page with "
                                "--limit)")
    runs_list.add_argument("--status", default=None,
                           choices=["done", "failed", "cancelled"],
                           help="only runs with this terminal status")
    runs_list.add_argument("--problem", default=None, metavar="NAME",
                           help="only runs of this registered problem")

    runs_show = runs_sub.add_parser(
        "show", help="one run's record and recorded frontier"
    )
    add_store_arg(runs_show)
    runs_show.add_argument("run", help="run id, baseline name, or run name")

    runs_compare = runs_sub.add_parser(
        "compare",
        help="front-quality indicators (hypervolume, epsilon, coverage, "
             "diff, knee drift) between two recorded runs",
    )
    add_store_arg(runs_compare)
    runs_compare.add_argument("a", help="reference run (id/baseline/name)")
    runs_compare.add_argument("b", help="candidate run (id/baseline/name)")
    runs_compare.add_argument("--json", action="store_true",
                              help="print the comparison as JSON")

    runs_export = runs_sub.add_parser(
        "export", help="render one run as Markdown or CSV"
    )
    add_store_arg(runs_export)
    runs_export.add_argument("run", help="run id, baseline name, or run name")
    runs_export.add_argument("--format", default="md", choices=["md", "csv"],
                             help="report format")
    runs_export.add_argument("--out", default=None, metavar="PATH",
                             help="write here instead of stdout")

    runs_gc = runs_sub.add_parser(
        "gc",
        help="delete old runs (baseline-pinned runs are kept)",
    )
    add_store_arg(runs_gc)
    runs_gc.add_argument("--keep", type=int, default=None, metavar="N",
                         help="retain the N newest runs")
    runs_gc.add_argument("--older-than", type=float, default=None,
                         metavar="SECONDS",
                         help="only delete runs older than this")

    runs_baseline = runs_sub.add_parser(
        "baseline", help="pin or show a named baseline"
    )
    add_store_arg(runs_baseline)
    runs_baseline.add_argument("name", help="baseline name")
    runs_baseline.add_argument("run", nargs="?", default=None,
                               help="run to pin (omit to show the "
                                    "current pin)")

    runs_gate = runs_sub.add_parser(
        "gate",
        help="regression-gate a run against a baseline (exit 1 when "
             "front quality degraded beyond tolerance)",
    )
    add_store_arg(runs_gate)
    runs_gate.add_argument("candidate", help="run id, baseline name, or "
                                             "run name to check")
    runs_gate.add_argument("--baseline", required=True, metavar="NAME",
                           help="baseline to compare against")
    runs_gate.add_argument("--max-hv-drop", type=float, default=0.05,
                           metavar="FRAC",
                           help="allowed relative hypervolume loss")
    runs_gate.add_argument("--max-epsilon", type=float, default=0.05,
                           metavar="EPS",
                           help="allowed additive epsilon-indicator")
    runs_gate.add_argument("--min-front-ratio", type=float, default=0.5,
                           metavar="FRAC",
                           help="candidate front size floor, as a "
                                "fraction of the baseline's")
    runs_gate.add_argument("--json", action="store_true",
                           help="print the gate report as JSON")

    trace_p = sub.add_parser(
        "trace",
        help="inspect end-to-end traces (list/show/export) held in a "
             "running server's trace ring",
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    trace_list = trace_sub.add_parser(
        "list", help="finished traces, newest first"
    )
    add_client_args(trace_list)
    trace_list.add_argument("--limit", type=_non_negative_int, default=20,
                            help="max rows to print")
    trace_list.add_argument("--run", default=None, metavar="RUN_ID",
                            help="only traces linked to this run")
    trace_list.add_argument("--json", action="store_true",
                            help="print trace summaries as JSON")

    trace_show = trace_sub.add_parser(
        "show", help="one trace as an ascii span tree"
    )
    add_client_args(trace_show)
    trace_show.add_argument("trace_id", help="trace id (from 'trace list')")
    trace_show.add_argument("--json", action="store_true",
                            help="print the trace's spans as JSON")

    trace_export = trace_sub.add_parser(
        "export",
        help="export one trace as Chrome trace-event JSON "
             "(open in ui.perfetto.dev or chrome://tracing)",
    )
    add_client_args(trace_export)
    trace_export.add_argument("trace_id", help="trace id (from 'trace list')")
    trace_export.add_argument("--out", default=None, metavar="PATH",
                              help="write here instead of stdout")

    mc = sub.add_parser("mc", help="Monte-Carlo variation of one design")
    mc.add_argument("--precision", required=True)
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--h", type=int, required=True)
    mc.add_argument("--l", type=int, required=True)
    mc.add_argument("--k", type=int, required=True)
    mc.add_argument("--samples", type=int, default=500)
    mc.add_argument("--pdk", default="generic28")
    mc.add_argument("--corner", default="tt",
                    choices=sorted(STANDARD_CORNERS))
    return parser


def _tech(args) -> object:
    return apply_corner(load_pdk(args.pdk), args.corner)


def _cmd_precisions() -> int:
    rows = []
    for p in STANDARD_PRECISIONS.values():
        rows.append(
            (p.name, p.kind, p.bits, p.exponent_bits or "-",
             p.mantissa_bits or "-")
        )
    print(ascii_table(["name", "kind", "bits", "BE", "BM"], rows))
    return 0


def _cmd_pdks() -> int:
    rows = []
    for name in available_pdks():
        tech = load_pdk(name)
        rows.append(
            (name, f"{tech.node_nm:g}", tech.gate_area_um2,
             tech.gate_delay_ps, tech.gate_energy_fj)
        )
    print(ascii_table(["pdk", "node nm", "gate um2", "gate ps", "gate fJ"], rows))
    print(f"corners: {', '.join(sorted(STANDARD_CORNERS))}")
    return 0


def _cmd_explore(args) -> int:
    from repro.core.compiler import SegaDcim
    from repro.dse.distill import distill

    tech = _tech(args)
    compiler = SegaDcim(tech=tech)
    spec = DcimSpec(wstore=args.wstore, precision=args.precision)
    result = compiler.explore(spec, seed=args.seed, exhaustive=not args.ga)
    pairs = distill(result.points, tech)
    rows = [
        (
            p.n, p.h, p.l, p.k,
            f"{m.layout_area_mm2:.3f}", f"{m.delay_ns:.2f}",
            f"{m.tops:.2f}", f"{m.tops_per_watt:.1f}",
        )
        for p, m in pairs[: args.limit]
    ]
    print(
        f"Pareto frontier for Wstore={format_si(spec.wstore)} "
        f"{spec.precision.name} ({len(pairs)} designs, showing "
        f"{len(rows)}):"
    )
    print(
        ascii_table(
            ["N", "H", "L", "k", "area mm2", "delay ns", "TOPS", "TOPS/W"],
            rows,
        )
    )
    return 0


def _cmd_compile(args) -> int:
    from repro.core.compiler import SegaDcim
    from repro.core.manifest import write_artifacts
    from repro.dse.distill import Requirements

    tech = _tech(args)
    compiler = SegaDcim(tech=tech)
    spec = DcimSpec(wstore=args.wstore, precision=args.precision)
    requirements = Requirements(
        max_area_mm2=args.max_area, min_tops=args.min_tops
    )
    try:
        result = compiler.compile(
            spec,
            requirements=requirements,
            strategy=args.strategy,
            seed=args.seed,
            exhaustive=not args.ga,
            verify=args.verify,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.summary())
    verified = not args.verify or result.verification.passed
    if args.verify:
        stream = sys.stdout if verified else sys.stderr
        print(f"verification: {result.verification}", file=stream)
        for mismatch in result.verification.mismatches:
            print(f"  {mismatch}", file=stream)
    if args.out:
        manifest = write_artifacts(result, args.out, tech)
        print(f"artifacts written to {manifest.parent} (manifest.json)")
    return 0 if verified else 1


def _cmd_report(args) -> int:
    from repro.reporting.power import full_report

    tech = _tech(args)
    try:
        design = DesignPoint(
            precision=parse_precision(args.precision),
            n=args.n, h=args.h, l=args.l, k=args.k,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(design.describe())
    print(full_report(design.macro_cost(), tech))
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.rtl.lint import lint_source

    source = "\n".join(Path(p).read_text() for p in args.paths)
    report = lint_source(source)
    if report.passed:
        print(f"lint: CLEAN ({len(report.modules)} modules)")
        return 0
    for error in report.errors:
        print(f"lint error: {error}", file=sys.stderr)
    return 1


def _cmd_sweep(args) -> int:
    from repro.core.compiler import SegaDcim
    from repro.dse.distill import distill

    tech = _tech(args)
    compiler = SegaDcim(tech=tech)
    precision = parse_precision(args.precision)
    rows = []
    for wstore_text in args.wstores.split(","):
        wstore = int(wstore_text)
        spec = DcimSpec(wstore=wstore, precision=precision)
        pairs = distill(
            compiler.explore(spec, exhaustive=True).points, tech
        )
        # Densest full-rate pick (the Fig. 8 design-A analogue).
        full_rate = [(p, m) for p, m in pairs if p.k == precision.input_bits]
        max_l = max(p.l for p, _ in full_rate)
        point, metrics = min(
            ((p, m) for p, m in full_rate if p.l == max_l),
            key=lambda pm: pm[1].layout_area_mm2,
        )
        rows.append(
            (
                format_si(wstore),
                f"N={point.n} H={point.h} L={point.l} k={point.k}",
                f"{metrics.tops_per_watt:.1f}",
                f"{metrics.tops_per_mm2:.2f}",
                f"{metrics.layout_area_mm2:.3f}",
            )
        )
    print(ascii_table(
        ["Wstore", "design", "TOPS/W", "TOPS/mm2", "area mm2"], rows
    ))
    return 0


def _cmd_problems(args) -> int:
    from repro.problems import problem_catalog

    catalogue = problem_catalog()
    if args.json:
        import json as _json

        print(_json.dumps({"problems": catalogue}, sort_keys=True))
        return 0
    rows = [
        (
            entry["name"],
            entry["title"],
            ", ".join(entry["objectives"]),
            f"{entry['defaults']['population_size']}"
            f"x{entry['defaults']['generations']}",
            ", ".join(
                name + ("" if detail["required"] else "?")
                for name, detail in entry["spec_schema"].items()
            ),
        )
        for entry in catalogue
    ]
    print(ascii_table(
        ["problem", "title", "objectives", "pop x gen", "spec fields"], rows
    ))
    return 0


def _apply_tech_flags(spec_request, args):
    """Thread ``--pdk``/``--corner`` into specs that carry them.

    The dcim spec has no technology fields (its normalised objectives
    are tech-free; physical units are attached at render time), but
    problems like ``mapping`` compute physical objectives and must see
    the CLI's technology choice rather than silently using their spec
    defaults.
    """
    import dataclasses

    fields = {f.name for f in dataclasses.fields(type(spec_request))}
    updates = {}
    if "pdk" in fields:
        updates["pdk"] = args.pdk
    if "corner" in fields:
        updates["corner"] = args.corner
    if not updates:
        return spec_request
    return dataclasses.replace(spec_request, **updates)


def _resolve_ga_sizing(args, definition) -> tuple[int, int]:
    """CLI GA sizing, falling back to the problem's own defaults."""
    population = (
        args.population
        if args.population is not None
        else definition.sizing.population_size
    )
    generations = (
        args.generations
        if args.generations is not None
        else definition.sizing.generations
    )
    return population, generations


def _read_jsonl_log(path) -> list[tuple[str, tuple[float, ...]]]:
    """Entries of a log written by the removed JSONL cache tier.

    Kept read-only, for ``repro cache migrate``: one
    ``{"key": ..., "objectives": [...]}`` record per line, and the last
    line for a key wins.
    """
    import json

    entries: dict[str, tuple[float, ...]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                entries[record["key"]] = tuple(record["objectives"])
    return list(entries.items())


def _cmd_cache(args) -> int:
    from pathlib import Path

    from repro.service import EvaluationCache

    # Every cache subcommand reads an existing file; opening a typo'd
    # path would silently create an empty cache (matching `repro runs`).
    path = args.src if args.cache_command == "migrate" else args.path
    if not Path(path).is_file():
        print(f"error: no evaluation cache at {path}", file=sys.stderr)
        return 1

    if args.cache_command == "migrate":
        if Path(args.dst).resolve() == Path(args.src).resolve():
            print("error: migrate needs distinct src and dst paths",
                  file=sys.stderr)
            return 1
        try:
            src = EvaluationCache(args.src)
        except ValueError:  # a log of the removed JSONL tier
            entries, backend = _read_jsonl_log(args.src), "jsonl"
        else:
            with src:
                entries, backend = src.items(), src.backend
        try:
            dst = EvaluationCache(args.dst)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        with dst:
            for start in range(0, len(entries), args.batch_size):
                dst.put_many(dict(entries[start:start + args.batch_size]))
            migrated = len(dst)
        print(
            f"migrated {len(entries)} entries: {args.src} "
            f"[{backend}] -> {args.dst} ({migrated} stored)"
        )
        return 0

    try:
        cache = EvaluationCache(path)
    except ValueError as exc:  # e.g. a log of the removed JSONL tier
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.cache_command == "stats":
        with cache:
            info = cache.info()
        if args.json:
            import json as _json

            print(_json.dumps(info, sort_keys=True))
            return 0
        rows = [
            ("backend", info["backend"]),
            ("entries", info["entries"]),
            ("disk bytes", info.get("disk_bytes", "-")),
            ("memory entries", info["memory_entries"]),
            ("hit rate", f"{info['stats']['hit_rate']:.1%}"),
        ]
        print(ascii_table(["property", "value"], rows))
        return 0

    if args.cache_command == "compact":
        with cache:
            report = cache.compact()
            entries = len(cache)
        print(
            f"vacuumed {args.path}: {report['bytes_before']} -> "
            f"{report['bytes_after']} bytes, {entries} entries"
        )
        return 0

    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_campaign(args) -> int:
    from repro.dse.nsga2 import NSGA2Config
    from repro.problems import get_problem
    from repro.service.campaign import CampaignConfig, run_campaign

    try:
        definition = get_problem(args.problem)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    try:
        spec_requests = [
            _apply_tech_flags(definition.parse_cli_spec(text), args)
            for text in args.spec
        ]
        specs = [definition.to_spec(request) for request in spec_requests]
        population, generations = _resolve_ga_sizing(args, definition)
        # None keeps CampaignConfig's default threshold; an explicit
        # value (including 0 = always GA) overrides it.
        threshold = {}
        if args.exhaustive_threshold is not None:
            threshold["exhaustive_threshold"] = args.exhaustive_threshold
        config = CampaignConfig(
            nsga2=NSGA2Config(
                population_size=population,
                generations=generations,
            ),
            seed=args.seed,
            workers=args.workers,
            problem=args.problem,
            **threshold,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.store is None and (args.name or args.baseline or args.set_baseline):
        print("error: --name/--baseline/--set-baseline need --store",
              file=sys.stderr)
        return 1
    # The cache and the store (and SQLite with them) load only when asked
    # for: without --cache the campaign runs uncached.
    cache = None
    if args.cache:
        from repro.service.cache import EvaluationCache

        try:
            cache = EvaluationCache(args.cache)
        except ValueError as exc:  # a directory or a JSONL log
            print(f"error: {exc}", file=sys.stderr)
            return 1
    store = None
    if args.store:
        from repro.store import RunStore

        store = RunStore(args.store)
    tech = _tech(args)
    try:
        try:
            result = run_campaign(
                specs, config, cache=cache, store=store, run_name=args.name
            )
        except ValueError as exc:  # e.g. a spec the genome codec rejects
            print(f"error: {exc}", file=sys.stderr)
            return 1
        response = result.to_response()
        if args.json:
            print(response.to_json())
            return _campaign_registry_epilogue(args, store, result)
        # The default problem keeps its physical-units table: deriving
        # mm2/ns/TOPS needs the CLI's --pdk/--corner technology context,
        # which generic definitions deliberately know nothing about.
        # Every other registered problem renders through its
        # definition's point_columns/point_row.
        if args.problem == "dcim":
            headers = ["prec", "N", "H", "L", "k", "area mm2", "delay ns",
                       "TOPS", "TOPS/W"]
            rows = []
            for point in result.merged_points[: args.limit]:
                m = point.metrics(tech)
                rows.append(
                    (
                        point.precision.name, point.n, point.h, point.l,
                        point.k,
                        f"{m.layout_area_mm2:.3f}", f"{m.delay_ns:.2f}",
                        f"{m.tops:.2f}", f"{m.tops_per_watt:.1f}",
                    )
                )
            spec_names = ", ".join(
                f"{format_si(s.wstore)}:{s.precision.name}" for s in specs
            )
        else:
            headers = list(definition.point_columns())
            rows = [
                definition.point_row(point, tuple(objectives))
                for point, objectives in zip(
                    result.merged_points[: args.limit],
                    result.merged_objectives[: args.limit],
                )
            ]
            spec_names = ", ".join(definition.spec_label(s) for s in specs)
        print(
            f"Merged {args.problem} frontier over {len(specs)} specs "
            f"({spec_names}): "
            f"{len(result.merged_points)} designs, showing {len(rows)}"
        )
        print(ascii_table(headers, rows))
        stats = result.cache_stats
        strategy_text = ", ".join(
            f"{definition.spec_label(spec)}={strategy}"
            for spec, strategy in zip(specs, result.strategies)
        )
        print(f"strategy: {strategy_text}")
        print(
            f"evaluations: {result.evaluations} unique genomes "
            f"({', '.join(f'{r.evaluations}' for r in result.results)} per spec), "
            f"{result.fresh_evaluations} computed fresh; "
            f"wall time {result.wall_time_s:.2f} s"
        )
        if stats is not None and all(
            strategy == "exhaustive" for strategy in result.strategies
        ):
            print(
                f"cache[{cache.backend}]: not consulted (every spec was "
                f"enumerated exhaustively), {len(cache)} entries stored"
            )
        elif stats is not None:
            print(
                f"cache[{cache.backend}]: {stats.hits} hits / {stats.misses} "
                f"misses (hit rate {stats.hit_rate:.1%}), "
                f"{len(cache)} entries stored"
            )
        return _campaign_registry_epilogue(args, store, result)
    finally:
        if cache is not None:
            cache.close()
        if store is not None:
            store.close()


def _campaign_registry_epilogue(args, store, result) -> int:
    """Post-campaign registry work: announce, pin, and gate the run.

    Returns the process exit code: 0 normally, 1 when a ``--baseline``
    gate found a regression.
    """
    if store is None:
        return 0
    if result.run_id is None:  # write failed (warned by run_campaign)
        print(f"error: campaign finished but recording into "
              f"{args.store} failed", file=sys.stderr)
        return 1
    print(f"recorded {result.run_id} in {args.store}", file=sys.stderr)
    if args.set_baseline:
        store.set_baseline(args.set_baseline, result.run_id)
        print(f"baseline {args.set_baseline!r} -> {result.run_id}",
              file=sys.stderr)
    if not args.baseline:
        return 0
    from repro.store import check_regression

    try:
        store.get_baseline(args.baseline)
    except KeyError:
        # First use seeds the baseline with this very run.
        store.set_baseline(args.baseline, result.run_id)
        print(f"baseline {args.baseline!r} seeded with {result.run_id}",
              file=sys.stderr)
        return 0
    try:
        report = check_regression(store, result.run_id, args.baseline)
    except ValueError as exc:
        # e.g. the named baseline pins a run of a different problem —
        # the registry refuses cross-problem comparison.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.describe(), file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_serve(args) -> int:
    from repro import obs
    from repro.service import serve

    obs.configure(level=args.log_level)
    if args.workers_remote and args.cache:
        print("error: --cache does not apply to --workers-remote: "
              "workers evaluate uncached", file=sys.stderr)
        return 1
    if not args.workers_remote and (
        args.lease_ttl is not None or args.unit_attempts is not None
    ):
        print("error: --lease-ttl/--unit-attempts need --workers-remote",
              file=sys.stderr)
        return 1
    # A coordinator's queue evaluates nothing itself, so it gets no cache.
    cache = None
    if not args.workers_remote:
        from repro.service.cache import EvaluationCache

        try:
            cache = EvaluationCache(args.cache) if args.cache else EvaluationCache()
        except ValueError as exc:  # a directory or a JSONL log
            print(f"error: {exc}", file=sys.stderr)
            return 1
    store = None
    if args.store:
        from repro.store import RunStore

        store = RunStore(args.store)
    admission = None
    policy = obs.AdmissionPolicy(
        rate_limit=args.rate_limit,
        burst=args.burst,
        max_pending=args.max_pending,
        max_budget=args.max_budget,
    )
    if policy.enabled:
        admission = obs.AdmissionController(policy)
    # Every layer, the HTTP handler included, traces through the process
    # global; the server also serves /api/traces from its ring.
    obs.set_tracer(obs.NULL_TRACER if args.no_trace else obs.Tracer())
    coordinator = None
    if args.workers_remote:
        from repro.service.distributed import WorkCoordinator

        coordinator = WorkCoordinator(
            lease_ttl_s=(
                args.lease_ttl if args.lease_ttl is not None else 30.0
            ),
            max_attempts=(
                args.unit_attempts if args.unit_attempts is not None else 3
            ),
        )
    server = serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache=cache,
        event_buffer_size=args.buffer,
        ttl_s=args.ttl,
        store=store,
        admission=admission,
        coordinator=coordinator,
    )
    # The bound port matters when --port 0 asked for an ephemeral one;
    # scripts parse this line (see scripts/smoke.sh).
    registry = f", registry {args.store}" if store is not None else ""
    pool = (
        "remote workers" if coordinator is not None
        else f"{args.workers} workers, cache {cache.backend}"
    )
    print(f"serving campaigns on {server.url} ({pool}{registry})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.queue.close(wait=False)
        if cache is not None:
            cache.close()
        if store is not None:
            store.close()
    return 0


def _cmd_worker(args) -> int:
    from repro import obs
    from repro.service.worker import CampaignWorker

    obs.configure(level=args.log_level)
    worker = CampaignWorker(
        args.url,
        worker_id=args.worker_id,
        poll_s=args.poll,
        max_units=args.max_units,
        exit_idle_s=args.exit_idle,
    )
    try:
        worker.run()
    except KeyboardInterrupt:
        worker.stop()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_dashboard(args) -> int:
    from pathlib import Path

    from repro.reporting import write_dashboard
    from repro.store import RunStore

    # Rendering reads an existing registry; opening a typo'd path would
    # silently create an empty database (matching the runs commands).
    if not Path(args.store).exists():
        print(f"error: no run registry at {args.store}", file=sys.stderr)
        return 1
    with RunStore(args.store) as store:
        out = write_dashboard(
            store,
            args.out,
            title=args.title,
            runs_limit=args.runs,
        )
    print(f"wrote dashboard to {out}")
    return 0


def _build_submit_request(args):
    from repro.problems import get_problem
    from repro.service import CampaignRequest

    definition = get_problem(args.problem)
    specs = tuple(definition.parse_cli_spec(text) for text in args.spec)
    population, generations = _resolve_ga_sizing(args, definition)
    return CampaignRequest(
        specs=specs,
        population_size=population,
        generations=generations,
        seed=args.seed,
        workers=args.workers,
        problem=args.problem,
        exhaustive_threshold=args.exhaustive_threshold,
    )


def _watch_job(client, job_id: str, cursor: int = 0, as_json: bool = False) -> int:
    """Stream events until the terminal one; print the outcome."""
    from repro.service.events import EventKind

    final = None
    for event in client.watch(job_id, cursor=cursor):
        print(event.to_json() if as_json else event.describe(), flush=True)
        final = event
    if final is None or final.kind is not EventKind.CAMPAIGN_DONE:
        return 1
    response = client.result(job_id)
    if as_json:
        print(response.to_json())
    else:
        print(
            f"{job_id}: {len(response.frontier)} frontier designs, "
            f"{response.evaluations} evaluations "
            f"({response.fresh_evaluations} fresh)"
        )
    return 0


def _cmd_submit(args) -> int:
    from repro.service import CampaignClient

    try:
        request = _build_submit_request(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    client = CampaignClient(args.url)
    try:
        job_id = client.submit(request)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"submitted {job_id} ({client.status(job_id)['status']})", flush=True)
    if not args.watch:
        return 0
    return _watch_job(client, job_id, as_json=args.json)


def _cmd_watch(args) -> int:
    from repro.service import CampaignClient

    client = CampaignClient(args.url)
    try:
        return _watch_job(client, args.job_id, cursor=args.cursor,
                          as_json=args.json)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_runs(args) -> int:
    from pathlib import Path

    from repro.store import RunStore

    # Every runs subcommand reads an existing registry; opening a typo'd
    # path would silently create an empty database.
    if not Path(args.store).exists():
        print(f"error: no run registry at {args.store}", file=sys.stderr)
        return 1
    with RunStore(args.store) as store:
        try:
            return _run_registry_command(args, store)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _run_registry_command(args, store) -> int:
    import time as _time

    if args.runs_command == "list":
        records = store.list_runs(
            limit=args.limit,
            status=args.status,
            offset=args.offset,
            problem=args.problem,
        )
        baselines = {run_id: name for name, run_id in store.baselines().items()}
        rows = [
            (
                r.run_id,
                r.name or "-",
                baselines.get(r.run_id, "-"),
                r.problem,
                r.status,
                ", ".join(r.specs),
                r.front_size,
                r.evaluations,
                f"{r.wall_time_s:.2f}",
                f"{max(0.0, _time.time() - r.created_at):.0f}s",
            )
            for r in records
        ]
        print(ascii_table(
            ["run", "name", "baseline", "problem", "status", "specs",
             "front", "evals", "wall s", "age"],
            rows,
        ))
        shown = f"{len(records)} runs shown ({len(store)} recorded)"
        if args.offset:
            shown += f", offset {args.offset}"
        print(shown)
        return 0

    if args.runs_command == "show":
        from repro.problems import get_problem
        from repro.reporting.runs import front_columns, front_rows

        record = store.resolve(args.run)
        print(record.describe())
        front = store.front(record.run_id)
        try:
            legend = " ".join(get_problem(record.problem).objectives)
        except KeyError:  # recorded by a problem not registered here
            legend = "per-problem order"
        headers = list(front_columns(front))
        headers[-1] = f"objectives [{legend}]"
        print(ascii_table(headers, front_rows(front, precision=4)))
        return 0

    if args.runs_command == "compare":
        import json as _json

        from repro.store import compare_runs

        comparison = compare_runs(store, args.a, args.b)
        if args.json:
            print(_json.dumps(comparison.to_dict(), sort_keys=True))
        else:
            print(comparison.describe())
        return 0

    if args.runs_command == "export":
        from repro.reporting.runs import run_report_csv, run_report_markdown

        record = store.resolve(args.run)
        front = store.front(record.run_id)
        text = (
            run_report_markdown(record, front)
            if args.format == "md"
            else run_report_csv(record, front)
        )
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text)
            print(f"wrote {args.format} report to {args.out}")
        else:
            print(text, end="")
        return 0

    if args.runs_command == "gc":
        if args.keep is None and args.older_than is None:
            print("error: gc needs --keep and/or --older-than",
                  file=sys.stderr)
            return 1
        deleted = store.gc(keep_last=args.keep, older_than_s=args.older_than)
        print(f"deleted {deleted} runs ({len(store)} kept)")
        return 0

    if args.runs_command == "baseline":
        if args.run is not None:
            record = store.resolve(args.run)
            store.set_baseline(args.name, record.run_id)
            print(f"baseline {args.name!r} -> {record.run_id}")
        else:
            record = store.get_baseline(args.name)
            print(f"baseline {args.name!r} -> {record.describe()}")
        return 0

    if args.runs_command == "gate":
        from repro.store import GateConfig, check_regression

        config = GateConfig(
            max_hypervolume_drop=args.max_hv_drop,
            max_epsilon=args.max_epsilon,
            min_front_ratio=args.min_front_ratio,
        )
        report = check_regression(
            store, args.candidate, args.baseline, config
        )
        if args.json:
            import json as _json

            print(_json.dumps(report.to_dict(), sort_keys=True))
        else:
            print(report.describe())
        return 0 if report.passed else 1

    raise AssertionError(f"unhandled runs command {args.runs_command!r}")


def _cmd_trace(args) -> int:
    import json as _json
    import time as _time

    from repro.obs.trace import chrome_trace, trace_tree
    from repro.service import CampaignClient

    client = CampaignClient(args.url)
    try:
        if args.trace_command == "list":
            if args.run is None:
                traces = client.traces(limit=args.limit)
            else:
                # The server cuts to its limit before any run filter:
                # ask for the whole ring, keep the run's, then cut.
                traces = [
                    t for t in client.traces(limit=sys.maxsize)
                    if t.get("run_id") == args.run
                ][: args.limit]
            if args.json:
                print(_json.dumps({"traces": traces}, sort_keys=True))
                return 0
            rows = [
                (
                    t["trace_id"],
                    t.get("name", ""),
                    t.get("status", "ok"),
                    t.get("span_count", "-"),
                    f"{t.get('duration_s', 0.0) * 1000.0:.1f}",
                    t.get("run_id") or "-",
                    f"{max(0.0, _time.time() - t.get('start_time', 0.0)):.0f}s",
                )
                for t in traces
            ]
            print(ascii_table(
                ["trace", "name", "status", "spans", "ms", "run", "age"],
                rows,
            ))
            print(f"{len(traces)} traces shown")
            return 0

        try:
            spans = client.trace(args.trace_id).get("spans", [])
        except RuntimeError as exc:
            if "404" not in str(exc):
                raise
            spans = []
        if not spans:
            print(f"error: unknown trace id {args.trace_id!r}",
                  file=sys.stderr)
            return 1
        if args.trace_command == "show":
            if args.json:
                print(_json.dumps(
                    {"trace_id": args.trace_id, "spans": spans},
                    sort_keys=True, default=str,
                ))
            else:
                print(trace_tree(spans))
            return 0
        if args.trace_command == "export":
            text = _json.dumps(chrome_trace(spans), default=str)
            if args.out:
                from pathlib import Path

                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                Path(args.out).write_text(text)
                print(f"wrote Chrome trace JSON to {args.out}")
            else:
                print(text)
            return 0
        raise AssertionError(
            f"unhandled trace command {args.trace_command!r}"
        )
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _cmd_mc(args) -> int:
    from repro.model.variation import monte_carlo

    tech = _tech(args)
    try:
        design = DesignPoint(
            precision=parse_precision(args.precision),
            n=args.n, h=args.h, l=args.l, k=args.k,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = monte_carlo(design, tech, samples=args.samples)
    rows = [(key, f"{value:.3f}") for key, value in result.summary().items()]
    print(design.describe())
    print(ascii_table(["statistic", "value"], rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "precisions":
        return _cmd_precisions()
    if args.command == "pdks":
        return _cmd_pdks()
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "problems":
        return _cmd_problems(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "mc":
        return _cmd_mc(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
