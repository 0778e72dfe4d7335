"""Static HTML operations dashboard rendered from the run registry.

``repro dashboard`` turns a :class:`~repro.store.runstore.RunStore` —
its recorded runs, per-unit worker rows and persisted ``trace_spans``
(fed by :mod:`repro.obs.trace`) — into one self-contained HTML file:
per-problem campaign latency quantiles, the recent-run table, the
distributed-worker totals, and a slowest-traces explorer with per-trace
span waterfalls.  No third-party dependencies, no external assets, no
scripts: the file is inert and viewable from disk.  Live counters and
histograms are served by ``GET /metrics`` instead.
"""

from __future__ import annotations

import html
import math
from pathlib import Path

__all__ = ["render_dashboard", "write_dashboard"]

#: Data-series and surface colors (light, dark) — waterfall bars use
#: one blue, error spans red; text wears ink tokens, never the series
#: color.
_PALETTE = {
    "series": ("#2a78d6", "#3987e5"),
    "surface": ("#fcfcfb", "#1a1a19"),
    "ink": ("#0b0b0b", "#ffffff"),
    "secondary": ("#52514e", "#c3c2b7"),
    "muted": ("#898781", "#898781"),
    "grid": ("#e1e0d9", "#2c2c2a"),
    "baseline": ("#c3c2b7", "#383835"),
    "error": ("#c43d3d", "#e05c5c"),
}

_CHART_W = 560
_PAD_L = 46
_PAD_R = 10
_PAD_T = 8
_PAD_B = 20


def _format_date(epoch: float) -> str:
    import datetime

    stamp = datetime.datetime.fromtimestamp(epoch)
    return stamp.strftime("%Y-%m-%d %H:%M")


def _quantile(sample: list[float], q: float) -> float:
    if not sample:
        return float("nan")
    ordered = sorted(sample)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def _latency_table(runs) -> str:
    """Per-problem campaign wall-time quantiles from recorded runs."""
    by_problem: dict[str, list[float]] = {}
    for record in runs:
        if record.status == "done":
            by_problem.setdefault(record.problem, []).append(
                record.wall_time_s
            )
    if not by_problem:
        return '<div class="placeholder">no finished runs recorded yet</div>'
    rows = "".join(
        f"<tr><td>{html.escape(problem)}</td>"
        f'<td class="num">{len(sample)}</td>'
        f'<td class="num">{_quantile(sample, 0.5):.2f}</td>'
        f'<td class="num">{_quantile(sample, 0.95):.2f}</td>'
        f'<td class="num">{_quantile(sample, 0.99):.2f}</td></tr>'
        for problem, sample in sorted(by_problem.items())
    )
    return (
        "<table><thead><tr><th>problem</th>"
        '<th class="num">runs</th><th class="num">p50 (s)</th>'
        '<th class="num">p95 (s)</th><th class="num">p99 (s)</th>'
        f"</tr></thead><tbody>{rows}</tbody></table>"
    )


def _runs_table(runs) -> str:
    if not runs:
        return '<div class="placeholder">no runs recorded yet</div>'
    rows = "".join(
        f"<tr><td><code>{html.escape(record.run_id)}</code></td>"
        f"<td>{html.escape(record.problem)}</td>"
        f"<td>{html.escape(record.status)}</td>"
        f"<td>{html.escape(record.strategy or '-')}</td>"
        f'<td class="num">{len(record.specs)}</td>'
        f'<td class="num">{record.front_size}</td>'
        f'<td class="num">{record.evaluations}</td>'
        f'<td class="num">{record.wall_time_s:.2f}</td>'
        f"<td>{_format_date(record.created_at)}</td></tr>"
        for record in runs
    )
    return (
        "<table><thead><tr><th>run</th><th>problem</th><th>status</th>"
        '<th>strategy</th>'
        '<th class="num">specs</th><th class="num">front</th>'
        '<th class="num">evals</th><th class="num">wall (s)</th>'
        f"<th>recorded</th></tr></thead><tbody>{rows}</tbody></table>"
    )


def _workers_table(store) -> str:
    """Per-worker totals across recorded distributed runs."""
    try:
        workers = store.worker_summary()
    except Exception:  # store predates the work_units table
        workers = []
    if not workers:
        return (
            '<div class="placeholder">no distributed runs recorded yet — '
            "serve with <code>--workers-remote</code> and connect "
            "<code>repro worker</code> processes</div>"
        )
    rows = "".join(
        f"<tr><td><code>{html.escape(str(w['worker_id']))}</code></td>"
        f'<td class="num">{w["units"]}</td>'
        f'<td class="num">{w["units_done"]}</td>'
        f'<td class="num">{w["evaluations"]}</td>'
        f'<td class="num">{w["wall_time_s"]:.2f}</td></tr>'
        for w in workers
    )
    return (
        "<table><thead><tr><th>worker</th>"
        '<th class="num">units</th><th class="num">done</th>'
        '<th class="num">evals</th><th class="num">wall (s)</th>'
        f"</tr></thead><tbody>{rows}</tbody></table>"
    )


#: Waterfall layout: per-span row height / bar height and the most
#: spans one trace card draws (deep GA traces stay readable).
_ROW_H = 18
_BAR_H = 12
_WATERFALL_SPAN_CAP = 48


def _format_ms(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"


def _traces_table(traces: list[dict]) -> str:
    """Slowest persisted traces, one row each."""
    if not traces:
        return (
            '<div class="placeholder">no traces recorded yet — serve '
            "with a store (tracing is on by default), then re-render</div>"
        )
    rows = "".join(
        f"<tr><td><code>{html.escape(t['trace_id'])}</code></td>"
        f"<td>{html.escape(t.get('name') or '')}</td>"
        f"<td>{html.escape(t.get('status') or 'ok')}</td>"
        f'<td class="num">{t.get("span_count", 0)}</td>'
        f'<td class="num">{_format_ms(t.get("duration_s") or 0.0)}</td>'
        f"<td>{html.escape(t.get('run_id') or '-')}</td>"
        f"<td>{_format_date(t.get('start_time') or 0.0)}</td></tr>"
        for t in traces
    )
    return (
        "<table><thead><tr><th>trace</th><th>root</th><th>status</th>"
        '<th class="num">spans</th><th class="num">duration</th>'
        f"<th>run</th><th>started</th></tr></thead><tbody>{rows}</tbody>"
        "</table>"
    )


def _trace_waterfall(spans: list[dict]) -> str:
    """One trace's spans as an SVG Gantt (offset + width = timing).

    Rows keep start-time order; labels indent by tree depth so the
    request → campaign → spec → generation nesting reads without
    connectors.  Error spans use the error color; every bar carries a
    native tooltip with name, duration, category, and thread.
    """
    if not spans:
        return '<div class="placeholder">trace has no recorded spans</div>'
    rows = sorted(spans, key=lambda s: (s["start_time"], s["span_id"]))
    clipped = max(0, len(rows) - _WATERFALL_SPAN_CAP)
    rows = rows[:_WATERFALL_SPAN_CAP]
    t0 = min(r["start_time"] for r in rows)
    t1 = max(r["start_time"] + max(r["duration_s"], 0.0) for r in rows)
    window = (t1 - t0) or 1e-9
    by_id = {r["span_id"]: r for r in rows}

    def depth_of(row: dict) -> int:
        depth, parent, seen = 0, row.get("parent_id"), set()
        while parent in by_id and parent not in seen:
            seen.add(parent)
            depth += 1
            parent = by_id[parent].get("parent_id")
        return depth

    plot_w = _CHART_W - _PAD_L - _PAD_R
    height = _PAD_T + len(rows) * _ROW_H + _PAD_B
    bars = []
    for index, row in enumerate(rows):
        x = _PAD_L + (row["start_time"] - t0) / window * plot_w
        w = max(1.5, max(row["duration_s"], 0.0) / window * plot_w)
        y = _PAD_T + index * _ROW_H + (_ROW_H - _BAR_H) / 2
        errored = row.get("status") == "error"
        label = f"{'· ' * depth_of(row)}{row.get('name', 'span')}"
        detail = (
            f"{row.get('name', 'span')} — "
            f"{_format_ms(max(row.get('duration_s', 0.0), 0.0))}"
            f" [{row.get('category') or 'app'}]"
            + (f" on {row['thread']}" if row.get("thread") else "")
            + (f" — {row['error']}" if row.get("error") else "")
        )
        # The label sits after short bars and before bars pinned to the
        # right edge, so text never paints over the bar itself.
        if x + w + 6 <= _CHART_W - _PAD_R - 30:
            label_x, anchor = x + w + 4, "start"
        else:
            label_x, anchor = x - 4, "end"
        bars.append(
            f'<rect class="bar{" error" if errored else ""}" '
            f'x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{_BAR_H}">'
            f"<title>{html.escape(detail)}</title></rect>"
            f'<text class="bar-label" x="{label_x:.1f}" '
            f'y="{y + _BAR_H - 2.5:.1f}" text-anchor="{anchor}">'
            f"{html.escape(label)}</text>"
        )
    axis_y = _PAD_T + len(rows) * _ROW_H + 2
    note = (
        f'<text class="tick" x="{_PAD_L}" y="{height - 6}">'
        f"+{clipped} spans not drawn</text>"
        if clipped
        else f'<text class="tick" x="{_PAD_L}" y="{height - 6}">0</text>'
    )
    end_label = (
        f'<text class="tick" x="{_CHART_W - _PAD_R}" y="{height - 6}" '
        f'text-anchor="end">{_format_ms(window)}</text>'
    )
    return (
        f'<svg viewBox="0 0 {_CHART_W} {height}" role="img">'
        f'<line class="axis" x1="{_PAD_L}" y1="{axis_y}" '
        f'x2="{_CHART_W - _PAD_R}" y2="{axis_y}"/>'
        f"{''.join(bars)}{note}{end_label}</svg>"
    )


def _traces_section(store, traces_limit: int) -> str:
    """Slowest-traces table plus waterfalls for the top three."""
    try:
        traces = store.trace_list(limit=200)
    except Exception:  # pre-trace registry or store without the table
        traces = []
    slowest = sorted(
        traces, key=lambda t: t.get("duration_s") or 0.0, reverse=True
    )[:traces_limit]
    parts = [_traces_table(slowest)]
    for summary in slowest[:3]:
        spans = store.trace_spans(summary["trace_id"])
        title = (
            f"{summary.get('name') or 'trace'} — "
            f"{_format_ms(summary.get('duration_s') or 0.0)} "
            f"({summary['trace_id']})"
        )
        parts.append(
            f'<div class="card"><h3>{html.escape(title)}</h3>'
            f"{_trace_waterfall(spans)}</div>"
        )
    return "".join(parts)


def _css() -> str:
    light = {name: pair[0] for name, pair in _PALETTE.items()}
    dark = {name: pair[1] for name, pair in _PALETTE.items()}

    def block(colors: dict[str, str]) -> str:
        return (
            f"--series:{colors['series']};--surface:{colors['surface']};"
            f"--ink:{colors['ink']};--secondary:{colors['secondary']};"
            f"--muted:{colors['muted']};--grid:{colors['grid']};"
            f"--baseline:{colors['baseline']};--error:{colors['error']};"
        )

    return f"""
:root {{ {block(light)} }}
@media (prefers-color-scheme: dark) {{ :root {{ {block(dark)} }} }}
[data-theme="light"] {{ {block(light)} }}
[data-theme="dark"] {{ {block(dark)} }}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
h1 {{ font-size: 20px; margin: 0 0 2px; }}
.subtitle {{ color: var(--secondary); margin: 0 0 20px; }}
h2 {{ font-size: 15px; margin: 26px 0 10px; }}
.card {{
  border: 1px solid var(--grid); border-radius: 8px; padding: 12px 14px;
}}
.card h3 {{
  font-size: 13px; margin: 0 0 8px; color: var(--secondary);
  font-weight: 600;
}}
svg {{ width: 100%; height: auto; display: block; }}
.axis {{ stroke: var(--baseline); stroke-width: 1; }}
.tick {{ fill: var(--muted); font-size: 10px; }}
.bar {{ fill: var(--series); fill-opacity: 0.85; }}
.bar.error {{ fill: var(--error); }}
.bar:hover {{ fill-opacity: 1; }}
.bar-label {{ fill: var(--secondary); font-size: 10px; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{
  text-align: left; padding: 6px 10px;
  border-bottom: 1px solid var(--grid);
}}
th {{ color: var(--secondary); font-weight: 600; font-size: 12px; }}
td.num, th.num {{
  text-align: right; font-variant-numeric: tabular-nums;
}}
code {{ font-size: 12px; }}
.placeholder {{
  color: var(--muted); border: 1px dashed var(--grid);
  border-radius: 8px; padding: 18px; text-align: center;
}}
footer {{ color: var(--muted); font-size: 12px; margin-top: 28px; }}
"""


def render_dashboard(
    store,
    title: str = "repro operations",
    runs_limit: int = 15,
    traces_limit: int = 8,
) -> str:
    """Render the operations dashboard as one self-contained HTML page.

    Args:
        store: a :class:`~repro.store.runstore.RunStore`.
        title: page heading.
        runs_limit: rows in the recent-runs table.
        traces_limit: rows in the slowest-traces table (the three
            slowest also get a span waterfall).
    """
    runs = store.list_runs(limit=max(runs_limit, 200))
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)}</title>
<style>{_css()}</style>
</head>
<body>
<h1>{html.escape(title)}</h1>
<p class="subtitle">recorded runs: {len(store)}</p>
<h2>Campaign latency by problem</h2>
{_latency_table(runs)}
<h2>Recent runs</h2>
{_runs_table(runs[:runs_limit])}
<h2>Distributed workers</h2>
{_workers_table(store)}
<h2>Slowest traces</h2>
{_traces_section(store, traces_limit)}
<footer>rendered by <code>repro dashboard</code> from the run
registry; live metrics are served by <code>GET /metrics</code>.</footer>
</body>
</html>
"""


def write_dashboard(store, path: str | Path, **kwargs) -> Path:
    """Render and write the dashboard; returns the output path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_dashboard(store, **kwargs), encoding="utf-8")
    return out
