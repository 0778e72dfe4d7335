"""Static HTML operations dashboard rendered from the run registry.

``repro dashboard`` turns the recorded runs of a
:class:`~repro.store.runstore.RunStore` into one self-contained HTML
file: per-problem campaign latency quantiles and the recent-run table.
No third-party dependencies, no external assets, no scripts: the file
is inert and viewable from disk.  A live server serves the rest:
counters and histograms at ``GET /metrics``, workers at
``GET /api/workers`` and its newest traces at ``GET /api/traces``.
"""

from __future__ import annotations

import html
import math
from pathlib import Path

__all__ = ["render_dashboard", "write_dashboard"]

#: Surface and text colors (light, dark).
_PALETTE = {
    "surface": ("#fcfcfb", "#1a1a19"),
    "ink": ("#0b0b0b", "#ffffff"),
    "secondary": ("#52514e", "#c3c2b7"),
    "muted": ("#898781", "#898781"),
    "grid": ("#e1e0d9", "#2c2c2a"),
}


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


def _css() -> str:
    light = {name: pair[0] for name, pair in _PALETTE.items()}
    dark = {name: pair[1] for name, pair in _PALETTE.items()}

    def block(colors: dict[str, str]) -> str:
        return (
            f"--surface:{colors['surface']};--ink:{colors['ink']};"
            f"--secondary:{colors['secondary']};--muted:{colors['muted']};"
            f"--grid:{colors['grid']};"
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
) -> str:
    """Render the operations dashboard as one self-contained HTML page.

    Args:
        store: a :class:`~repro.store.runstore.RunStore`.
        title: page heading.
        runs_limit: rows in the recent-runs table.
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
<footer>rendered by <code>repro dashboard</code> from the run
registry; a live server serves metrics at <code>GET /metrics</code>,
workers at <code>GET /api/workers</code> and traces at
<code>GET /api/traces</code>.</footer>
</body>
</html>
"""


def write_dashboard(store, path: str | Path, **kwargs) -> Path:
    """Render and write the dashboard; returns the output path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_dashboard(store, **kwargs), encoding="utf-8")
    return out
