"""Markdown / CSV report generation for recorded campaign runs.

Renders :class:`~repro.store.runstore.RunRecord` rows and their fronts
(and :class:`~repro.store.analytics.FrontComparison` results) into
shareable artifacts — the output of ``repro runs export``.
"""

from __future__ import annotations

import time

from repro.reporting.tables import csv_table
from repro.service.api import FrontierPoint
from repro.store.analytics import FrontComparison
from repro.store.runstore import RunRecord

__all__ = [
    "run_report_markdown",
    "run_report_csv",
    "comparison_markdown",
    "front_columns",
    "front_rows",
]

#: Column order shared by the Markdown/CSV front tables and
#: ``repro runs show``.  The ``extras`` column appears only when some
#: point actually carries extras, so dcim renderings keep their pre-v2
#: column layout.
FRONT_COLUMNS = ("precision", "n", "h", "l", "k", "objectives")
FRONT_COLUMNS_EXTRAS = ("precision", "n", "h", "l", "k", "extras",
                        "objectives")


def front_columns(front: list[FrontierPoint]) -> tuple[str, ...]:
    """Headers matching :func:`front_rows` for this front."""
    if any(p.extras for p in front):
        return FRONT_COLUMNS_EXTRAS
    return FRONT_COLUMNS


def front_rows(
    front: list[FrontierPoint], precision: int = 6
) -> list[tuple]:
    """Render a front as table rows (shared by reports and the CLI)."""
    with_extras = any(p.extras for p in front)
    rows = []
    for p in front:
        row = [p.precision, p.n, p.h, p.l, p.k]
        if with_extras:
            row.append(
                " ".join(f"{k}={v}" for k, v in sorted(p.extras.items()))
                or "-"
            )
        row.append(" ".join(f"{o:.{precision}g}" for o in p.objectives))
        rows.append(tuple(row))
    return rows


def _markdown_table(headers: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines.extend(
        "| " + " | ".join(str(cell) for cell in row) + " |" for row in rows
    )
    return "\n".join(lines)


def run_report_markdown(
    record: RunRecord, front: list[FrontierPoint]
) -> str:
    """One run as a Markdown document (summary + front table)."""
    recorded = time.strftime(
        "%Y-%m-%d %H:%M:%S UTC", time.gmtime(record.created_at)
    )
    title = record.name or record.run_id
    lines = [
        f"# Campaign run `{title}`",
        "",
        f"- run id: `{record.run_id}`",
        f"- problem: `{record.problem}`",
        f"- status: **{record.status}**",
        f"- recorded: {recorded}",
        f"- specs: {', '.join(record.specs) or '-'}",
        f"- evaluations: {record.evaluations} "
        f"({record.fresh_evaluations} fresh)",
        f"- wall time: {record.wall_time_s:.2f} s",
        f"- strategy: {record.strategy or '-'}",
        f"- fingerprint: `{record.fingerprint[:16]}...`",
    ]
    if record.cache_stats is not None:
        hits = record.cache_stats.get("hits", 0)
        misses = record.cache_stats.get("misses", 0)
        total = hits + misses
        if total:
            lines.append(
                f"- cache: {hits} hits / {misses} misses ({hits / total:.1%})"
            )
        else:  # the exhaustive route never looks anything up
            lines.append("- cache: not consulted")
    if record.error:
        lines.append(f"- error: {record.error}")
    lines.extend(["", f"## Merged frontier ({len(front)} designs)", ""])
    if front:
        lines.append(
            _markdown_table(front_columns(front), front_rows(front))
        )
    else:
        lines.append("*(no front recorded)*")
    return "\n".join(lines) + "\n"


def run_report_csv(record: RunRecord, front: list[FrontierPoint]) -> str:
    """One run's front as CSV (objectives space-separated in one cell)."""
    rows = [(record.run_id,) + row for row in front_rows(front)]
    return csv_table(("run_id",) + front_columns(front), rows)


def comparison_markdown(comparison: FrontComparison) -> str:
    """A :class:`FrontComparison` as a Markdown summary table."""
    rows = [
        ("front size", comparison.size_a, comparison.size_b),
        (
            "hypervolume",
            f"{comparison.hypervolume_a:.4f}",
            f"{comparison.hypervolume_b:.4f}",
        ),
        (
            "epsilon-indicator (vs other)",
            f"{comparison.epsilon_ab:.4f}",
            f"{comparison.epsilon_ba:.4f}",
        ),
        (
            "coverage (of other)",
            f"{comparison.coverage_ab:.1%}",
            f"{comparison.coverage_ba:.1%}",
        ),
    ]
    lines = [
        f"# Front comparison: `{comparison.run_a}` vs `{comparison.run_b}`",
        "",
        f"- hypervolume delta (B - A): {comparison.hypervolume_delta:+.4f}",
        f"- front diff: {comparison.shared} shared, {comparison.added} "
        f"added, {comparison.removed} removed",
        f"- knee drift: {comparison.knee_drift:.4f}",
        "",
        _markdown_table(
            ("metric", f"A ({comparison.run_a})", f"B ({comparison.run_b})"),
            rows,
        ),
    ]
    return "\n".join(lines) + "\n"
