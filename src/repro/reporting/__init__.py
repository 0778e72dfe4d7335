"""Reporting utilities for benches, examples, and the run registry."""

from repro._lazy import lazy_exports

__all__ = [
    "ascii_table",
    "csv_table",
    "format_si",
    "ascii_scatter",
    "area_report",
    "power_report",
    "timing_report",
    "full_report",
    "run_report_markdown",
    "run_report_csv",
    "comparison_markdown",
    "render_dashboard",
    "write_dashboard",
]

_EXPORTS = {
    "repro.reporting.dashboard": ("render_dashboard", "write_dashboard"),
    "repro.reporting.plots": ("ascii_scatter",),
    "repro.reporting.power": ("area_report", "full_report", "power_report", "timing_report"),
    "repro.reporting.runs": ("comparison_markdown", "run_report_csv", "run_report_markdown"),
    "repro.reporting.tables": ("ascii_table", "csv_table", "format_si"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
