"""Template-based RTL generation for SEGA-DCIM."""

from repro._lazy import lazy_exports

__all__ = [
    "LintReport",
    "lint_bundle",
    "lint_source",
    "generate_int_testbench",
    "VerilogModule",
    "Port",
    "Instance",
    "render_modules",
    "RtlBundle",
    "ArchitectureTemplate",
    "IntMacroTemplate",
    "FpMacroTemplate",
    "register_template",
    "available_templates",
    "generate_rtl",
    "write_bundle",
]

_EXPORTS = {
    "repro.rtl.generator": (
        "ArchitectureTemplate", "FpMacroTemplate", "IntMacroTemplate", "RtlBundle",
        "available_templates", "generate_rtl", "register_template", "write_bundle",
    ),
    "repro.rtl.lint": ("LintReport", "lint_bundle", "lint_source"),
    "repro.rtl.testbench": ("generate_int_testbench",),
    "repro.rtl.verilog": ("Instance", "Port", "VerilogModule", "render_modules"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
