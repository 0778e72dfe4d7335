"""A lightweight structural linter for the generated Verilog.

A commercial flow would elaborate the netlist and fail on undefined
modules, port mismatches or unbalanced constructs; this linter performs
the same sanity layer on the emitted source so bundle regressions are
caught without a simulator:

* balanced ``module/endmodule``, ``begin/end``, ``generate/endgenerate``,
  ``case/endcase`` and parentheses,
* every instantiated module is defined in the bundle (or whitelisted),
* named port connections reference ports the target module declares,
* no duplicate module definitions.

The eight block keywords are counted in one ``\b(...)\b`` scan.  Each
match is a whole word, and whole words never overlap, so one pass over
all eight finds exactly the matches of eight per-keyword passes.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from repro.rtl.generator import RtlBundle

__all__ = ["LintReport", "lint_source", "lint_bundle"]

_MODULE_RE = re.compile(r"^\s*module\s+(\w+)\s*\(([^)]*)\)\s*;", re.M)
_KEYWORD_PAIRS = (
    ("module", "endmodule"),
    ("begin", "end"),
    ("generate", "endgenerate"),
    ("case", "endcase"),
)
_KEYWORD_RE = re.compile(
    r"\b(" + "|".join(word for pair in _KEYWORD_PAIRS for word in pair) + r")\b"
)
# An instantiation: identifier identifier ( ... with named pins.
_INSTANCE_RE = re.compile(r"^\s*(\w+)\s+(\w+)\s*\(\s*$", re.M)
_PIN_RE = re.compile(r"\.(\w+)\s*\(")


def _strip_comments(source: str) -> str:
    source = re.sub(r"//[^\n]*", "", source)
    return re.sub(r"/\*.*?\*/", "", source, flags=re.S)


@dataclass
class LintReport:
    """Outcome of a lint run."""

    errors: list[str] = field(default_factory=list)
    modules: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no errors were found."""
        return not self.errors

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "CLEAN" if self.passed else f"{len(self.errors)} errors"
        return f"lint: {status}, {len(self.modules)} modules"


def lint_source(source: str, known_modules: set[str] | None = None) -> LintReport:
    """Lint one Verilog source string (may contain several modules)."""
    report = LintReport()
    text = _strip_comments(source)

    counts = Counter(_KEYWORD_RE.findall(text))
    for opener, closer in _KEYWORD_PAIRS:
        # 'end' closes 'begin' blocks only: endmodule, endcase and
        # endgenerate are distinct words, so whole-word counts are exact.
        n_open, n_close = counts[opener], counts[closer]
        if n_open != n_close:
            report.errors.append(
                f"unbalanced {opener}/{closer}: {n_open} vs {n_close}"
            )
    if text.count("(") != text.count(")"):
        report.errors.append("unbalanced parentheses")

    # Module table with port lists.
    ports_by_module: dict[str, set[str]] = {}
    for match in _MODULE_RE.finditer(text):
        name, port_list = match.groups()
        if name in ports_by_module:
            report.errors.append(f"duplicate module definition: {name}")
        ports_by_module[name] = {
            p.strip() for p in port_list.split(",") if p.strip()
        }
    report.modules = list(ports_by_module)

    known = set(ports_by_module) | (known_modules or set())
    keywords = {
        "module", "endmodule", "begin", "end", "if", "else", "for",
        "always", "assign", "wire", "reg", "input", "output", "generate",
        "endgenerate", "genvar", "integer", "localparam", "case", "endcase",
        "task", "endtask", "initial", "repeat",
    }
    # Instantiations: "<module> <inst> (" at line start, followed by pins.
    for match in _INSTANCE_RE.finditer(text):
        module_name, _inst = match.groups()
        if module_name in keywords:
            continue
        if module_name not in known:
            report.errors.append(f"undefined module instantiated: {module_name}")
            continue
        # Check the named pins against the target's ports.
        tail = text[match.end():]
        close = tail.find(");")
        pins = set(_PIN_RE.findall(tail[: close if close >= 0 else None]))
        unknown = pins - ports_by_module.get(module_name, pins)
        for pin in sorted(unknown):
            report.errors.append(
                f"instance of {module_name} connects unknown port .{pin}"
            )
    return report


def lint_bundle(bundle: RtlBundle) -> LintReport:
    """Lint a whole generated bundle as one compilation unit."""
    return lint_source(bundle.source)
