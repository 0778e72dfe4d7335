"""Tests for repro.rtl.lint and repro.netlist.export."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rtl.lint as lint_module
from repro.core.spec import DesignPoint
from repro.netlist import GateSimulator, build_adder_tree, build_shift_accumulator
from repro.netlist.export import PRIMITIVE_LIBRARY_VERILOG, netlist_to_verilog
from repro.rtl import generate_rtl, lint_bundle, lint_source
from repro.rtl.lint import LintReport
from repro.rtl.modules.memory import generate_sram_array


class TestLintOnGeneratedBundles:
    @pytest.mark.parametrize(
        "precision,n,h,l,k",
        [
            ("INT2", 4, 4, 2, 1),
            ("INT8", 16, 8, 4, 4),
            ("INT8", 64, 128, 16, 8),
            ("BF16", 16, 8, 4, 8),
            ("FP16", 22, 16, 2, 11),
            ("FP32", 24, 16, 2, 8),
        ],
    )
    def test_bundles_lint_clean(self, precision, n, h, l, k):
        bundle = generate_rtl(DesignPoint(precision=precision, n=n, h=h, l=l, k=k))
        report = lint_bundle(bundle)
        assert report.passed, report.errors[:5]
        assert len(report.modules) == len(bundle.modules)


class TestLintDetectsProblems:
    def test_unbalanced_module(self):
        report = lint_source("module a (x);\n  input x;\n")
        assert not report.passed
        assert any("module/endmodule" in e for e in report.errors)

    def test_undefined_instance(self):
        source = (
            "module top (x);\n  input x;\n"
            "  mystery u0 (\n    .p(x)\n  );\nendmodule\n"
        )
        report = lint_source(source)
        assert any("undefined module" in e for e in report.errors)

    def test_known_modules_whitelist(self):
        source = (
            "module top (x);\n  input x;\n"
            "  external u0 (\n    .p(x)\n  );\nendmodule\n"
        )
        report = lint_source(source, known_modules={"external"})
        assert report.passed

    def test_unknown_port_connection(self):
        source = (
            "module sub (a);\n  input a;\nendmodule\n"
            "module top (x);\n  input x;\n"
            "  sub u0 (\n    .zz(x)\n  );\nendmodule\n"
        )
        report = lint_source(source)
        assert any(".zz" in e for e in report.errors)

    def test_duplicate_module(self):
        source = (
            "module a (x);\n  input x;\nendmodule\n"
            "module a (y);\n  input y;\nendmodule\n"
        )
        report = lint_source(source)
        assert any("duplicate" in e for e in report.errors)

    def test_comments_ignored(self):
        report = lint_source(
            "// module fake (\nmodule a (x);\n  input x;\nendmodule\n"
        )
        assert report.passed


def per_token_lint(source, known_modules=None):
    """``lint_source`` as it was with one regex pass per block keyword,
    kept as the oracle of the single-scan count."""
    report = LintReport()
    text = lint_module._strip_comments(source)
    for opener, closer in lint_module._KEYWORD_PAIRS:
        n_open = len(re.findall(rf"\b{opener}\b", text))
        n_close = len(re.findall(rf"\b{closer}\b", text))
        if n_open != n_close:
            report.errors.append(f"unbalanced {opener}/{closer}: {n_open} vs {n_close}")
    if text.count("(") != text.count(")"):
        report.errors.append("unbalanced parentheses")
    ports_by_module = {}
    for match in lint_module._MODULE_RE.finditer(text):
        name, port_list = match.groups()
        if name in ports_by_module:
            report.errors.append(f"duplicate module definition: {name}")
        ports_by_module[name] = {p.strip() for p in port_list.split(",") if p.strip()}
    report.modules = list(ports_by_module)
    known = set(ports_by_module) | (known_modules or set())
    keywords = {
        "module", "endmodule", "begin", "end", "if", "else", "for",
        "always", "assign", "wire", "reg", "input", "output", "generate",
        "endgenerate", "genvar", "integer", "localparam", "case", "endcase",
        "task", "endtask", "initial", "repeat",
    }
    for match in lint_module._INSTANCE_RE.finditer(text):
        module_name, _inst = match.groups()
        if module_name in keywords:
            continue
        if module_name not in known:
            report.errors.append(f"undefined module instantiated: {module_name}")
            continue
        tail = text[match.end():]
        close = tail.find(");")
        pins = set(lint_module._PIN_RE.findall(tail[: close if close >= 0 else None]))
        for pin in sorted(pins - ports_by_module.get(module_name, pins)):
            report.errors.append(f"instance of {module_name} connects unknown port .{pin}")
    return report


KEYWORDS = ("module", "endmodule", "begin", "end", "generate", "endgenerate", "case", "endcase")
#: Keywords, identifiers that contain them, comment and port syntax,
#: and separators: soups of these unbalance the blocks in every way.
SOUP_TOKENS = (
    *KEYWORDS, "end_", "_end", "begin2", "mybegin", "endcase_x", "casez", "modules",
    "endgenerate0", "generated", "beginé", "émodule", "x", "sub", "u0", ".a(", ".b(",
    "(", ")", ");", ";", "//", "/*", "*/", "\n", " ", "\t", ",",
)


class TestSingleScanKeywordCount:
    @given(st.lists(st.sampled_from(SOUP_TOKENS), max_size=60), st.sampled_from(["", " ", "\n"]))
    @settings(max_examples=300, deadline=None)
    def test_token_soups_match_per_token_count(self, tokens, glue):
        source = glue.join(tokens)
        assert lint_source(source) == per_token_lint(source)
        assert lint_source(source, {"sub"}) == per_token_lint(source, {"sub"})

    @pytest.mark.parametrize(
        "precision,n,h,l,k", [("INT8", 16, 8, 4, 4), ("BF16", 16, 8, 4, 8)]
    )
    def test_generated_bundles_match_per_token_count(self, precision, n, h, l, k):
        source = generate_rtl(DesignPoint(precision=precision, n=n, h=h, l=l, k=k)).source
        assert lint_source(source) == per_token_lint(source)


class TestNetlistExport:
    def test_primitive_library_lints(self):
        report = lint_source(PRIMITIVE_LIBRARY_VERILOG)
        assert report.passed
        assert "prim_nor" in report.modules

    def test_exported_adder_tree_lints(self):
        nl = build_adder_tree(4, 2)
        source = netlist_to_verilog(nl)
        report = lint_source(source, known_modules={
            "prim_not", "prim_and", "prim_or", "prim_nor", "prim_xor",
            "prim_mux2", "prim_dff",
        })
        assert report.passed, report.errors[:5]

    def test_export_declares_ports(self):
        nl = build_adder_tree(4, 2)
        source = netlist_to_verilog(nl)
        assert "input [7:0] terms;" in source
        assert "output [3:0] total;" in source
        assert "clk" not in source  # purely combinational

    def test_export_adds_clk_with_dffs(self):
        nl = build_shift_accumulator(4, 2, 4)
        source = netlist_to_verilog(nl)
        assert "input clk;" in source
        assert "prim_dff" in source

    def test_export_gate_count_matches_ir(self):
        nl = build_adder_tree(8, 4)
        source = netlist_to_verilog(nl)
        assert source.count("prim_xor") == nl.gate_count("XOR")
        assert source.count("prim_and") == nl.gate_count("AND")

    def test_export_semantics_documented_by_sim(self):
        # The IR that was simulated is the IR that is exported: spot-check
        # that the simulator agrees with the adder-tree spec the export
        # claims to implement.
        nl = build_adder_tree(4, 4)
        sim = GateSimulator(nl)
        rng = np.random.default_rng(0)
        terms = rng.integers(0, 16, size=4)
        packed = 0
        for i, t in enumerate(terms):
            packed |= int(t) << (4 * i)
        sim.set_bus("terms", packed)
        sim.eval()
        assert sim.get_bus("total") == int(terms.sum())


class TestSramArray:
    def test_render_and_lint(self):
        from repro.rtl.modules.datapath import generate_sram_cell
        from repro.rtl.verilog import render_modules

        source = render_modules(
            [generate_sram_cell(), generate_sram_array(8, 4)]
        )
        report = lint_source(source)
        assert report.passed, report.errors

    def test_ports(self):
        m = generate_sram_array(8, 4)
        text = m.render()
        assert "input [7:0] wl;" in text
        assert "input [3:0] d;" in text
        assert "output [31:0] q;" in text

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            generate_sram_array(0, 4)
