"""Self-checking Verilog testbench generation.

For users who take the generated bundle into a real simulator, this
emits a testbench whose stimulus and expected outputs are computed by
the *verified* behavioural model (:class:`repro.func.macro_model.
IntMacroModel`), so the golden vectors inherit the gate-level
equivalence guarantees established in :mod:`repro.netlist.verify`.

Timing contract (matching the RTL templates):

* cycle 0 — weights pre-written; assert ``load`` + ``clear`` with the
  input vector on ``x_in``;
* cycles 1 .. Bx/k — the buffer streams MSB-first slices and the
  accumulators fold them;
* after the last cycle ``y_out`` holds the fused results.
"""

from __future__ import annotations

import numpy as np

from repro.core.spec import DesignPoint
from repro.func.macro_model import IntMacroModel
from repro.model.logic import clog2
from repro.rtl.generator import RtlBundle

__all__ = ["generate_int_testbench"]


def _hex(value: int, width: int) -> str:
    return f"{width}'h{value:x}"


def _wdata_words(w_sets: np.ndarray, bw: int) -> list[int]:
    """One ``wdata`` word per weight set of an ``(L, H, N/Bw)`` array.

    Column ``c = g*Bw + j`` stores bit ``j`` of the group-``g`` weights;
    bit ``c*H + row`` of the word is that bit for ``row``.
    """
    l = w_sets.shape[0]
    planes = (w_sets.transpose(0, 2, 1)[:, :, None] >> np.arange(bw)[:, None]) & 1
    rows = np.packbits(planes.reshape(l, -1), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def generate_int_testbench(
    bundle: RtlBundle, vectors: int = 4, seed: int = 0
) -> str:
    """Emit a self-checking testbench for an integer macro bundle.

    Args:
        bundle: output of :func:`repro.rtl.generator.generate_rtl` for
            an integer design.
        vectors: random (weights, input) trials to embed.
        seed: RNG seed for reproducible vectors.

    Returns:
        Verilog source of module ``tb_<top>``.
    """
    design: DesignPoint = bundle.design
    p = design.precision
    if p.is_float:
        raise ValueError("generate_int_testbench needs an integer design")
    n, h, l, k = design.n, design.h, design.l, design.k
    bx = bw = p.bits
    groups = n // bw
    out_w = bw + bx + clog2(h)
    selw = max(clog2(l), 1)
    cycles = bx // k
    rng = np.random.default_rng(seed)
    model = IntMacroModel(design)

    lines = [
        f"// Self-checking testbench for {bundle.top}",
        f"// {vectors} random vectors; golden outputs from the verified",
        "// behavioural model.",
        "`timescale 1ns/1ps",
        f"module tb_{bundle.top};",
        "  reg clk = 0;",
        "  reg clear = 0;",
        "  reg load = 0;",
        f"  reg [{n * h - 1}:0] wdata = 0;",
        f"  reg [{l - 1}:0] wsel = 0;",
        f"  reg [{h - 1}:0] wrow = 0;",
        f"  reg [{selw - 1}:0] sel = 0;",
        f"  reg [{h * bx - 1}:0] x_in = 0;",
        f"  wire [{groups * out_w - 1}:0] y_out;",
        "  integer errors = 0;",
        "",
        f"  {bundle.top} dut (",
        "    .clk(clk), .clear(clear), .load(load), .wdata(wdata),",
        "    .wsel(wsel), .wrow(wrow), .sel(sel), .x_in(x_in), .y_out(y_out)",
        "  );",
        "",
        "  always #0.5 clk = ~clk;",
        "",
        f"  task check(input [{groups * out_w - 1}:0] expected);",
        "    begin",
        "      if (y_out !== expected) begin",
        '        $display("MISMATCH: got %h want %h", y_out, expected);',
        "        errors = errors + 1;",
        "      end",
        "    end",
        "  endtask",
        "",
        "  initial begin",
    ]

    for t in range(vectors):
        w_sets = rng.integers(0, 2**bw, size=(l, h, groups))
        x = rng.integers(0, 2**bx, size=h)
        sel_v = int(rng.integers(0, l))
        model.weights = w_sets.astype(np.int64)
        expected_words = model.matvec(x, sel=sel_v)
        expected = 0
        for g, word in enumerate(expected_words):
            expected |= int(word) << (g * out_w)
        lines.append(f"    // ---- vector {t} (sel={sel_v}) ----")
        # Write each weight set: one clock per set, all rows enabled.
        for li, packed in enumerate(_wdata_words(w_sets, bw)):
            lines.append(f"    wsel = {_hex(1 << li, l)};")
            lines.append(f"    wrow = {{{h}{{1'b1}}}};")
            lines.append(f"    wdata = {_hex(packed, n * h)};")
            lines.append("    @(posedge clk);")
        lines.append(f"    wsel = 0; wrow = 0; sel = {_hex(sel_v, selw)};")
        x_packed = 0
        for row in range(h):
            x_packed |= int(x[row]) << (row * bx)
        lines.append(f"    x_in = {_hex(x_packed, h * bx)};")
        lines.append("    load = 1; clear = 1;")
        lines.append("    @(posedge clk);")
        lines.append("    load = 0; clear = 0;")
        lines.append(f"    repeat ({cycles}) @(posedge clk);")
        lines.append("    #0.1;")
        lines.append(f"    check({_hex(expected, groups * out_w)});")
    lines.extend(
        [
            '    if (errors == 0) $display("TESTBENCH PASS");',
            '    else $display("TESTBENCH FAIL: %0d errors", errors);',
            "    $finish;",
            "  end",
            "endmodule",
        ]
    )
    return "\n".join(lines) + "\n"
