"""Gate-level equivalence tests: netlists vs. golden models.

These are the integration tests substituting for RTL simulation against
a testbench in a commercial flow.
"""

import numpy as np
import pytest

import repro.netlist.verify as verify_module
from repro.core.spec import DesignPoint
from repro.func.formats import FloatFormat, max_unsigned
from repro.func.int2fp_model import int_to_fp
from repro.func.macro_model import IntMacroModel
from repro.func.prealign_model import prealign
from repro.model.logic import clog2
from repro.netlist.builders import build_int2fp, build_int_macro, build_prealign
from repro.netlist.ir import Gate
from repro.netlist.simulate import GateSimulator
from repro.netlist.verify import (
    verify_adder_tree,
    verify_compute_unit,
    verify_fp_datapath,
    verify_int_macro,
    verify_prealign,
    verify_shift_accumulator,
)


class TestComputeUnit:
    @pytest.mark.parametrize("l,k", [(1, 1), (2, 4), (4, 4), (8, 2), (16, 8)])
    def test_equivalence(self, l, k):
        report = verify_compute_unit(l, k, trials=40, seed=1)
        assert report.passed, report.mismatches[:3]


class TestAdderTree:
    @pytest.mark.parametrize("h,k", [(2, 4), (4, 2), (8, 4), (16, 8), (5, 3)])
    def test_equivalence(self, h, k):
        report = verify_adder_tree(h, k, trials=40, seed=2)
        assert report.passed, report.mismatches[:3]


class TestShiftAccumulator:
    @pytest.mark.parametrize("bx,k,h", [(8, 1, 4), (8, 2, 8), (8, 4, 16), (4, 4, 4)])
    def test_equivalence(self, bx, k, h):
        report = verify_shift_accumulator(bx, k, h, trials=15, seed=3)
        assert report.passed, report.mismatches[:3]


class TestPrealign:
    @pytest.mark.parametrize("h,be,bm", [(2, 4, 4), (4, 5, 8), (8, 8, 8), (3, 4, 11)])
    def test_equivalence(self, h, be, bm):
        report = verify_prealign(h, be, bm, trials=25, seed=4)
        assert report.passed, report.mismatches[:3]


class TestIntMacro:
    @pytest.mark.parametrize(
        "precision,n,h,l,k",
        [
            ("INT2", 4, 4, 2, 1),
            ("INT4", 8, 4, 2, 2),
            ("INT4", 8, 8, 1, 4),
            ("INT8", 8, 8, 2, 4),
            ("INT8", 16, 4, 4, 8),
        ],
    )
    def test_full_macro_equivalence(self, precision, n, h, l, k):
        design = DesignPoint(precision=precision, n=n, h=h, l=l, k=k)
        report = verify_int_macro(design, trials=5, seed=5)
        assert report.passed, report.mismatches[:3]

    def test_gate_counts_scale_with_parameters(self):
        small = build_int_macro(4, 4, 2, 2, 4, 4).stats()
        large = build_int_macro(8, 8, 2, 2, 4, 4).stats()
        assert large["DFF"] > small["DFF"]
        assert large["NOR"] == 2 * 2 * small["NOR"]  # N and H both doubled

    def test_nor_count_matches_cost_model(self):
        # The cost model says the array holds N*H*k multiplier NORs.
        n, h, l, k = 8, 8, 2, 4
        netlist = build_int_macro(n, h, l, k, 8, 8)
        assert netlist.stats()["NOR"] == n * h * k

    def test_report_str(self):
        design = DesignPoint(precision="INT4", n=8, h=4, l=2, k=2)
        report = verify_int_macro(design, trials=2, seed=0)
        assert "PASS" in str(report)


# Sequential references: one one-lane simulator per check, driven trial
# by trial, with per-bit weight packing.  The lane-parallel checks must
# report the same mismatches, in the same order.


def _sequential_int_macro(netlist, design, trials, seed):
    bx = bw = design.precision.bits
    sim = GateSimulator(netlist)
    model = IntMacroModel(design)
    rng = np.random.default_rng(seed)
    groups = design.n // bw
    out_w = bw + bx + clog2(design.h)
    mismatches = []
    for _ in range(trials):
        sel = int(rng.integers(0, design.l))
        w_sets = rng.integers(0, 2**bw, size=(design.l, design.h, groups))
        x = rng.integers(0, 2**bx, size=design.h)
        model.weights = w_sets.astype(np.int64)
        expected = model.matvec(x, sel=sel)
        packed_w = 0
        bit_index = 0
        for g in range(groups):
            for j in range(bw):
                for row in range(design.h):
                    for li in range(design.l):
                        packed_w |= ((int(w_sets[li, row, g]) >> j) & 1) << bit_index
                        bit_index += 1
        sim.set_bus("weights", packed_w)
        sim.set_bus("sel", sel)
        sim.set_bus("clear", 1)
        sim.step()
        sim.set_bus("clear", 0)
        for c in range(bx // design.k):
            packed_din = 0
            shift = bx - (c + 1) * design.k
            for row in range(design.h):
                slice_v = (int(x[row]) >> shift) & max_unsigned(design.k)
                packed_din |= slice_v << (row * design.k)
            sim.set_bus("din", packed_din)
            sim.step()
        got_all = sim.get_bus("y")
        for g in range(groups):
            got = (got_all >> (g * out_w)) & max_unsigned(out_w)
            if got != int(expected[g]):
                mismatches.append(f"group {g}: got {got}, want {int(expected[g])}")
    return mismatches


def _sequential_fp_datapath(h, be, bm, trials, seed, align, macro, convert):
    fmt = FloatFormat("fmt", exponent_bits=be, mantissa_bits=bm)
    br = bm + bm + clog2(h)
    align_sim, macro_sim, convert_sim = (
        GateSimulator(nl) for nl in (align, macro, convert)
    )
    rng = np.random.default_rng(seed)
    mismatches = []
    for _ in range(trials):
        x = rng.uniform(0.01, 8.0, size=h)
        w = rng.uniform(0.01, 8.0, size=h)
        wa = prealign(w, fmt)
        packed_e = packed_m = 0
        for i, value in enumerate(x):
            fields = fmt.encode(float(value))
            packed_e |= fields.exponent << (i * be)
            packed_m |= fields.significand << (i * bm)
        align_sim.set_bus("exponents", packed_e)
        align_sim.set_bus("mantissas", packed_m)
        align_sim.eval()
        xemax = align_sim.get_bus("xemax")
        xa = prealign(x, fmt)
        if xemax != xa.max_exponent:
            mismatches.append(f"xemax {xemax} != {xa.max_exponent}")
            continue
        packed_w = 0
        bit_index = 0
        for j in range(bm):
            for row in range(h):
                packed_w |= ((int(wa.mantissas[row]) >> j) & 1) << bit_index
                bit_index += 1
        macro_sim.set_bus("weights", packed_w)
        macro_sim.set_bus("sel", 0)
        macro_sim.set_bus("clear", 1)
        macro_sim.step()
        macro_sim.set_bus("clear", 0)
        macro_sim.set_bus("din", align_sim.get_bus("aligned"))
        macro_sim.step()
        fused = macro_sim.get_bus("y")
        expected_acc = int(np.dot(xa.mantissas, wa.mantissas))
        if fused != expected_acc:
            mismatches.append(f"acc {fused} != {expected_acc}")
            continue
        base = xa.max_exponent + wa.max_exponent
        convert_sim.set_bus("value", fused)
        convert_sim.set_bus("base_exp", base)
        convert_sim.eval()
        want = int_to_fp(fused, base, br)
        got_m, got_e = convert_sim.get_bus("mantissa"), convert_sim.get_bus("exponent")
        if got_m != want.mantissa or got_e != want.exponent:
            mismatches.append(
                f"convert: got (m={got_m}, e={got_e}), want "
                f"(m={want.mantissa}, e={want.exponent})"
            )
    return mismatches


def _mutant(netlist, index, kind, new_kind):
    """``netlist`` with gate ``index`` (of ``kind``) swapped to ``new_kind``."""
    gate = netlist.gates[index]
    assert gate.kind == kind, f"gate {index} is {gate.kind}, not {kind}"
    netlist.gates[index] = Gate(new_kind, gate.inputs, gate.output)
    return netlist


class TestMutationsAreCaught:
    """A swapped gate kind fails verification with the sequential report."""

    @pytest.mark.parametrize(
        "gates,trials",
        [
            ([(3000, "AND", "OR")], 5),
            # Missed by the default 5 trials; 16 catch it.
            ([(2222, "OR", "AND")], 16),
            # One mutation per fusion group: trials fail in both groups.
            ([(3000, "AND", "OR"), (7000, "AND", "OR")], 5),
        ],
    )
    def test_int8_twin(self, monkeypatch, gates, trials):
        design = DesignPoint(precision="INT8", n=16, h=8, l=1, k=8)
        mutant = build_int_macro(16, 8, 1, 8, 8, 8)
        for gate in gates:
            mutant = _mutant(mutant, *gate)
        monkeypatch.setattr(verify_module, "build_int_macro", lambda *args: mutant)
        report = verify_int_macro(design, trials=trials, seed=0)
        assert report.passed is False
        assert report.trials == trials
        assert report.mismatches == _sequential_int_macro(mutant, design, trials, 0)

    @pytest.mark.parametrize(
        "macro_gate,convert_gate,trials",
        [
            ((501, "XOR", "OR"), None, 5),
            ((2222, "XOR", "OR"), None, 16),
            # Some lanes fail at the MAC, others only at the converter:
            # each reports its first failing stage.
            ((501, "XOR", "OR"), (38, "OR", "AND"), 6),
        ],
    )
    def test_fp16_datapath_macro(self, monkeypatch, macro_gate, convert_gate, trials):
        h, be, bm = 8, 5, 11  # the FP16 compile twin
        macro = _mutant(build_int_macro(bm, h, 1, bm, bm, bm), *macro_gate)
        convert = build_int2fp(bm + bm + clog2(h), be + 1)
        if convert_gate is not None:
            convert = _mutant(convert, *convert_gate)
        monkeypatch.setattr(verify_module, "build_int_macro", lambda *args: macro)
        monkeypatch.setattr(verify_module, "build_int2fp", lambda *args: convert)
        report = verify_fp_datapath(h, be, bm, trials=trials, seed=0)
        assert report.passed is False
        reference = _sequential_fp_datapath(
            h, be, bm, trials, 0, build_prealign(h, be, bm), macro, convert
        )
        assert report.mismatches == reference
        if convert_gate is not None:
            stages = {m.split()[0] for m in report.mismatches}
            assert stages == {"acc", "convert:"}


def _per_bit_wdata(w_sets, bw):
    """Per-bit reference of the testbench's per-set ``wdata`` words."""
    l, h, groups = w_sets.shape
    words = []
    for li in range(l):
        packed = 0
        for c in range(groups * bw):
            g, j = divmod(c, bw)
            for row in range(h):
                packed |= ((int(w_sets[li, row, g]) >> j) & 1) << (c * h + row)
        words.append(packed)
    return words


class TestTestbenchPacking:
    @pytest.mark.parametrize(
        "wstore,precision", [(4096, "INT2"), (8192, "INT4"), (4096, "INT8")]
    )
    def test_text_matches_per_bit_reference(self, monkeypatch, wstore, precision):
        import repro.rtl.testbench as testbench
        from repro.core.compiler import SegaDcim
        from repro.core.spec import DcimSpec

        bundle = SegaDcim().compile(
            DcimSpec(wstore=wstore, precision=precision), exhaustive=True, layout=False
        ).rtl
        text = testbench.generate_int_testbench(bundle)
        monkeypatch.setattr(testbench, "_wdata_words", _per_bit_wdata)
        assert text == testbench.generate_int_testbench(bundle)
