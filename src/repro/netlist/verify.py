"""Equivalence checks: gate-level netlists vs. golden models.

Randomised functional verification of every gate-level block against
the behavioural reference — the role a commercial simulator plus a
testbench plays in the authors' flow.

Each check draws every trial's stimulus first, simulates all trials at
once (one :class:`~repro.netlist.simulate.GateSimulator` lane per
trial), then compares the lanes in trial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.spec import DesignPoint
from repro.func.formats import max_unsigned
from repro.func.macro_model import IntMacroModel
from repro.func.mvm import input_slices
from repro.model.logic import clog2
from repro.netlist.builders import (
    build_adder_tree,
    build_compute_unit,
    build_int2fp,
    build_int_macro,
    build_prealign,
    build_shift_accumulator,
)
from repro.netlist.simulate import GateSimulator

__all__ = [
    "VerificationReport",
    "verify_compute_unit",
    "verify_adder_tree",
    "verify_shift_accumulator",
    "verify_prealign",
    "verify_int_macro",
]


@dataclass
class VerificationReport:
    """Outcome of one randomised equivalence run."""

    block: str
    trials: int
    mismatches: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every trial matched the golden model."""
        return not self.mismatches

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "PASS" if self.passed else f"FAIL ({len(self.mismatches)})"
        return f"{self.block}: {status} over {self.trials} trials"


def _pack(fields, width: int) -> int:
    """Concatenate unsigned ``width``-bit fields, the first in the LSBs."""
    word = 0
    for i, value in enumerate(fields):
        word |= int(value) << (i * width)
    return word


def _field(word: int, index: int, width: int) -> int:
    """Field ``index`` of a word packed by :func:`_pack`."""
    return (word >> (index * width)) & max_unsigned(width)


def _array_weights(w_sets: np.ndarray, bw: int) -> int:
    """The macro ``weights`` bus for ``(L, H, groups)`` weight sets.

    Column ``c = g*bw + j`` stores bit ``j`` of the group-``g`` weights;
    its bank holds, for each row, that bit of the ``L`` sets, at bus
    bit ``(c*H + row)*L + set``.
    """
    planes = (w_sets.transpose(2, 1, 0)[:, None] >> np.arange(bw)[:, None, None]) & 1
    return int.from_bytes(np.packbits(planes, axis=None, bitorder="little").tobytes(), "little")


def verify_compute_unit(l: int, k: int, trials: int = 50, seed: int = 0) -> VerificationReport:
    """Compute unit: product == din * selected weight bit."""
    report = VerificationReport(f"compute_unit(l={l}, k={k})", trials)
    rng = np.random.default_rng(seed)
    stimulus = [
        (int(rng.integers(0, 2**l)), int(rng.integers(0, l)), int(rng.integers(0, 2**k)))
        for _ in range(trials)
    ]
    sim = GateSimulator(build_compute_unit(l, k), lanes=trials)
    for name, values in zip(("weights", "sel", "din"), zip(*stimulus)):
        sim.set_lanes(name, values)
    sim.eval()
    for (weights, sel, din), got in zip(stimulus, sim.get_lanes("product")):
        expected = din if (weights >> sel) & 1 else 0
        if got != expected:
            report.mismatches.append(
                f"w={weights:0{l}b} sel={sel} din={din}: got {got}, want {expected}"
            )
    return report


def verify_adder_tree(h: int, k: int, trials: int = 50, seed: int = 0) -> VerificationReport:
    """Adder tree: total == sum of the h operands."""
    report = VerificationReport(f"adder_tree(h={h}, k={k})", trials)
    rng = np.random.default_rng(seed)
    stimulus = [rng.integers(0, 2**k, size=h) for _ in range(trials)]
    sim = GateSimulator(build_adder_tree(h, k), lanes=trials)
    sim.set_lanes("terms", [_pack(terms, k) for terms in stimulus])
    sim.eval()
    for terms, got in zip(stimulus, sim.get_lanes("total")):
        expected = int(terms.sum())
        if got != expected:
            report.mismatches.append(f"terms={terms}: got {got}, want {expected}")
    return report


def verify_shift_accumulator(
    bx: int, k: int, h: int, trials: int = 20, seed: int = 0
) -> VerificationReport:
    """Shift accumulator over full passes of ``bx/k`` cycles."""
    report = VerificationReport(f"shift_accumulator(bx={bx}, k={k}, h={h})", trials)
    rng = np.random.default_rng(seed)
    cycles = bx // k
    in_max = (2**k - 1) * h  # adder-tree output bound
    in_cap = 2 ** (k + clog2(h)) - 1
    partials = [
        [int(rng.integers(0, min(in_max, in_cap) + 1)) for _c in range(cycles)]
        for _ in range(trials)
    ]
    sim = GateSimulator(build_shift_accumulator(bx, k, h), lanes=trials)
    # Clear, then stream one pass.
    sim.set_bus("clear", 1)
    sim.step()
    sim.set_bus("clear", 0)
    for cycle in zip(*partials):
        sim.set_lanes("partial", cycle)
        sim.step()
    for stream, got in zip(partials, sim.get_lanes("acc")):
        expected = 0
        for partial in stream:
            expected = (expected << k) + partial
        if got != expected:
            report.mismatches.append(f"got {got}, want {expected}")
    return report


def verify_prealign(
    h: int, be: int, bm: int, trials: int = 30, seed: int = 0
) -> VerificationReport:
    """Pre-alignment: max exponent + truncating right shifts."""
    report = VerificationReport(f"prealign(h={h}, be={be}, bm={bm})", trials)
    rng = np.random.default_rng(seed)
    stimulus = [
        (rng.integers(0, 2**be, size=h), rng.integers(0, 2**bm, size=h))
        for _ in range(trials)
    ]
    sim = GateSimulator(build_prealign(h, be, bm), lanes=trials)
    sim.set_lanes("exponents", [_pack(exps, be) for exps, _ in stimulus])
    sim.set_lanes("mantissas", [_pack(mants, bm) for _, mants in stimulus])
    sim.eval()
    lanes = zip(stimulus, sim.get_lanes("xemax"), sim.get_lanes("aligned"))
    for (exps, mants), got_xemax, got in lanes:
        xemax = int(exps.max())
        if got_xemax != xemax:
            report.mismatches.append(f"xemax: got {got_xemax}, want {xemax}")
            continue
        for i in range(h):
            lane = _field(got, i, bm)
            expected = int(mants[i]) >> (xemax - int(exps[i]))
            if lane != expected:
                report.mismatches.append(
                    f"lane {i}: got {lane}, want {expected}"
                )
    return report


def verify_int_macro(
    design: DesignPoint, trials: int = 10, seed: int = 0
) -> VerificationReport:
    """Full small macro vs. the behavioural :class:`IntMacroModel`.

    Streams ``Bx/k``-cycle passes with random weights/inputs/selection
    and compares every fused output word.
    """
    p = design.precision
    if p.is_float:
        raise ValueError("verify_int_macro needs an integer design")
    bx = bw = p.bits
    report = VerificationReport(f"int_macro({design.describe()})", trials)
    model = IntMacroModel(design)
    rng = np.random.default_rng(seed)
    groups = design.n // bw
    out_w = bw + bx + clog2(design.h)
    sels, weights, slices, expected = [], [], [], []
    for _ in range(trials):
        sel = int(rng.integers(0, design.l))
        # One (H, groups) weight matrix for the selected set; other sets
        # random (they must not disturb the result).
        w_sets = rng.integers(0, 2**bw, size=(design.l, design.h, groups))
        x = rng.integers(0, 2**bx, size=design.h)
        model.weights = w_sets.astype(np.int64)
        expected.append(model.matvec(x, sel=sel))
        sels.append(sel)
        weights.append(_array_weights(w_sets, bw))
        slices.append([_pack(s, design.k) for s in input_slices(x, bx, design.k)])
    sim = GateSimulator(
        build_int_macro(design.n, design.h, design.l, design.k, bx, bw), lanes=trials
    )
    sim.set_lanes("weights", weights)
    sim.set_lanes("sel", sels)
    sim.set_bus("clear", 1)
    sim.step()
    sim.set_bus("clear", 0)
    for cycle in zip(*slices):  # MSB-first input slices
        sim.set_lanes("din", cycle)
        sim.step()
    for want, got_all in zip(expected, sim.get_lanes("y")):
        for g in range(groups):
            got = _field(got_all, g, out_w)
            if got != int(want[g]):
                report.mismatches.append(
                    f"group {g}: got {got}, want {int(want[g])}"
                )
    return report


def verify_int2fp(br: int, be: int, trials: int = 40, seed: int = 0) -> VerificationReport:
    """INT-to-FP converter vs the functional model (RTL-exact)."""
    from repro.func.int2fp_model import int_to_fp

    report = VerificationReport(f"int2fp(br={br}, be={be})", trials)
    rng = np.random.default_rng(seed)
    stimulus = [
        # Trial 0 covers zero.
        (0 if t == 0 else int(rng.integers(0, 2**br)), int(rng.integers(0, 2**be)))
        for t in range(trials)
    ]
    sim = GateSimulator(build_int2fp(br, be), lanes=trials)
    for name, values in zip(("value", "base_exp"), zip(*stimulus)):
        sim.set_lanes(name, values)
    sim.eval()
    lanes = zip(
        stimulus,
        sim.get_lanes("mantissa"),
        sim.get_lanes("exponent"),
        sim.get_lanes("is_zero"),
    )
    for (value, base), got_m, got_e, got_z in lanes:
        expected = int_to_fp(value, base, br)
        if (got_m, got_e, bool(got_z)) != (
            expected.mantissa, expected.exponent, expected.is_zero
        ):
            report.mismatches.append(
                f"value={value} base={base}: got (m={got_m}, e={got_e}, "
                f"z={got_z}), want (m={expected.mantissa}, "
                f"e={expected.exponent}, z={expected.is_zero})"
            )
    return report


def verify_fp_datapath(
    h: int, be: int, bm: int, trials: int = 8, seed: int = 0
) -> VerificationReport:
    """End-to-end FP path: prealign -> mantissa MAC -> INT-to-FP.

    Drives positive floats through the three gate-level stages (the
    array stage as a one-group, single-pass integer macro with
    ``k = BM``) and checks the fused integer and the converter fields
    against the functional models.  Signs are handled outside the array
    by sign-magnitude in the full macro, so positive stimulus covers
    the datapath logic.  Each stage's inputs are the previous stage's
    gate-level outputs; a trial reports only its first failing stage.
    """
    from repro.func.formats import FloatFormat
    from repro.func.int2fp_model import int_to_fp
    from repro.func.prealign_model import prealign

    fmt = FloatFormat("fmt", exponent_bits=be, mantissa_bits=bm)
    report = VerificationReport(f"fp_datapath(h={h}, be={be}, bm={bm})", trials)
    br = bm + bm + clog2(h)
    rng = np.random.default_rng(seed)
    xs, wa = [], []
    for _ in range(trials):
        xs.append(rng.uniform(0.01, 8.0, size=h))
        # Offline weight alignment (done in software in the real flow).
        wa.append(prealign(rng.uniform(0.01, 8.0, size=h), fmt))
    xa = [prealign(x, fmt) for x in xs]
    # Stage 1: pre-alignment of the raw input fields.
    align_sim = GateSimulator(build_prealign(h, be, bm), lanes=trials)
    fields = [[fmt.encode(float(v)) for v in x] for x in xs]
    align_sim.set_lanes("exponents", [_pack((f.exponent for f in row), be) for row in fields])
    align_sim.set_lanes("mantissas", [_pack((f.significand for f in row), bm) for row in fields])
    align_sim.eval()
    xemax = align_sim.get_lanes("xemax")
    # Stage 2: mantissa MAC, one pass with k = bm; column j stores
    # weight-mantissa bit j.
    macro_sim = GateSimulator(build_int_macro(bm, h, 1, bm, bm, bm), lanes=trials)
    macro_sim.set_lanes(
        "weights", [_array_weights(a.mantissas.reshape(1, h, 1), bm) for a in wa]
    )
    macro_sim.set_bus("sel", 0)
    macro_sim.set_bus("clear", 1)
    macro_sim.step()
    macro_sim.set_bus("clear", 0)
    macro_sim.set_lanes("din", align_sim.get_lanes("aligned"))
    macro_sim.step()
    fused = macro_sim.get_lanes("y")
    # Stage 3: INT-to-FP conversion with the shared exponent base.
    bases = [x.max_exponent + w.max_exponent for x, w in zip(xa, wa)]
    convert_sim = GateSimulator(build_int2fp(br, be + 1), lanes=trials)
    convert_sim.set_lanes("value", fused)
    convert_sim.set_lanes("base_exp", bases)
    convert_sim.eval()
    lanes = zip(
        xa, wa, bases, xemax, fused,
        convert_sim.get_lanes("mantissa"), convert_sim.get_lanes("exponent"),
    )
    for x, w, base, got_xemax, got_acc, got_m, got_e in lanes:
        if got_xemax != x.max_exponent:
            report.mismatches.append(f"xemax {got_xemax} != {x.max_exponent}")
            continue
        expected_acc = int(np.dot(x.mantissas, w.mantissas))
        if got_acc != expected_acc:
            report.mismatches.append(f"acc {got_acc} != {expected_acc}")
            continue
        expected = int_to_fp(got_acc, base, br)
        if got_m != expected.mantissa or got_e != expected.exponent:
            report.mismatches.append(
                f"convert: got (m={got_m}, e={got_e}), want "
                f"(m={expected.mantissa}, e={expected.exponent})"
            )
    return report
