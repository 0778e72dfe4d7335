"""Netlist goldens: the gates, flip-flops and ports every builder emits.

Each digest covers a netlist's name and net count, every gate's
``(kind, inputs, output)`` in list order, every DFF and every port, and
was captured from the builders before gates became tuple records.  The
twins are the ones :meth:`repro.core.compiler.SegaDcim.verify` builds
(found with a spy on the builders it calls), for a capped and a small
design of every precision; the standalone blocks cover the builders
verification does not reach through a twin.

The same netlists pin the simulator's one-pass load: a builder's gate
list is already in topological order, so no builder netlist reaches the
levelisation fallback.
"""

import copy
import hashlib
import pickle

import pytest

import repro.netlist.verify as verify_module
from repro.core.compiler import SegaDcim
from repro.core.precision import parse_precision
from repro.core.spec import DesignPoint
from repro.netlist.builders import (
    build_adder_tree,
    build_column,
    build_compute_unit,
    build_shift_accumulator,
)
from repro.netlist.ir import Gate
from repro.netlist.simulate import GateSimulator

#: (builder, args) -> (gate count, digest) of every twin the designs
#: below make ``SegaDcim.verify`` build.
TWIN_GOLDENS = {
    ('build_int_macro', (4, 8, 4, 1, 2, 2)): (620, '69d7a15695f13259'),
    ('build_int_macro', (2, 2, 1, 2, 2, 2)): (90, 'b62d84632e57d8ff'),
    ('build_int_macro', (8, 8, 4, 2, 4, 4)): (1902, '6b93ba961ac8f8bb'),
    ('build_int_macro', (4, 2, 1, 4, 4, 4)): (369, 'f08e20025773b691'),
    ('build_int_macro', (16, 8, 4, 4, 8, 8)): (6320, '42e78ded22ae6f4c'),
    ('build_int_macro', (8, 2, 1, 8, 8, 8)): (1458, 'f0b91c6e1b9fd341'),
    ('build_int_macro', (32, 8, 4, 8, 16, 16)): (22502, '49133e2c01c50d9b'),
    ('build_int_macro', (16, 2, 1, 16, 16, 16)): (5725, '18b0c67f4c8b7471'),
    ('build_prealign', (8, 4, 4)): (539, 'b738204e895512e3'),
    ('build_int_macro', (4, 8, 1, 4, 4, 4)): (1263, 'f34aef3203382bc0'),
    ('build_int2fp', (11, 5)): (216, '7245d883f5f47901'),
    ('build_prealign', (2, 4, 4)): (113, '3f243cb15393d7d6'),
    ('build_int2fp', (9, 5)): (184, '9675a9b8e736b399'),
    ('build_prealign', (8, 5, 11)): (1028, 'a7df9b617dd93bba'),
    ('build_int_macro', (11, 8, 1, 11, 11, 11)): (8440, 'e5d475089e2ca172'),
    ('build_int2fp', (25, 6)): (521, '5df9f867ea5f3b4b'),
    ('build_prealign', (2, 5, 11)): (230, '31ab59dbc8285204'),
    ('build_int_macro', (11, 2, 1, 11, 11, 11)): (2730, 'a67eee1935a0a227'),
    ('build_int2fp', (23, 6)): (483, '70adb5f743808250'),
    ('build_prealign', (8, 8, 8)): (1143, 'd839e5f28da6067f'),
    ('build_int_macro', (8, 8, 1, 8, 8, 8)): (4600, '0299b6af0143b65a'),
    ('build_int2fp', (19, 9)): (425, '7f4b6368235a43d1'),
    ('build_prealign', (2, 8, 8)): (243, '6443f289e394bb94'),
    ('build_int2fp', (17, 9)): (387, '323bf82d05e4bfc4'),
    ('build_prealign', (8, 8, 24)): (2151, '9b1b7a24a8170761'),
    ('build_int_macro', (24, 8, 1, 24, 24, 24)): (38323, '9f48ebdb186590c5'),
    ('build_int2fp', (51, 9)): (1186, 'ece46ec1014937ea'),
    ('build_prealign', (2, 8, 24)): (495, '996545e002bef7fb'),
    ('build_int_macro', (24, 2, 1, 24, 24, 24)): (12749, '38214baecac3d62e'),
    ('build_int2fp', (49, 9)): (1142, '1768b4a9a4ad3861'),
}

#: (builder, args) -> (gate count, digest) of standalone blocks.
BLOCK_GOLDENS = {
    ('build_compute_unit', (4, 2)): (8, '89e3df247a62a0d6'),
    ('build_compute_unit', (8, 8)): (24, '31be8a7d577b8c39'),
    ('build_adder_tree', (8, 4)): (174, '4cdc54169e8b5541'),
    ('build_adder_tree', (5, 3)): (83, '5042e1fb8f7ed8c9'),
    ('build_shift_accumulator', (8, 2, 8)): (52, 'ec5f5e202322edd2'),
    ('build_shift_accumulator', (16, 4, 4)): (87, '96b0e6f793a53a49'),
    ('build_column', (8, 4, 2, 8)): (220, 'daf2132bd86620be'),
    ('build_column', (4, 1, 4, 4)): (134, 'b970eaef2f91beae'),
}

BUILDERS = {
    "build_compute_unit": build_compute_unit,
    "build_adder_tree": build_adder_tree,
    "build_shift_accumulator": build_shift_accumulator,
    "build_column": build_column,
}


def verify_designs() -> list[DesignPoint]:
    """Per precision: a design whose twin is capped, and a small one."""
    designs = []
    for bits in (2, 4, 8, 16):
        p = f"INT{bits}"
        designs.append(DesignPoint(p, n=4 * bits, h=16, l=8, k=max(bits // 2, 1)))
        designs.append(DesignPoint(p, n=bits, h=2, l=1, k=bits))
    for p in ("FP8", "FP16", "BF16", "FP32"):
        bm = parse_precision(p).mantissa_bits
        designs.append(DesignPoint(p, n=2 * bm, h=16, l=2, k=1))
        designs.append(DesignPoint(p, n=bm, h=2, l=1, k=bm))
    return designs


def digest(netlist) -> str:
    h = hashlib.sha256(repr((netlist.name, netlist.n_nets)).encode())
    for gate in netlist.gates:
        h.update(repr((gate.kind, tuple(gate.inputs), gate.output)).encode())
    for dff in netlist.dffs:
        h.update(repr((dff.d, dff.q, dff.clear)).encode())
    h.update(repr((list(netlist.inputs.items()), list(netlist.outputs.items()))).encode())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def twins():
    """Every netlist ``SegaDcim.verify`` builds for :func:`verify_designs`,
    keyed by builder and arguments; each verification must pass."""
    built = {}
    patch = pytest.MonkeyPatch()
    for name in ("build_int_macro", "build_prealign", "build_int2fp"):
        real = getattr(verify_module, name)

        def spy(*args, _real=real, _name=name):
            netlist = _real(*args)
            built[(_name, args)] = netlist
            return netlist

        patch.setattr(verify_module, name, spy)
    try:
        compiler = SegaDcim()
        for design in verify_designs():
            report = compiler.verify(design)
            assert report.passed, (design, report.mismatches[:3])
    finally:
        patch.undo()
    return built


@pytest.fixture(scope="module")
def blocks():
    return {key: BUILDERS[key[0]](*key[1]) for key in BLOCK_GOLDENS}


def test_verify_twins_match_goldens(twins):
    assert {key: (len(nl.gates), digest(nl)) for key, nl in twins.items()} == TWIN_GOLDENS


def test_blocks_match_goldens(blocks):
    assert {key: (len(nl.gates), digest(nl)) for key, nl in blocks.items()} == BLOCK_GOLDENS


def test_builder_netlists_load_in_one_pass(monkeypatch, twins, blocks):
    """No builder netlist reaches the driver check or Kahn's algorithm,
    neither in a verification run nor loaded on its own."""
    calls = []
    levelize = GateSimulator._levelize

    def spy(self):
        calls.append(self.netlist.name)
        return levelize(self)

    monkeypatch.setattr(GateSimulator, "_levelize", spy)
    compiler = SegaDcim()
    for design in verify_designs():
        assert compiler.verify(design).passed
    for netlist in [*twins.values(), *blocks.values()]:
        GateSimulator(netlist)
    assert calls == []


@pytest.mark.parametrize("copier", [lambda nl: pickle.loads(pickle.dumps(nl)), copy.deepcopy])
def test_netlists_pickle_and_deepcopy(copier, blocks):
    for netlist in blocks.values():
        clone = copier(netlist)
        assert clone.gates == netlist.gates
        assert all(type(gate) is Gate for gate in clone.gates)
        assert digest(clone) == digest(netlist)
