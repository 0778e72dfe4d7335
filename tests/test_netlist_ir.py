"""Tests for repro.netlist.ir, primitives and simulate."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.ir import GATE_KINDS, Dff, Gate, Netlist
from repro.netlist.primitives import (
    barrel_shifter_right,
    constant_shift_left,
    greater_than,
    mux_tree,
    nor_multiplier,
    ripple_adder,
    ripple_subtractor,
)
from repro.netlist.simulate import GateSimulator


class TestIr:
    def test_gate_arity_checked(self):
        with pytest.raises(ValueError):
            Gate("AND", (1,), 2)
        with pytest.raises(ValueError):
            Gate("NAND9", (1, 2), 3)

    def test_gate_errors_keep_their_text(self):
        with pytest.raises(ValueError, match=r"^AND expects 2 inputs, got 1$"):
            Gate("AND", (1,), 2)
        with pytest.raises(ValueError, match=r"^unknown gate kind 'NAND9'$"):
            Gate("NAND9", (1, 2), 3)
        nl = Netlist("t")
        with pytest.raises(ValueError, match=r"^unknown gate kind 'NAND9'$"):
            nl.add_gate("NAND9", 1, 2)
        with pytest.raises(ValueError, match=r"^MUX2 expects 3 inputs, got 2$"):
            nl.add_gate("MUX2", 0, 1)
        assert nl.gates == [] and nl.n_nets == 2  # a rejected gate allocates no net

    def test_gate_is_a_record(self):
        gate = Gate("MUX2", (1, 2, 3), 4)
        assert (gate.kind, gate.inputs, gate.output) == ("MUX2", (1, 2, 3), 4)
        assert repr(gate) == "Gate(kind='MUX2', inputs=(1, 2, 3), output=4)"
        assert gate == Gate("MUX2", (1, 2, 3), 4) and hash(gate) == hash(Gate("MUX2", (1, 2, 3), 4))
        nl = Netlist("t")
        nl.add_gate("MUX2", 1, 2, 3)
        assert nl.gates == [Gate("MUX2", (1, 2, 3), 2)]
        assert type(nl.gates[0]) is Gate
        with pytest.raises(AttributeError):
            gate.kind = "AND"

    def test_constants_preallocated(self):
        nl = Netlist("t")
        assert nl.n_nets == 2
        assert nl.ZERO == 0 and nl.ONE == 1

    def test_duplicate_port_rejected(self):
        nl = Netlist("t")
        nl.input_bus("a", 2)
        with pytest.raises(ValueError):
            nl.input_bus("a", 2)

    def test_stats(self):
        nl = Netlist("t")
        a = nl.input_bus("a", 1)[0]
        out = nl.add_gate("NOT", a)
        nl.add_dff(out)
        stats = nl.stats()
        assert stats["NOT"] == 1
        assert stats["DFF"] == 1

    def test_gate_count_filter(self):
        nl = Netlist("t")
        a = nl.input_bus("a", 1)[0]
        nl.add_gate("NOT", a)
        nl.add_gate("NOT", a)
        assert nl.gate_count("NOT") == 2
        assert nl.gate_count() == 2


class TestSimulatorBasics:
    def test_not_gate(self):
        nl = Netlist("t")
        a = nl.input_bus("a", 1)[0]
        nl.output_bus("y", [nl.add_gate("NOT", a)])
        sim = GateSimulator(nl)
        sim.set_bus("a", 0)
        sim.eval()
        assert sim.get_bus("y") == 1
        sim.set_bus("a", 1)
        sim.eval()
        assert sim.get_bus("y") == 0

    @pytest.mark.parametrize(
        "kind,table",
        [
            ("AND", {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
            ("OR", {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
            ("NOR", {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}),
            ("XOR", {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
        ],
    )
    def test_truth_tables(self, kind, table):
        nl = Netlist("t")
        a = nl.input_bus("a", 1)[0]
        b = nl.input_bus("b", 1)[0]
        nl.output_bus("y", [nl.add_gate(kind, a, b)])
        sim = GateSimulator(nl)
        for (va, vb), expected in table.items():
            sim.set_bus("a", va)
            sim.set_bus("b", vb)
            sim.eval()
            assert sim.get_bus("y") == expected, (kind, va, vb)

    def test_mux2(self):
        nl = Netlist("t")
        s = nl.input_bus("s", 1)[0]
        a = nl.input_bus("a", 1)[0]
        b = nl.input_bus("b", 1)[0]
        nl.output_bus("y", [nl.add_gate("MUX2", s, a, b)])
        sim = GateSimulator(nl)
        sim.set_bus("a", 1)
        sim.set_bus("b", 0)
        sim.set_bus("s", 0)
        sim.eval()
        assert sim.get_bus("y") == 1  # sel=0 -> a
        sim.set_bus("s", 1)
        sim.eval()
        assert sim.get_bus("y") == 0  # sel=1 -> b

    def test_combinational_cycle_detected(self):
        nl = Netlist("t")
        a = nl.new_net()
        b = nl.new_net()
        nl.gates.append(Gate("NOT", (a,), b))
        nl.gates.append(Gate("NOT", (b,), a))
        with pytest.raises(ValueError, match="cycle"):
            GateSimulator(nl)

    def test_dff_breaks_cycle(self):
        # A toggle flop: q -> NOT -> d is legal.
        nl = Netlist("t")
        d = nl.new_net()
        q = nl.add_dff(d)
        inv = nl.add_gate("NOT", q)
        nl.dffs[0] = Dff(d=inv, q=q)
        nl.output_bus("q", [q])
        sim = GateSimulator(nl)
        values = []
        for _ in range(4):
            sim.step()
            values.append(sim.get_bus("q"))
        assert values == [1, 0, 1, 0]

    def test_dff_clear(self):
        nl = Netlist("t")
        clear = nl.input_bus("clear", 1)[0]
        q = nl.add_dff(nl.ONE, clear=clear)
        nl.output_bus("q", [q])
        sim = GateSimulator(nl)
        sim.set_bus("clear", 0)
        sim.step()
        assert sim.get_bus("q") == 1
        sim.set_bus("clear", 1)
        sim.step()
        assert sim.get_bus("q") == 0

    def test_set_bus_range_checked(self):
        nl = Netlist("t")
        nl.input_bus("a", 2)
        sim = GateSimulator(nl)
        with pytest.raises(ValueError):
            sim.set_bus("a", 4)
        with pytest.raises(KeyError):
            sim.set_bus("b", 0)


def run_comb(nl, **inputs):
    sim = GateSimulator(nl)
    for name, value in inputs.items():
        sim.set_bus(name, value)
    sim.eval()
    return sim


class TestPrimitives:
    def test_ripple_adder(self):
        nl = Netlist("t")
        a = nl.input_bus("a", 4)
        b = nl.input_bus("b", 4)
        nl.output_bus("y", ripple_adder(nl, a, b))
        for va, vb in [(0, 0), (15, 15), (9, 6), (1, 15)]:
            sim = run_comb(nl, a=va, b=vb)
            assert sim.get_bus("y") == va + vb

    def test_ripple_subtractor(self):
        nl = Netlist("t")
        a = nl.input_bus("a", 4)
        b = nl.input_bus("b", 4)
        diff, borrow = ripple_subtractor(nl, a, b)
        nl.output_bus("d", diff)
        nl.output_bus("borrow", [borrow])
        sim = run_comb(nl, a=9, b=3)
        assert sim.get_bus("d") == 6
        assert sim.get_bus("borrow") == 0
        sim = run_comb(nl, a=3, b=9)
        assert sim.get_bus("borrow") == 1

    def test_greater_than(self):
        nl = Netlist("t")
        a = nl.input_bus("a", 4)
        b = nl.input_bus("b", 4)
        nl.output_bus("gt", [greater_than(nl, a, b)])
        assert run_comb(nl, a=5, b=4).get_bus("gt") == 1
        assert run_comb(nl, a=4, b=5).get_bus("gt") == 0
        assert run_comb(nl, a=7, b=7).get_bus("gt") == 0

    def test_mux_tree(self):
        nl = Netlist("t")
        sel = nl.input_bus("sel", 2)
        choices = [nl.input_bus(f"c{i}", 3) for i in range(4)]
        nl.output_bus("y", mux_tree(nl, sel, choices))
        sim = GateSimulator(nl)
        for i, v in enumerate([5, 2, 7, 1]):
            sim.set_bus(f"c{i}", v)
        for i, expected in enumerate([5, 2, 7, 1]):
            sim.set_bus("sel", i)
            sim.eval()
            assert sim.get_bus("y") == expected

    def test_barrel_shifter_right(self):
        nl = Netlist("t")
        v = nl.input_bus("v", 8)
        amt = nl.input_bus("amt", 3)
        nl.output_bus("y", barrel_shifter_right(nl, v, amt))
        sim = GateSimulator(nl)
        sim.set_bus("v", 0b10110100)
        for a in range(8):
            sim.set_bus("amt", a)
            sim.eval()
            assert sim.get_bus("y") == 0b10110100 >> a

    def test_constant_shift_left(self):
        nl = Netlist("t")
        v = nl.input_bus("v", 4)
        nl.output_bus("y", constant_shift_left(nl, v, 3))
        assert run_comb(nl, v=0b1011).get_bus("y") == 0b1011000

    def test_nor_multiplier(self):
        nl = Netlist("t")
        din = nl.input_bus("din", 4)
        w = nl.input_bus("w", 1)[0]
        nl.output_bus("y", nor_multiplier(nl, din, w))
        assert run_comb(nl, din=0b1010, w=1).get_bus("y") == 0b1010
        assert run_comb(nl, din=0b1010, w=0).get_bus("y") == 0


class TestToggleCounting:
    def test_toggle_counts_on_change(self):
        from repro.netlist.ir import Netlist
        from repro.netlist.simulate import GateSimulator

        nl = Netlist("t")
        a = nl.input_bus("a", 1)[0]
        nl.output_bus("y", [nl.add_gate("NOT", a)])
        sim = GateSimulator(nl, count_toggles=True)
        sim.reset_toggles()
        sim.set_bus("a", 1)
        sim.eval()
        sim.set_bus("a", 0)
        sim.eval()
        sim.set_bus("a", 0)  # no change
        sim.eval()
        assert sim.gate_toggles[0] == 2

    def test_dff_toggles(self):
        from repro.netlist.ir import Netlist
        from repro.netlist.simulate import GateSimulator

        nl = Netlist("t")
        d = nl.input_bus("d", 1)[0]
        q = nl.add_dff(d)
        nl.output_bus("q", [q])
        sim = GateSimulator(nl, count_toggles=True)
        sim.reset_toggles()
        sim.set_bus("d", 1)
        sim.step()
        sim.step()  # q stays 1: no toggle
        sim.set_bus("d", 0)
        sim.step()
        assert sim.dff_toggles[0] == 2

    def test_counting_does_not_change_results(self):
        from repro.netlist import build_adder_tree
        from repro.netlist.simulate import GateSimulator

        nl = build_adder_tree(8, 4)
        plain = GateSimulator(nl)
        counting = GateSimulator(nl, count_toggles=True)
        for value in (0, 12345, 999999):
            for sim in (plain, counting):
                sim.set_bus("terms", value)
                sim.eval()
            assert plain.get_bus("total") == counting.get_bus("total")


class TestMeasurePower:
    def test_density_extremes(self):
        from repro.netlist import build_adder_tree
        from repro.netlist.power import measure_power

        nl = build_adder_tree(8, 4)
        zero = measure_power(nl, vectors=20, density=0.0)
        assert zero.toggles == 0  # constant-zero stimulus never switches

    def test_density_validated(self):
        from repro.netlist import build_adder_tree
        from repro.netlist.power import measure_power

        with pytest.raises(ValueError):
            measure_power(build_adder_tree(4, 2), density=1.5)

    def test_no_inputs_rejected(self):
        from repro.netlist.ir import Netlist
        from repro.netlist.power import measure_power

        with pytest.raises(ValueError):
            measure_power(Netlist("empty"))

    def test_clocked_measurement(self):
        from repro.netlist import build_shift_accumulator
        from repro.netlist.power import measure_power

        m = measure_power(
            build_shift_accumulator(8, 2, 8), vectors=20, clocked=True
        )
        assert m.toggles > 0
        assert m.energy_per_vector > 0


@st.composite
def small_netlists(draw):
    """Random gates over input buses, plus DFFs with and without clear.

    DFF ``d`` pins connect after the gates, so flops may close loops.
    """
    nl = Netlist("random")
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    pool = [nl.ZERO, nl.ONE]
    for i, width in enumerate(widths):
        pool += nl.input_bus(f"in{i}", width)
    clear = nl.input_bus("clear", 1)[0]
    pool.append(clear)
    flops = draw(st.lists(st.booleans(), max_size=3))  # True: has clear
    state = [nl.add_dff(nl.ZERO, clear=clear if cleared else None) for cleared in flops]
    pool += state
    for kind in draw(st.lists(st.sampled_from(sorted(GATE_KINDS)), min_size=1, max_size=24)):
        inputs = [draw(st.sampled_from(pool)) for _ in range(GATE_KINDS[kind])]
        pool.append(nl.add_gate(kind, *inputs))
    for index, dff in enumerate(nl.dffs):
        nl.dffs[index] = Dff(d=draw(st.sampled_from(pool)), q=dff.q, clear=dff.clear)
    taps = draw(st.lists(st.sampled_from(pool[2:]), min_size=1, max_size=8))
    nl.output_bus("y", taps)
    if state:
        nl.output_bus("state", state)
    return nl


class TestLanes:
    @given(small_netlists(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lanes_match_one_lane_runs(self, nl, data):
        lanes = data.draw(st.integers(2, 6), label="lanes")
        wide = GateSimulator(nl, count_toggles=True, lanes=lanes)
        singles = [GateSimulator(nl, count_toggles=True) for _ in range(lanes)]
        for action in data.draw(
            st.lists(st.sampled_from(["eval", "step"]), min_size=1, max_size=6),
            label="actions",
        ):
            for name, bus in nl.inputs.items():
                values = data.draw(
                    st.lists(st.integers(0, 2 ** len(bus) - 1), min_size=lanes, max_size=lanes),
                    label=name,
                )
                wide.set_lanes(name, values)
                for sim, value in zip(singles, values):
                    sim.set_bus(name, value)
            for sim in (wide, *singles):
                getattr(sim, action)()
            for name in nl.outputs:
                assert wide.get_lanes(name) == [sim.get_bus(name) for sim in singles]
        assert wide.gate_toggles == [sum(c) for c in zip(*(s.gate_toggles for s in singles))]
        assert wide.dff_toggles == [sum(c) for c in zip(*(s.dff_toggles for s in singles))]
        with pytest.raises(ValueError, match="get_lanes"):
            wide.get_bus("y")

    @given(small_netlists(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_gate_order_does_not_matter(self, nl, data):
        """Out-of-creation-order gates levelise to the same results."""
        shuffled = dataclasses.replace(nl, gates=data.draw(st.permutations(nl.gates)))
        values = {
            name: data.draw(st.integers(0, 2 ** len(bus) - 1), label=name)
            for name, bus in nl.inputs.items()
        }
        sims = [GateSimulator(nl), GateSimulator(shuffled)]
        for sim in sims:
            for name, value in values.items():
                sim.set_bus(name, value)
            sim.step()
        for name in nl.outputs:
            assert sims[0].get_bus(name) == sims[1].get_bus(name)

    @given(small_netlists(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_increasing_outputs_reading_a_later_gate_levelise(self, nl, data):
        """Outputs that increase do not make a list topological: a gate
        that reads a later gate's output sends the load to Kahn's
        algorithm, and the results match the creation-order original."""
        nl.add_gate("NOT", nl.gates[-1].output)  # at least one gate reads another
        outputs = {gate.output: i for i, gate in enumerate(nl.gates)}
        pairs = [
            (outputs[net], j)
            for j, gate in enumerate(nl.gates)
            for net in gate.inputs
            if net in outputs
        ]
        i, j = data.draw(st.sampled_from(pairs), label="pair")
        # Move reader j in front of its driver i, then renumber the gate
        # outputs so they increase again in the new order.
        order = [*nl.gates[:i], nl.gates[j], *nl.gates[i:j], *nl.gates[j + 1:]]
        base = nl.gates[0].output
        rename = {gate.output: base + index for index, gate in enumerate(order)}

        def net(n):
            return rename.get(n, n)

        moved = dataclasses.replace(
            nl,
            gates=[
                Gate(gate.kind, tuple(net(n) for n in gate.inputs), base + index)
                for index, gate in enumerate(order)
            ],
            dffs=[Dff(net(dff.d), dff.q, dff.clear) for dff in nl.dffs],
            outputs={name: [net(n) for n in bus] for name, bus in nl.outputs.items()},
        )
        gates = moved.gates
        assert all(a.output < b.output for a, b in zip(gates, gates[1:]))
        assert gates[i].output < max(gates[i].inputs)
        with mock.patch.object(
            GateSimulator, "_levelize", autospec=True, side_effect=GateSimulator._levelize
        ) as levelize:
            sims = [GateSimulator(nl), GateSimulator(moved)]
        assert [call.args[0] for call in levelize.call_args_list] == [sims[1]]
        for name, bus in nl.inputs.items():
            value = data.draw(st.integers(0, 2 ** len(bus) - 1), label=name)
            for sim in sims:
                sim.set_bus(name, value)
        for action in ("eval", "step", "step"):
            for sim in sims:
                getattr(sim, action)()
            for name in nl.outputs:
                assert sims[0].get_bus(name) == sims[1].get_bus(name)

    @given(small_netlists(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_cycle_and_double_driver_raise_out_of_order(self, nl, data):
        index = data.draw(st.integers(0, len(nl.gates) - 1), label="gate")
        gate = nl.gates[index]
        # Close a loop: the gate now reads a NOT of its own output.
        loop = nl.new_net()
        cyclic = [*nl.gates, Gate("NOT", (gate.output,), loop)]
        cyclic[index] = Gate(gate.kind, (loop, *gate.inputs[1:]), gate.output)
        with pytest.raises(ValueError, match="cycle"):
            GateSimulator(dataclasses.replace(
                nl, gates=data.draw(st.permutations(cyclic), label="cyclic")))
        # A second gate driving an existing gate output.
        doubled = [*nl.gates, Gate("NOT", (nl.ONE,), gate.output)]
        with pytest.raises(ValueError, match="multiple drivers"):
            GateSimulator(dataclasses.replace(
                nl, gates=data.draw(st.permutations(doubled), label="doubled")))

    def test_set_lanes_checks_count_and_range(self):
        nl = Netlist("t")
        a = nl.input_bus("a", 2)
        nl.output_bus("y", [nl.add_gate("NOT", a[0])])
        sim = GateSimulator(nl, lanes=3)
        with pytest.raises(ValueError):
            sim.set_lanes("a", [0, 1])
        with pytest.raises(ValueError):
            sim.set_lanes("a", [0, 1, 4])
        sim.set_lanes("a", [0, 1, 3])
        sim.set_bus("a", 2)  # one value on every lane
        sim.eval()
        assert sim.get_lanes("y") == [1, 1, 1]
        with pytest.raises(ValueError):
            GateSimulator(nl, lanes=0)
