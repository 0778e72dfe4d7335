"""Lane-parallel two-value simulator for gate-level netlists.

Stands in for the commercial logic simulator of a real flow.  Every net
holds a Python int with one bit per *lane*: lane ``i`` is an independent
copy of the design, so one pass over the gates evaluates ``lanes`` test
vectors at once with big-int AND/OR/XOR.  The combinational fabric is
compiled into a flat op list in topological order; ``eval`` propagates
input changes through it, and ``step`` clocks every DFF simultaneously,
then re-evaluates.

Loading takes one pass when the gate list is already in topological
order, which every builder's is: :meth:`Netlist.add_gate` drives a
fresh net each time, so gate outputs strictly increase and every input
is a lower-numbered net than its gate's output.  Such a list has one
driver per net, and no gate reads a net driven later, so creation order
is the program.  Any other list (hand-appended or shuffled gates) goes
through the driver check and Kahn's algorithm, which raise on a doubly
driven net or a combinational cycle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.netlist.ir import Netlist

__all__ = ["GateSimulator"]

# Op codes of the compiled gate program, most frequent kinds first (the
# evaluation loop tests them in this order), and the net-0 padding that
# gives every program entry three inputs.
_AND, _XOR, _OR, _NOT, _NOR, _MUX2 = range(6)
_OPCODES = {"AND": _AND, "XOR": _XOR, "OR": _OR, "NOT": _NOT, "NOR": _NOR, "MUX2": _MUX2}
_PADDING = {"AND": (0,), "XOR": (0,), "OR": (0,), "NOT": (0, 0), "NOR": (0,), "MUX2": ()}


def _transpose(words: Sequence[int], width: int) -> list[int]:
    """Bit-matrix transpose: ``len(words)`` rows of ``width`` bits become
    ``width`` rows of ``len(words)`` bits (bit ``j`` of row ``i`` moves to
    bit ``i`` of row ``j``)."""
    row_bytes = (width + 7) // 8
    raw = b"".join(word.to_bytes(row_bytes, "little") for word in words)
    bits = np.unpackbits(
        np.frombuffer(raw, np.uint8).reshape(len(words), row_bytes),
        axis=1, count=width, bitorder="little",
    )
    planes = np.packbits(bits.T, axis=1, bitorder="little")
    data = planes.tobytes()
    step = planes.shape[1]
    return [int.from_bytes(data[i * step:(i + 1) * step], "little") for i in range(width)]


class GateSimulator:
    """Simulates ``lanes`` independent copies of one
    :class:`~repro.netlist.ir.Netlist`.

    Args:
        netlist: the design.
        count_toggles: count output toggles per gate and per DFF, summed
            over lanes (the power-measurement substrate reads these).
        lanes: independent copies simulated side by side; net values
            carry one bit per lane.

    Raises:
        ValueError: if the combinational fabric contains a cycle (only
            DFFs may close loops), if a net has two drivers, or if
            ``lanes < 1``.
    """

    def __init__(
        self, netlist: Netlist, count_toggles: bool = False, lanes: int = 1
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.netlist = netlist
        self.lanes = lanes
        self._mask = (1 << lanes) - 1
        self.values = [0] * netlist.n_nets
        self.values[netlist.ONE] = self._mask
        self.count_toggles = count_toggles
        self.gate_toggles = [0] * len(netlist.gates)
        self.dff_toggles = [0] * len(netlist.dffs)
        # The compiled program: one (op, out, in0, in1, in2) tuple per
        # gate, in creation order, then in topological order.
        self._gates = [
            (_OPCODES[kind], out, *inputs, *_PADDING[kind])
            for kind, inputs, out in netlist.gates
        ]
        self._program = (
            self._gates
            if self._in_creation_order()
            else [self._gates[i] for i in self._levelize()]
        )
        self._dffs = [(dff.d, dff.q, dff.clear) for dff in netlist.dffs]
        self.eval()

    def _in_creation_order(self) -> bool:
        """True when gate outputs strictly increase, every input is a
        lower-numbered net than its gate's output, and every output is
        a net of the design: the builders' lists, checked in one pass."""
        last = -1
        for _op, out, in0, in1, in2 in self._gates:
            if out <= last or in0 >= out or in1 >= out or in2 >= out:
                return False
            last = out
        return last < self.netlist.n_nets

    def _levelize(self) -> list[int]:
        """Topological order of gate indices by Kahn's algorithm, once no
        net has two drivers."""
        driver = [-1] * self.netlist.n_nets
        for i, (_op, out, _in0, _in1, _in2) in enumerate(self._gates):
            if driver[out] >= 0:
                raise ValueError("multiple drivers on one net")
            driver[out] = i
        gates = self.netlist.gates
        consumers: dict[int, list[int]] = {}
        indegree = [0] * len(gates)
        for i, gate in enumerate(gates):
            for net in gate.inputs:
                if driver[net] >= 0:
                    consumers.setdefault(net, []).append(i)
                    indegree[i] += 1
        ready = [i for i, deg in enumerate(indegree) if deg == 0]
        order: list[int] = []
        while ready:
            i = ready.pop()
            order.append(i)
            for j in consumers.get(gates[i].output, ()):
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
        if len(order) != len(gates):
            raise ValueError("combinational cycle detected")
        return order

    # Stimulus and readout ----------------------------------------------------
    def _input(self, name: str) -> list[int]:
        try:
            return self.netlist.inputs[name]
        except KeyError:
            raise KeyError(f"no input bus {name!r}") from None

    def _output(self, name: str) -> list[int]:
        try:
            return self.netlist.outputs[name]
        except KeyError:
            raise KeyError(f"no output bus {name!r}") from None

    def set_bus(self, name: str, value: int) -> None:
        """Drive a named input bus with one unsigned integer on every lane."""
        bus = self._input(name)
        if value < 0 or value >> len(bus):
            raise ValueError(
                f"value {value} does not fit input {name!r} ({len(bus)} bits)"
            )
        mask = self._mask
        for i, net in enumerate(bus):
            self.values[net] = mask if (value >> i) & 1 else 0

    def set_lanes(self, name: str, values: Sequence[int]) -> None:
        """Drive a named input bus with one unsigned integer per lane."""
        bus = self._input(name)
        if len(values) != self.lanes:
            raise ValueError(
                f"need {self.lanes} lane values for {name!r}, got {len(values)}"
            )
        for value in values:
            if value < 0 or value >> len(bus):
                raise ValueError(
                    f"value {value} does not fit input {name!r} ({len(bus)} bits)"
                )
        for net, word in zip(bus, _transpose(values, len(bus))):
            self.values[net] = word

    def get_bus(self, name: str) -> int:
        """Read a named output bus as an unsigned integer (one-lane only)."""
        bus = self._output(name)
        if self.lanes != 1:
            raise ValueError(
                f"get_bus reads one lane; this simulator has {self.lanes} "
                "(use get_lanes)"
            )
        return sum(self.values[net] << i for i, net in enumerate(bus))

    def get_lanes(self, name: str) -> list[int]:
        """Read a named output bus as one unsigned integer per lane."""
        bus = self._output(name)
        return _transpose([self.values[net] for net in bus], self.lanes)

    # Execution ---------------------------------------------------------------
    def eval(self) -> None:
        """Propagate current input values through the combinational fabric."""
        v = self.values
        before = v.copy() if self.count_toggles else None
        mask = self._mask
        for op, out, in0, in1, in2 in self._program:
            if op == _AND:
                v[out] = v[in0] & v[in1]
            elif op == _XOR:
                v[out] = v[in0] ^ v[in1]
            elif op == _OR:
                v[out] = v[in0] | v[in1]
            elif op == _NOT:
                v[out] = v[in0] ^ mask
            elif op == _NOR:
                v[out] = (v[in0] | v[in1]) ^ mask
            else:  # MUX2 (sel, a, b): sel ? b : a
                a = v[in1]
                v[out] = a ^ ((a ^ v[in2]) & v[in0])
        if before is not None:
            # Each gate output is written once per pass, so its toggles
            # are the lanes where it differs from the previous pass.
            toggles = self.gate_toggles
            for index, (_op, out, _in0, _in1, _in2) in enumerate(self._gates):
                toggles[index] += (before[out] ^ v[out]).bit_count()

    def step(self, cycles: int = 1) -> None:
        """Advance ``cycles`` clock edges (latch all DFFs, then settle)."""
        v = self.values
        for _ in range(cycles):
            self.eval()
            latched = [
                v[d] if clear is None else v[d] & ~v[clear]
                for d, _q, clear in self._dffs
            ]
            for index, ((_d, q, _clear), new) in enumerate(zip(self._dffs, latched)):
                if self.count_toggles:
                    self.dff_toggles[index] += (v[q] ^ new).bit_count()
                v[q] = new
            self.eval()

    def reset_toggles(self) -> None:
        """Zero the toggle counters (power-measurement windows)."""
        self.gate_toggles = [0] * len(self.netlist.gates)
        self.dff_toggles = [0] * len(self.netlist.dffs)
