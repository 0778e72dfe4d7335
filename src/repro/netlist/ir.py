"""Gate-level structural netlist IR.

The template generator's Verilog is for the downstream flow; to *verify*
the architecture without a commercial simulator, the same blocks are
also built as flat gate-level netlists over a tiny primitive set
(NOT/AND/OR/NOR/XOR/MUX2 plus DFF) and executed by
:mod:`repro.netlist.simulate`.

Nets are integer ids; buses are lists of net ids, LSB first.

A :class:`Gate` is a validated ``NamedTuple`` record.  Builders emit
thousands of gates per twin (the INT8 compile twin has 9,200); a tuple
record is cheap to build, unpacks in one step when the simulator
compiles it, and pickles and deep-copies.  :meth:`Netlist.add_gate`
checks kind and arity with one :data:`GATE_KINDS` lookup, then appends
the record without validating it a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["Gate", "Dff", "Netlist", "GATE_KINDS"]

#: Supported combinational primitives and their arities.
GATE_KINDS: dict[str, int] = {
    "NOT": 1,
    "AND": 2,
    "OR": 2,
    "NOR": 2,
    "XOR": 2,
    "MUX2": 3,  # inputs (sel, a, b): out = sel ? b : a
}


def _gate_error(kind: str, inputs: tuple[int, ...]) -> ValueError:
    """The error for a gate of unknown ``kind`` or the wrong arity."""
    arity = GATE_KINDS.get(kind)
    if arity is None:
        return ValueError(f"unknown gate kind {kind!r}")
    return ValueError(f"{kind} expects {arity} inputs, got {len(inputs)}")


class _GateRecord(NamedTuple):
    kind: str
    inputs: tuple[int, ...]
    output: int


class Gate(_GateRecord):
    """One combinational gate: ``kind(inputs) -> output``.

    Raises:
        ValueError: on an unknown kind or an input count that does not
            match the kind's arity.
    """

    __slots__ = ()

    def __new__(cls, kind: str, inputs: tuple[int, ...], output: int) -> Gate:
        arity = GATE_KINDS.get(kind)
        if arity is None or len(inputs) != arity:
            raise _gate_error(kind, inputs)
        return tuple.__new__(cls, (kind, inputs, output))


@dataclass(frozen=True)
class Dff:
    """One D flip-flop with synchronous clear: ``q <= clear ? 0 : d``."""

    d: int
    q: int
    clear: int | None = None


@dataclass
class Netlist:
    """A flat gate-level design.

    Net 0 is constant 0 and net 1 is constant 1.  Input and output buses
    are named, LSB-first lists of net ids.
    """

    name: str
    n_nets: int = 2  # constants 0 and 1 pre-allocated
    gates: list[Gate] = field(default_factory=list)
    dffs: list[Dff] = field(default_factory=list)
    inputs: dict[str, list[int]] = field(default_factory=dict)
    outputs: dict[str, list[int]] = field(default_factory=dict)

    ZERO = 0
    ONE = 1

    # Net management --------------------------------------------------------
    def new_net(self) -> int:
        """Allocate one fresh net."""
        net = self.n_nets
        self.n_nets += 1
        return net

    def new_bus(self, width: int) -> list[int]:
        """Allocate ``width`` fresh nets (LSB first)."""
        if width < 1:
            raise ValueError(f"bus width must be >= 1, got {width}")
        return [self.new_net() for _ in range(width)]

    def input_bus(self, name: str, width: int) -> list[int]:
        """Declare a named input bus."""
        if name in self.inputs or name in self.outputs:
            raise ValueError(f"duplicate port name {name!r}")
        bus = self.new_bus(width)
        self.inputs[name] = bus
        return bus

    def output_bus(self, name: str, nets: list[int]) -> None:
        """Mark existing nets as a named output bus."""
        if name in self.inputs or name in self.outputs:
            raise ValueError(f"duplicate port name {name!r}")
        self.outputs[name] = list(nets)

    # Construction -----------------------------------------------------------
    def add_gate(self, kind: str, *inputs: int) -> int:
        """Add a gate driving a fresh net; returns that net."""
        if GATE_KINDS.get(kind) != len(inputs):
            raise _gate_error(kind, inputs)
        out = self.n_nets
        self.n_nets = out + 1
        self.gates.append(tuple.__new__(Gate, (kind, inputs, out)))
        return out

    def add_dff(self, d: int, clear: int | None = None) -> int:
        """Add a flip-flop fed by ``d``; returns the ``q`` net."""
        q = self.new_net()
        self.dffs.append(Dff(d, q, clear))
        return q

    # Reporting --------------------------------------------------------------
    def gate_count(self, kind: str | None = None) -> int:
        """Number of gates, optionally filtered by kind."""
        if kind is None:
            return len(self.gates)
        return sum(1 for g in self.gates if g.kind == kind)

    def stats(self) -> dict[str, int]:
        """Instance counts per primitive (plus DFFs and nets)."""
        out: dict[str, int] = {kind: 0 for kind in GATE_KINDS}
        for gate in self.gates:
            out[gate.kind] += 1
        out["DFF"] = len(self.dffs)
        out["nets"] = self.n_nets
        return out
