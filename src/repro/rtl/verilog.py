"""A small Verilog-2001 source builder.

The template-based generator emits plain-text Verilog.  This module
keeps the emission structured: a :class:`VerilogModule` collects ports,
nets, assigns, always blocks and submodule instances, then renders a
formatted source string.  It is a *builder*, not a parser — just enough
structure to keep the templates readable and the output consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Port", "Instance", "VerilogModule", "render_modules"]

_DIRECTIONS = ("input", "output", "inout")


def _bus(width: int) -> str:
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return "" if width == 1 else f"[{width - 1}:0] "


@dataclass(frozen=True)
class Port:
    """One module port."""

    name: str
    direction: str
    width: int = 1
    is_reg: bool = False

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"bad port direction {self.direction!r}")
        if self.width < 1:
            raise ValueError(f"port {self.name!r} needs width >= 1")

    def declaration(self) -> str:
        reg = "reg " if self.is_reg else ""
        return f"{self.direction} {reg}{_bus(self.width)}{self.name}"


@dataclass(frozen=True)
class Instance:
    """One submodule instantiation."""

    module: str
    name: str
    connections: dict[str, str]

    def render(self, indent: str = "  ") -> str:
        pins = ",\n".join(
            f"{indent}  .{pin}({net})" for pin, net in self.connections.items()
        )
        return f"{indent}{self.module} {self.name} (\n{pins}\n{indent});"


class VerilogModule:
    """Accumulates the contents of one Verilog module, then renders it."""

    def __init__(self, name: str, comment: str = "") -> None:
        self.name = name
        self.comment = comment
        self.ports: list[Port] = []
        self.wires: list[tuple[str, int]] = []
        self.regs: list[tuple[str, int]] = []
        self.assigns: list[tuple[str, str]] = []
        self.blocks: list[str] = []
        self.instances: list[Instance] = []

    # Declarations ---------------------------------------------------------
    def add_port(
        self, name: str, direction: str, width: int = 1, is_reg: bool = False
    ) -> None:
        """Declare one port (in declaration order)."""
        if any(p.name == name for p in self.ports):
            raise ValueError(f"duplicate port {name!r} in module {self.name!r}")
        self.ports.append(Port(name, direction, width, is_reg))

    def add_wire(self, name: str, width: int = 1) -> None:
        """Declare an internal wire."""
        self.wires.append((name, width))

    def add_reg(self, name: str, width: int = 1) -> None:
        """Declare an internal reg."""
        self.regs.append((name, width))

    # Behaviour ------------------------------------------------------------
    def add_assign(self, lhs: str, rhs: str) -> None:
        """Add a continuous assignment."""
        self.assigns.append((lhs, rhs))

    def add_block(self, text: str) -> None:
        """Add a raw behavioural block (always/generate), pre-indented."""
        self.blocks.append(text.rstrip())

    def add_instance(self, module: str, name: str, **connections: str) -> None:
        """Instantiate a submodule with named port connections."""
        self.instances.append(Instance(module, name, connections))

    # Rendering ------------------------------------------------------------
    def render(self) -> str:
        """Emit the module as formatted Verilog-2001 source."""
        lines: list[str] = []
        if self.comment:
            for row in self.comment.splitlines():
                lines.append(f"// {row}")
        port_names = ", ".join(p.name for p in self.ports)
        lines.append(f"module {self.name} ({port_names});")
        for port in self.ports:
            lines.append(f"  {port.declaration()};")
        for name, width in self.wires:
            lines.append(f"  wire {_bus(width)}{name};")
        for name, width in self.regs:
            lines.append(f"  reg {_bus(width)}{name};")
        if self.assigns:
            lines.append("")
            for lhs, rhs in self.assigns:
                lines.append(f"  assign {lhs} = {rhs};")
        for block in self.blocks:
            lines.append("")
            lines.append(block)
        for inst in self.instances:
            lines.append("")
            lines.append(inst.render())
        lines.append("endmodule")
        return "\n".join(lines) + "\n"


def render_modules(modules: list[VerilogModule]) -> str:
    """Concatenate several modules into one source file."""
    return "\n".join(m.render() for m in modules)
