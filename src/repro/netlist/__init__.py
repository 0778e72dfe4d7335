"""Gate-level netlist IR, simulator and verification for SEGA-DCIM."""

from repro._lazy import lazy_exports

__all__ = [
    "netlist_to_verilog",
    "PRIMITIVE_LIBRARY_VERILOG",
    "verilog_to_netlist",
    "analyze_timing",
    "TimingReport",
    "GATE_DELAYS",
    "Netlist",
    "Gate",
    "Dff",
    "GATE_KINDS",
    "GateSimulator",
    "build_compute_unit",
    "build_adder_tree",
    "build_shift_accumulator",
    "build_result_fusion",
    "build_column",
    "build_int_macro",
    "build_prealign",
    "build_int2fp",
    "VerificationReport",
    "verify_compute_unit",
    "verify_adder_tree",
    "verify_shift_accumulator",
    "verify_prealign",
    "verify_int2fp",
    "verify_int_macro",
    "verify_fp_datapath",
]

_EXPORTS = {
    "repro.netlist.builders": (
        "build_adder_tree", "build_column", "build_compute_unit", "build_int2fp",
        "build_int_macro", "build_prealign", "build_result_fusion",
        "build_shift_accumulator",
    ),
    "repro.netlist.export": ("PRIMITIVE_LIBRARY_VERILOG", "netlist_to_verilog"),
    "repro.netlist.importer": ("verilog_to_netlist",),
    "repro.netlist.timing": ("GATE_DELAYS", "TimingReport", "analyze_timing"),
    "repro.netlist.ir": ("Dff", "Gate", "GATE_KINDS", "Netlist"),
    "repro.netlist.simulate": ("GateSimulator",),
    "repro.netlist.verify": (
        "VerificationReport", "verify_adder_tree", "verify_compute_unit",
        "verify_fp_datapath", "verify_int2fp", "verify_int_macro",
        "verify_prealign", "verify_shift_accumulator",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
