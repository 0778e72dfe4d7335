"""Estimation models for SEGA-DCIM (paper Tables II-VI)."""

from repro._lazy import lazy_exports

__all__ = [
    "BatchCost",
    "CostEngine",
    "Cost",
    "adder_cla",
    "VariationResult",
    "monte_carlo",
    "parallel",
    "series",
    "ZERO_COST",
    "adder",
    "barrel_shifter",
    "clog2",
    "comparator",
    "multiplier_1xn",
    "mux",
    "register_bank",
    "accumulator_width",
    "adder_tree",
    "converter_width",
    "fusion_width",
    "input_buffer",
    "int_to_fp_converter",
    "prealignment",
    "result_fusion",
    "shift_accumulator",
    "MacroCost",
    "int_macro_cost",
    "int_weights_stored",
    "validate_int_params",
    "fp_macro_cost",
    "fp_weights_stored",
    "validate_fp_params",
    "MacroMetrics",
    "evaluate_macro",
]

_EXPORTS = {
    "repro.model.cost": ("Cost", "parallel", "series", "ZERO_COST"),
    "repro.model.logic": (
        "adder", "adder_cla", "barrel_shifter", "clog2", "comparator",
        "multiplier_1xn", "mux", "register_bank",
    ),
    "repro.model.components": (
        "accumulator_width", "adder_tree", "converter_width", "fusion_width",
        "input_buffer", "int_to_fp_converter", "prealignment", "result_fusion",
        "shift_accumulator",
    ),
    "repro.model.macro": ("MacroCost",),
    "repro.model.engine": ("BatchCost", "CostEngine"),
    "repro.model.integer": ("int_macro_cost", "int_weights_stored", "validate_int_params"),
    "repro.model.floating": ("fp_macro_cost", "fp_weights_stored", "validate_fp_params"),
    "repro.model.metrics": ("MacroMetrics", "evaluate_macro"),
    "repro.model.variation": ("VariationResult", "monte_carlo"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
