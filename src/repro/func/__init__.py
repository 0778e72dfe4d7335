"""Functional golden models: formats, MVM references, macro behaviour."""

from repro._lazy import lazy_exports

__all__ = [
    "FloatFormat",
    "FpFields",
    "max_unsigned",
    "quantize_unsigned",
    "golden_mvm",
    "bit_serial_mvm",
    "weight_bitplanes",
    "input_slices",
    "signed_matvec",
    "AlignedVector",
    "prealign",
    "aligned_dot",
    "alignment_error",
    "IntMacroModel",
    "FpMacroModel",
    "ConversionResult",
    "int_to_fp",
    "pack_to_format",
]

_EXPORTS = {
    "repro.func.formats": ("FloatFormat", "FpFields", "max_unsigned", "quantize_unsigned"),
    "repro.func.int2fp_model": ("ConversionResult", "int_to_fp", "pack_to_format"),
    "repro.func.macro_model": ("FpMacroModel", "IntMacroModel"),
    "repro.func.mvm": (
        "bit_serial_mvm", "golden_mvm", "input_slices", "signed_matvec",
        "weight_bitplanes",
    ),
    "repro.func.prealign_model": (
        "AlignedVector", "aligned_dot", "alignment_error", "prealign",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
