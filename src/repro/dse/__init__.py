"""MOGA-based design space exploration (NSGA-II) for SEGA-DCIM.

``nsga2`` and ``distill`` are imported eagerly: each shares its name
with the submodule that defines it, and importing a submodule binds the
module to that name on the package unless the function is bound first.
"""

from repro._lazy import lazy_exports
from repro.dse.distill import distill
from repro.dse.nsga2 import nsga2

__all__ = [
    "random_search",
    "weighted_sum_search",
    "GenomeCodec",
    "divisors",
    "NSGA2Config",
    "NSGA2Result",
    "Individual",
    "nsga2",
    "DcimProblem",
    "OBJECTIVE_NAMES",
    "objectives_of",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "Requirements",
    "distill",
    "select",
    "SELECTION_STRATEGIES",
]

_EXPORTS = {
    "repro.dse.baselines": ("random_search", "weighted_sum_search"),
    "repro.dse.distill": ("Requirements", "SELECTION_STRATEGIES", "select"),
    "repro.dse.explorer": ("DesignSpaceExplorer", "ExplorationResult"),
    "repro.dse.genome": ("GenomeCodec", "divisors"),
    "repro.dse.nsga2": ("Individual", "NSGA2Config", "NSGA2Result"),
    "repro.dse.problem": ("OBJECTIVE_NAMES", "DcimProblem", "objectives_of"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
