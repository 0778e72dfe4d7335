"""MOGA-based design space exploration (NSGA-II) for SEGA-DCIM."""

from repro.dse.baselines import random_search, weighted_sum_search
from repro.dse.distill import Requirements, SELECTION_STRATEGIES, distill, select
from repro.dse.explorer import DesignSpaceExplorer, ExplorationResult
from repro.dse.genome import GenomeCodec, divisors
from repro.dse.nsga2 import Individual, NSGA2Config, NSGA2Result, nsga2
from repro.dse.problem import OBJECTIVE_NAMES, DcimProblem, objectives_of

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
