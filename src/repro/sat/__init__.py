"""SAT solving: the CDCL engine, the DPLL reference, model
enumeration."""

from repro.sat.dpll import brute_force_models, dpll_solve
from repro.sat.models import count_models, enumerate_models
from repro.sat.solver import Solver

__all__ = [
    "Solver",
    "brute_force_models",
    "count_models",
    "dpll_solve",
    "enumerate_models",
]
