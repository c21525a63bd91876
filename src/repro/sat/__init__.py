"""SAT solving: CDCL engine, DPLL reference, pluggable backends,
model enumeration."""

from repro.sat.backend import (
    DEFAULT_BACKEND,
    SolverBackend,
    backend_names,
    make_backend,
    register_backend,
)
from repro.sat.dpll import brute_force_models, dpll_solve
from repro.sat.models import count_models, enumerate_models
from repro.sat.native import (
    DimacsSubprocessBackend,
    NativeUnavailableBackend,
    PySatBackend,
    engine_probe,
    in_tree_engine_argv,
    make_native_backend,
)
from repro.sat.solver import Solver

__all__ = [
    "DEFAULT_BACKEND",
    "DimacsSubprocessBackend",
    "NativeUnavailableBackend",
    "PySatBackend",
    "Solver",
    "SolverBackend",
    "backend_names",
    "brute_force_models",
    "count_models",
    "dpll_solve",
    "engine_probe",
    "enumerate_models",
    "in_tree_engine_argv",
    "make_backend",
    "make_native_backend",
    "register_backend",
]
