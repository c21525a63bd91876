"""Pluggable solver backends for the SAT attacks.

A *backend* is anything implementing the incremental solving surface the
DIP loop uses (:class:`SolverBackend`): variable allocation, clause
addition, ``solve(assumptions=...)``, and model extraction.  Backends are
published in a registry under short names so the attacks' ``solver``
param, the CLIs' ``--solver`` flag, and campaign cell params can refer
to them as plain strings; an attack cell runs exactly one of them:

``cdcl``
    The CDCL engine at its historical defaults — the reference
    configuration every other backend is differentially tested against,
    and the default of every attack.
``cdcl-agile`` / ``cdcl-stable`` / ``cdcl-flip``
    The same engine with shifted search heuristics (restart pacing,
    activity decay, default phase).  Complete solvers all: they must
    agree with ``cdcl`` on sat/unsat; their runtimes, and on keys that
    are not unique on the attacked window their DIP walks, differ.
``dpll``
    The reference DPLL solver behind the same interface.  Slow, but an
    independent oracle for property tests.
``native``
    An off-tree engine (python-sat if importable, else a DIMACS
    subprocess around ``$REPRO_SAT_BINARY``).  Always listed; when no
    engine is present it degrades to a stub whose solving surface
    raises an actionable :class:`~repro.errors.SolverError`.

:func:`make_backend` builds one by name; an unknown name fails with the
list of registered names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cnf.formula import Cnf
from repro.errors import SolverError
from repro.sat.dpll import dpll_solve
from repro.sat.solver import Solver

#: Name of the reference configuration (every attack's default solver).
DEFAULT_BACKEND = "cdcl"


class SolverBackend:
    """Structural interface of an attack-grade solver (documentation
    class — backends are duck-typed, not required to inherit).

    Required surface::

        new_var() -> int
        ensure_vars(up_to)
        num_vars  (property)
        add_clause(literals) -> bool  # False when root UNSAT detected
                                      # (empty clause at minimum; CDCL
                                      # detects more via propagation)
        add_cnf(cnf) -> bool
        solve(assumptions=()) -> bool
        model_value(var) -> bool
        model() -> dict[int, bool]
        stats() -> dict
    """

    REQUIRED = ("new_var", "ensure_vars", "add_clause", "add_cnf", "solve",
                "model_value", "model", "stats")

    @classmethod
    def implemented_by(cls, candidate):
        """True iff ``candidate`` offers the whole backend surface."""
        return all(callable(getattr(candidate, name, None))
                   for name in cls.REQUIRED)


@dataclass(frozen=True)
class CdclConfig:
    """A named, tunable configuration of the CDCL engine."""

    name: str
    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_base: int = 64
    phase_default: bool = False
    learnt_cap: int = 4000
    description: str = ""

    def build(self):
        solver = Solver(var_decay=self.var_decay,
                        clause_decay=self.clause_decay,
                        restart_base=self.restart_base,
                        phase_default=self.phase_default,
                        learnt_cap=self.learnt_cap)
        solver.backend_name = self.name
        return solver

    def variant(self, name, **changes):
        return replace(self, name=name, **changes)


class DpllBackend:
    """The reference DPLL solver behind the backend interface.

    Re-solves from scratch on every ``solve`` call (DPLL keeps no state),
    so it is only suitable for small formulas — its role is to be an
    independent correctness oracle in property tests.
    """

    backend_name = "dpll"

    def __init__(self):
        self._cnf = Cnf()
        self._root_unsat = False
        self._model = None
        self.num_solve_calls = 0

    def new_var(self):
        return self._cnf.new_var()

    def ensure_vars(self, up_to):
        while self._cnf.num_vars < up_to:
            self._cnf.new_var()

    @property
    def num_vars(self):
        return self._cnf.num_vars

    def add_clause(self, literals):
        clause = [int(lit) for lit in literals]
        for lit in clause:
            if lit == 0 or abs(lit) > self._cnf.num_vars:
                raise SolverError(
                    f"bad literal {lit} (allocate variables first)")
        if not clause:
            self._root_unsat = True
            return False
        self._cnf.add_clause(clause)  # tautologies dropped by Cnf
        return not self._root_unsat

    def add_cnf(self, cnf):
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            if not self.add_clause(clause):
                return False
        return True

    def solve(self, assumptions=()):
        self.num_solve_calls += 1
        if self._root_unsat:
            return False
        self._model = dpll_solve(self._cnf, assumptions=assumptions)
        return self._model is not None

    def model_value(self, var):
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        return bool(self._model.get(var, False))

    def model(self):
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        return {var: self.model_value(var)
                for var in range(1, self._cnf.num_vars + 1)}

    def stats(self):
        return {
            "backend": self.backend_name,
            "vars": self._cnf.num_vars,
            "clauses": self._cnf.num_clauses(),
            "solve_calls": self.num_solve_calls,
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY = {}


def register_backend(name, factory, replace_existing=False):
    """Publish ``factory`` (a zero-arg callable returning a backend)."""
    if not name or "," in name or name != name.strip():
        raise SolverError(f"bad backend name {name!r}")
    if name in _REGISTRY and not replace_existing:
        raise SolverError(f"backend {name!r} is already registered")
    if not callable(factory):
        raise SolverError(f"backend factory for {name!r} is not callable")
    _REGISTRY[name] = factory


def make_backend(name):
    """Instantiate the registered backend ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SolverError(f"unknown solver backend {name!r} (known: {known})")
    backend = factory()
    if not SolverBackend.implemented_by(backend):
        raise SolverError(
            f"backend {name!r} does not implement the solver surface")
    return backend


def backend_names():
    return tuple(sorted(_REGISTRY))


#: The built-in CDCL configurations. ``cdcl`` MUST stay at the engine's
#: historical defaults: the default attack derives its cache-stable DIP
#: walks from its search.
BUILTIN_CONFIGS = (
    CdclConfig("cdcl", description="reference configuration (defaults)"),
    # The other configurations are retuned by benchmarks/sweep_cdcl.py
    # (php conflict-density + real miter solve_seconds); re-run the sweep
    # after arena-core changes.
    CdclConfig("cdcl-agile", var_decay=0.85, restart_base=32,
               description="fast Luby restarts, aggressive VSIDS decay"),
    CdclConfig("cdcl-stable", var_decay=0.99, restart_base=512,
               phase_default=True,
               description="slow restarts, long activity memory, "
                           "positive default phase"),
    CdclConfig("cdcl-flip", phase_default=True, clause_decay=0.99,
               description="reference pacing with flipped default phase"),
)

def _build_native():
    from repro.sat.native import make_native_backend

    return make_native_backend()


for _config in BUILTIN_CONFIGS:
    register_backend(_config.name, _config.build)
register_backend("dpll", DpllBackend)
register_backend("native", _build_native)
