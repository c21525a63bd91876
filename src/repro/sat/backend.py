"""Pluggable solver backends for the SAT attacks.

A *backend* is anything implementing the incremental solving surface the
DIP loop uses (:class:`SolverBackend`): variable allocation, clause
addition, ``solve(assumptions=...)``, and model extraction.  Backends are
published in a registry under short names so portfolio specs, CLI flags,
and campaign cell params can refer to them as plain strings:

``cdcl``
    The CDCL engine at its historical defaults — the reference
    configuration every other backend is differentially tested against.
``cdcl-agile`` / ``cdcl-stable`` / ``cdcl-flip``
    The same engine with shifted search heuristics (restart pacing,
    activity decay, default phase).  Complete solvers all: they must
    agree with ``cdcl`` on sat/unsat, only their runtimes differ — which
    is exactly what a racing portfolio exploits.
``dpll``
    The reference DPLL solver behind the same interface.  Slow, but an
    independent oracle for property tests.
``native``
    An off-tree engine (python-sat if importable, else a DIMACS
    subprocess around ``$REPRO_SAT_BINARY``).  Always listed; when no
    engine is present it degrades to a stub whose solving surface
    raises an actionable :class:`~repro.errors.SolverError`.

:func:`make_attack_solver` is the front door used by the attacks: it
turns a portfolio spec plus a worker budget into either a single inline
backend (the serial fast path, byte-identical to the historical
behaviour) or a racing :class:`~repro.sat.portfolio.PortfolioSolver`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.cnf.formula import Cnf
from repro.errors import SolverError
from repro.sat.dpll import INTERRUPTED, dpll_solve
from repro.sat.solver import Solver

#: Name of the reference configuration (the serial default).
DEFAULT_BACKEND = "cdcl"

#: Spec aliases resolved by :func:`parse_portfolio`.
PORTFOLIO_ALIASES = {
    "default": ("cdcl",),
    "race": ("cdcl", "cdcl-agile", "cdcl-stable"),
    "race2": ("cdcl", "cdcl-agile"),
    "all": ("cdcl", "cdcl-agile", "cdcl-stable", "cdcl-flip"),
}


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
        solve(assumptions=()) -> bool | None   # None = interrupted
        model_value(var) -> bool
        model() -> dict[int, bool]
        stats() -> dict
        interrupt  (settable attribute: zero-arg callable or None)
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
    independent correctness oracle in property tests and a deliberately
    heterogeneous portfolio member on tiny instances.
    """

    backend_name = "dpll"

    def __init__(self):
        self._cnf = Cnf()
        self._root_unsat = False
        self._model = None
        self.num_solve_calls = 0
        self.interrupt = None

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
        result = dpll_solve(self._cnf, assumptions=assumptions,
                            interrupt=self.interrupt)
        if result is INTERRUPTED:
            self._model = None
            return None
        self._model = result
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
    if name in PORTFOLIO_ALIASES:
        # parse_portfolio resolves aliases before the registry, so a
        # backend with an alias name would be silently unreachable.
        raise SolverError(
            f"backend name {name!r} is a reserved portfolio alias "
            f"({', '.join(sorted(PORTFOLIO_ALIASES))})")
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
#: historical defaults — the serial attack path promises byte-identical
#: behaviour to the pre-portfolio code.
BUILTIN_CONFIGS = (
    CdclConfig("cdcl", description="reference configuration (defaults)"),
    # The non-reference members are retuned by benchmarks/sweep_cdcl.py
    # (php conflict-density + real miter solve_seconds); re-run the sweep
    # after arena-core changes.  The reference ``cdcl`` config is frozen:
    # serial attacks derive cache-stable DIP sequences from its search.
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


# ----------------------------------------------------------------------
# Portfolio specs
# ----------------------------------------------------------------------
def parse_portfolio(spec):
    """Normalize a portfolio spec to a tuple of registered backend names.

    Accepted forms:

    * ``None`` / ``""`` / ``"default"`` — the single reference backend;
    * an alias (``"race"``, ``"race2"``, ``"all"``);
    * a comma-separated list of backend names (``"cdcl,cdcl-agile"``);
    * a sequence of backend names.

    Duplicate entries are rejected (racing two identical deterministic
    solvers is pure waste), as are unknown names.
    """
    if spec is None:
        return (DEFAULT_BACKEND,)
    if isinstance(spec, str):
        text = spec.strip()
        if not text:
            return (DEFAULT_BACKEND,)
        if text in PORTFOLIO_ALIASES:
            names = PORTFOLIO_ALIASES[text]
        else:
            names = tuple(part.strip() for part in text.split(","))
    else:
        names = tuple(spec)
    if not names or any(not name for name in names):
        raise SolverError(f"bad portfolio spec {spec!r}")
    if len(set(names)) != len(names):
        raise SolverError(f"portfolio spec {spec!r} repeats a backend")
    for name in names:
        if name not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise SolverError(
                f"portfolio spec {spec!r} names unknown backend {name!r} "
                f"(known: {known})")
    return names


def host_cores():
    """CPUs of this host (affinity-aware).

    The single source of truth for "real host cores": both the solver
    budget below and the campaign worker's ``REPRO_CPU_SHARE`` math
    (``repro.campaign.worker.cpu_share_for``) divide this same number,
    so a placement granted ``k`` cores really resolves to a ``k``-wide
    race on the remote host.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def cpu_budget():
    """CPUs this process may fairly use for racing (affinity-aware).

    This is what ``attack_jobs=None`` (auto) clamps a race to: racing
    more complete solvers than there are cores is strictly wasteful —
    every worker just time-slices the winner slower.

    When the campaign executor fans cells out to a process pool it
    publishes the sibling-worker count in ``REPRO_CPU_SHARE``; the
    budget divides by it, so ``--jobs N`` plus ``--attack-jobs auto``
    shares the machine instead of oversubscribing it ``N`` times over.
    """
    cpus = host_cores()
    try:
        share = int(os.environ.get("REPRO_CPU_SHARE", "1"))
    except ValueError:
        share = 1
    return max(1, cpus // max(1, share))


def make_attack_solver(portfolio=None, attack_jobs=1):
    """Build the solver an attack should use for its miter.

    ``portfolio`` is a spec for :func:`parse_portfolio`; ``attack_jobs``
    sets the worker processes a race may occupy:

    * ``1`` (the default) — serial: a single inline backend, the attack
      hot path is exactly the historical single-solver code (rejected
      when combined with a multi-config portfolio, which could never
      race);
    * ``None`` (auto) — one worker per configuration, clamped to
      :func:`cpu_budget` so a portfolio cell never oversubscribes its
      machine (on a single-core host auto degrades to serial, which is
      also the fastest thing that host can do);
    * an explicit ``N >= 2`` — honored as given, even past the CPU
      budget (tests use this to exercise real racing anywhere); it must
      cover the whole portfolio — a budget that would silently truncate
      the named configurations is rejected.

    With one effective configuration this returns a plain inline
    backend.
    """
    names = parse_portfolio(portfolio)
    auto = attack_jobs is None
    if auto:
        attack_jobs = min(len(names), cpu_budget())
    if attack_jobs < 1:
        raise SolverError(f"attack_jobs must be >= 1, got {attack_jobs}")
    if not auto and attack_jobs >= 2 and len(names) < 2:
        # An explicit worker budget with nothing to race is a silent
        # no-op the user almost certainly did not intend.
        raise SolverError(
            f"attack_jobs={attack_jobs} asks for a race but portfolio "
            f"{portfolio!r} has a single configuration; pick a >= 2-"
            "config portfolio (e.g. 'race2') or drop attack_jobs")
    if not auto and 1 <= attack_jobs < len(names):
        # Explicit worker budgets must cover the whole portfolio —
        # silently truncating it would run (and cache-key) a different
        # engine than the one the user named.
        raise SolverError(
            f"portfolio {portfolio!r} names {len(names)} configurations "
            f"but attack_jobs={attack_jobs} would race only the first "
            f"{attack_jobs}; raise attack_jobs, pass 'auto', or name "
            "exactly the configurations to race")
    active = names[:attack_jobs]
    if len(active) == 1:
        return make_backend(active[0])
    from repro.sat.portfolio import PortfolioSolver

    return PortfolioSolver(active)
