"""Pluggable solver backends for the SAT attacks.

A *backend* is anything implementing the incremental solving surface the
DIP loop uses (:class:`SolverBackend`): variable allocation, clause
addition, ``solve(assumptions=...)``, and model extraction.  Backends are
published in a registry under short names so the attacks' ``solver``
param, the CLIs' ``--solver`` flag, and campaign cell params can refer
to them as plain strings; an attack cell runs exactly one of them:

``cdcl``
    The in-tree CDCL engine (:class:`~repro.sat.solver.Solver`), the
    default of every attack.
``native``
    An off-tree engine (python-sat if importable, else a DIMACS
    subprocess around ``$REPRO_SAT_BINARY``).  Always listed; when no
    engine is present it degrades to a stub whose solving surface
    raises an actionable :class:`~repro.errors.SolverError`.

:func:`make_backend` builds one by name; an unknown name fails with the
list of registered names.
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.sat.solver import Solver

#: Every attack's default solver.
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
        """True iff ``candidate`` offers the whole backend surface
        (``num_vars`` is a property: it must exist, not be callable)."""
        return hasattr(candidate, "num_vars") and all(
            callable(getattr(candidate, name, None))
            for name in cls.REQUIRED)


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


def _build_native():
    from repro.sat.native import make_native_backend

    return make_native_backend()


register_backend("cdcl", Solver)
register_backend("native", _build_native)
