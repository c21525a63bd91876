"""Property tests for the solver-backend layer: the registry, and the
in-tree CDCL engine cross-checked against DPLL under random assumption
stacks."""

import random

import pytest

import repro.sat.backend
from repro.cnf import Cnf
from repro.errors import SolverError
from repro.sat import (
    Solver,
    SolverBackend,
    backend_names,
    dpll_solve,
    make_backend,
    register_backend,
)

pytestmark = pytest.mark.smoke

#: The built-in backends (tests may register more on a scratch registry).
BUILTIN_NAMES = ("cdcl", "native")


def random_3cnf(rng, num_vars, num_clauses):
    """Random 3-CNF (the classic hard-instance distribution)."""
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        clause = []
        for _ in range(3):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        try:
            cnf.add_clause(clause)
        except Exception:
            pass
    return cnf


def random_assumptions(rng, num_vars, count):
    stack = []
    for var in rng.sample(range(1, num_vars + 1), min(count, num_vars)):
        stack.append(var if rng.random() < 0.5 else -var)
    return stack


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@pytest.fixture
def scratch_registry(monkeypatch):
    """Registrations made by the test vanish with it."""
    monkeypatch.setattr(repro.sat.backend, "_REGISTRY",
                        dict(repro.sat.backend._REGISTRY))


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == BUILTIN_NAMES

    def test_every_backend_implements_surface(self):
        for name in backend_names():
            assert SolverBackend.implemented_by(make_backend(name)), name

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError, match="known: cdcl, native"):
            make_backend("minisat-classic")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError):
            register_backend("cdcl", Solver)

    def test_custom_registration(self, scratch_registry):
        register_backend("cdcl-test-custom", Solver)
        assert "cdcl-test-custom" in backend_names()
        assert isinstance(make_backend("cdcl-test-custom"), Solver)

    def test_backend_without_num_vars_rejected(self, scratch_registry):
        """``DipEngine.pin_batch`` reads ``num_vars`` on every pin, so a
        backend lacking it fails at construction, not mid-attack."""

        class NoNumVars:
            def __init__(self):
                self._inner = Solver()

            def __getattr__(self, name):
                if name == "num_vars":
                    raise AttributeError(name)
                return getattr(self._inner, name)

        register_backend("nonum", NoNumVars)
        with pytest.raises(SolverError,
                           match="does not implement the solver surface"):
            make_backend("nonum")

    def test_stats_shape_is_uniform_across_backends(self):
        """Every backend's stats() carries the 'backend' key consumers
        key on (CombSatResult.solver_stats)."""
        for name in BUILTIN_NAMES:
            assert make_backend(name).stats()["backend"] == name


# ----------------------------------------------------------------------
# The CDCL engine vs the DPLL oracle
# ----------------------------------------------------------------------
class TestConfigsAgainstDpll:
    @pytest.mark.parametrize("name", ["cdcl"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_3cnf_with_assumption_stacks(self, name, seed):
        rng = random.Random(sum(ord(ch) for ch in name) * 1000 + seed)
        num_vars = rng.randint(4, 14)
        cnf = random_3cnf(rng, num_vars, rng.randint(4, 60))
        backend = make_backend(name)
        ok = backend.add_cnf(cnf)
        for trial in range(4):
            assumptions = random_assumptions(rng, num_vars,
                                             rng.randint(0, 4))
            got = ok and backend.solve(assumptions=assumptions)
            want = dpll_solve(cnf, assumptions=assumptions) is not None
            assert got == want, (name, seed, trial, assumptions)
            if got:
                model = backend.model()
                assert cnf.evaluate(model)
                for lit in assumptions:
                    assert model[abs(lit)] == (lit > 0)

    def test_incremental_parity_with_solver(self):
        """Clauses added between solves: every answer matches DPLL over
        the clauses accumulated so far."""
        rng = random.Random(99)
        cnf = Cnf(10)
        cdcl = Solver()
        cdcl.ensure_vars(10)
        for round_index in range(12):
            clause = [rng.randint(1, 10) * (1 if rng.random() < 0.5 else -1)
                      for _ in range(rng.randint(1, 3))]
            cnf.add_clause(clause)
            cdcl.add_clause(clause)
            assumptions = random_assumptions(rng, 10, 2)
            assert (dpll_solve(cnf, assumptions=assumptions) is not None) \
                == cdcl.solve(assumptions=assumptions), round_index
