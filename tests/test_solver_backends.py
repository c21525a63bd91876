"""Property tests for the solver-backend layer: the registry, and every
registered CDCL configuration cross-checked against DPLL under random
assumption stacks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import Cnf
from repro.errors import SolverError
from repro.sat import (
    BUILTIN_CONFIGS,
    CdclConfig,
    DpllBackend,
    Solver,
    SolverBackend,
    backend_names,
    dpll_solve,
    make_backend,
    register_backend,
)

pytestmark = pytest.mark.smoke

CDCL_NAMES = tuple(n for n in backend_names() if n.startswith("cdcl"))


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
class TestRegistry:
    def test_builtin_backends_registered(self):
        names = backend_names()
        assert "cdcl" in names and "dpll" in names
        assert len(CDCL_NAMES) >= 3  # reference + >= 2 tuned variants

    def test_reference_config_is_engine_default(self):
        """'cdcl' must stay at the historical Solver() defaults — the
        default attack's byte-identical promise hangs on it."""
        reference = next(c for c in BUILTIN_CONFIGS if c.name == "cdcl")
        assert reference == CdclConfig("cdcl",
                                       description=reference.description)
        fresh = Solver()
        built = reference.build()
        assert built._var_decay == fresh._var_decay
        assert built._restart_base == fresh._restart_base
        assert built._phase_default == fresh._phase_default

    def test_every_backend_implements_surface(self):
        for name in backend_names():
            assert SolverBackend.implemented_by(make_backend(name)), name

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError, match="known: .*cdcl-stable"):
            make_backend("minisat-classic")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError):
            register_backend("cdcl", Solver)

    def test_custom_registration(self):
        name = "cdcl-test-custom"
        if name not in backend_names():
            register_backend(
                name, CdclConfig(name, restart_base=32).build)
        backend = make_backend(name)
        assert backend._restart_base == 32

    def test_configs_are_actually_different(self):
        built = {name: make_backend(name) for name in CDCL_NAMES}
        signatures = {
            (s._var_decay, s._cla_decay, s._restart_base, s._phase_default)
            for s in built.values()
        }
        assert len(signatures) == len(built)

    def test_stats_shape_is_uniform_across_backends(self):
        """Every backend's stats() carries the 'backend' key consumers
        key on (CombSatResult.solver_stats)."""
        for name in backend_names():
            assert make_backend(name).stats()["backend"] == name


# ----------------------------------------------------------------------
# Every CDCL configuration vs the DPLL oracle
# ----------------------------------------------------------------------
class TestConfigsAgainstDpll:
    @pytest.mark.parametrize("name", CDCL_NAMES)
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

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_tuned_configs_agree_with_reference(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 12)
        cnf = random_3cnf(rng, num_vars, rng.randint(3, 50))
        assumptions = random_assumptions(rng, num_vars, rng.randint(0, 3))
        answers = set()
        for name in CDCL_NAMES:
            backend = make_backend(name)
            answers.add(backend.add_cnf(cnf)
                        and backend.solve(assumptions=assumptions))
        assert len(answers) == 1  # complete solvers cannot disagree


class TestDpllBackend:
    def test_incremental_parity_with_solver(self):
        rng = random.Random(99)
        dpll = DpllBackend()
        cdcl = Solver()
        for _ in range(10):
            dpll.new_var()
            cdcl.new_var()
        for round_index in range(12):
            clause = [rng.randint(1, 10) * (1 if rng.random() < 0.5 else -1)
                      for _ in range(rng.randint(1, 3))]
            dpll.add_clause(clause)
            cdcl.add_clause(clause)
            assumptions = random_assumptions(rng, 10, 2)
            assert bool(dpll.solve(assumptions=assumptions)) == \
                bool(cdcl.solve(assumptions=assumptions)), round_index

    def test_model_requires_sat(self):
        backend = DpllBackend()
        var = backend.new_var()
        backend.add_clause([var])
        with pytest.raises(SolverError):
            backend.model_value(var)
        assert backend.solve()
        assert backend.model_value(var) is True

    def test_bad_literal_rejected(self):
        backend = DpllBackend()
        with pytest.raises(SolverError):
            backend.add_clause([1])

    def test_stats_shape(self):
        backend = DpllBackend()
        backend.new_var()
        backend.solve()
        stats = backend.stats()
        assert stats["backend"] == "dpll" and stats["solve_calls"] == 1
