"""Property tests for the in-tree CDCL engine, cross-checked against
DPLL under random assumption stacks."""

import random

import pytest

from repro.cnf import Cnf
from repro.sat import Solver, dpll_solve

pytestmark = pytest.mark.smoke


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
# The CDCL engine vs the DPLL oracle
# ----------------------------------------------------------------------
class TestConfigsAgainstDpll:
    # The engine's name also seeds the instances.
    @pytest.mark.parametrize("name", ["cdcl"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_3cnf_with_assumption_stacks(self, name, seed):
        rng = random.Random(sum(ord(ch) for ch in name) * 1000 + seed)
        num_vars = rng.randint(4, 14)
        cnf = random_3cnf(rng, num_vars, rng.randint(4, 60))
        solver = Solver()
        ok = solver.add_cnf(cnf)
        for trial in range(4):
            assumptions = random_assumptions(rng, num_vars,
                                             rng.randint(0, 4))
            got = ok and solver.solve(assumptions=assumptions)
            want = dpll_solve(cnf, assumptions=assumptions) is not None
            assert got == want, (name, seed, trial, assumptions)
            if got:
                model = solver.model()
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
