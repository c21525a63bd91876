"""Tests for the CDCL solver, cross-checked against DPLL and brute force."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import Cnf, encode
from repro.errors import SolverError
from repro.sat import (
    Solver,
    brute_force_models,
    count_models,
    dpll_solve,
    enumerate_models,
)
from repro.sat.solver import _NO_CREF, _UNASSIGNED

from tests.util import random_comb_netlist

pytestmark = pytest.mark.smoke


def random_cnf(rng, num_vars, num_clauses, max_width=4):
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        clause = []
        for _ in range(width):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        try:
            cnf.add_clause(clause)
        except Exception:
            pass
    return cnf


def solver_for(cnf):
    solver = Solver()
    ok = solver.add_cnf(cnf)
    return solver, ok


class TestBasics:
    def test_trivial_sat(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve()
        assert solver.model_value(b) is True
        assert solver.model_value(a) is False

    def test_trivial_unsat(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.add_clause([-a]) is False
        assert not solver.solve()

    def test_model_requires_sat(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a])
        assert not solver.solve()
        with pytest.raises(SolverError):
            solver.model_value(a)

    def test_bad_literal_rejected(self):
        solver = Solver()
        with pytest.raises(SolverError):
            solver.add_clause([1])  # var not allocated
        solver.new_var()
        with pytest.raises(SolverError):
            solver.add_clause([0])

    def test_pigeonhole_3_into_2_unsat(self):
        # PHP(3,2): classic small UNSAT instance exercising learning.
        solver = Solver()
        holes = 2
        pigeons = 3
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[p, h] = solver.new_var()
        for p in range(pigeons):
            solver.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        assert not solver.solve()

    def test_stats_shape(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.solve()
        stats = solver.stats()
        assert stats["vars"] == 1 and stats["solve_calls"] == 1


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_dpll_on_random_cnf(self, seed):
        rng = random.Random(seed)
        cnf = random_cnf(rng, num_vars=rng.randint(3, 12),
                         num_clauses=rng.randint(3, 40))
        solver, ok = solver_for(cnf)
        cdcl_sat = ok and solver.solve()
        dpll_model = dpll_solve(cnf)
        assert cdcl_sat == (dpll_model is not None)
        if cdcl_sat:
            model = solver.model()
            assert cnf.evaluate(model)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_brute_force_small(self, seed):
        rng = random.Random(seed + 1000)
        cnf = random_cnf(rng, num_vars=6, num_clauses=rng.randint(4, 24))
        solver, ok = solver_for(cnf)
        cdcl_sat = ok and solver.solve()
        assert cdcl_sat == bool(brute_force_models(cnf))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_model_always_satisfies(self, seed):
        rng = random.Random(seed)
        cnf = random_cnf(rng, num_vars=rng.randint(2, 15),
                         num_clauses=rng.randint(2, 50))
        solver, ok = solver_for(cnf)
        if ok and solver.solve():
            assert cnf.evaluate(solver.model())
        else:
            assert dpll_solve(cnf) is None


class TestAssumptions:
    def test_assumptions_flip_result(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve(assumptions=[-a])
        assert solver.model_value(b)
        assert not solver.solve(assumptions=[-a, -b])
        # Solver is still usable afterwards: no permanent damage.
        assert solver.solve()

    def test_contradictory_assumptions(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([a, -a])  # tautology, dropped
        assert not solver.solve(assumptions=[a, -a])
        assert solver.solve(assumptions=[a])

    @pytest.mark.parametrize("seed", range(12))
    def test_assumptions_agree_with_dpll(self, seed):
        rng = random.Random(seed + 77)
        cnf = random_cnf(rng, num_vars=8, num_clauses=20)
        assumptions = []
        for var in rng.sample(range(1, 9), 3):
            assumptions.append(var if rng.random() < 0.5 else -var)
        solver, ok = solver_for(cnf)
        got = ok and solver.solve(assumptions=assumptions)
        expected = dpll_solve(cnf, assumptions=assumptions) is not None
        # dpll_solve pre-checks assumption consistency itself
        assert got == expected

    def test_incremental_clause_addition(self):
        solver = Solver()
        variables = [solver.new_var() for _ in range(4)]
        solver.add_clause(variables)
        banned = []
        rounds = 0
        while solver.solve():
            model = [solver.model_value(v) for v in variables]
            blocking = [-v if val else v for v, val in zip(variables, model)]
            solver.add_clause(blocking)
            banned.append(tuple(model))
            rounds += 1
            assert rounds <= 16
        assert len(banned) == 15  # all assignments except all-False


class TestCircuitSolving:
    @pytest.mark.parametrize("seed", range(6))
    def test_circuit_consistency(self, seed):
        """Solver models of a Tseitin encoding respect gate semantics."""
        netlist = random_comb_netlist(seed, n_inputs=5, n_gates=25)
        circuit = encode(netlist)
        solver = Solver()
        assert solver.add_cnf(circuit.cnf)
        assert solver.solve()
        from tests.util import reference_eval

        model = solver.model()
        assignment = {net: model[circuit.var_of[net]] for net in netlist.inputs}
        values = reference_eval(netlist, assignment)
        for net in netlist.gates:
            assert model[circuit.var_of[net]] == values[net], net


class TestModelEnumeration:
    def test_counts_all_models(self):
        cnf = Cnf(3)
        cnf.add_clause([1, 2, 3])
        assert count_models(cnf) == 7

    def test_projected_enumeration(self):
        cnf = Cnf(3)
        cnf.add_clause([1, 2])
        projected = list(enumerate_models(cnf, project_to=[1, 2]))
        assert len(projected) == 3
        assert all(set(m) == {1, 2} for m in projected)

    def test_limit(self):
        cnf = Cnf(4)
        cnf.add_clause([1, -1])  # dropped tautology -> free formula
        assert count_models(cnf, limit=5) == 5

    def test_unsat_enumerates_nothing(self):
        cnf = Cnf(1)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert count_models(cnf) == 0


class TestLuby:
    def test_prefix(self):
        from repro.sat.solver import _luby

        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [_luby(i) for i in range(15)] == expected


# ----------------------------------------------------------------------
# The VSIDS heap keeps one live entry per variable. Checked against a
# test-local copy of the heap it replaced, which re-pushed every
# variable on each backtrack and so held many copies of each.
# ----------------------------------------------------------------------
class ReferenceHeapSolver(Solver):
    """:class:`Solver` with the old ``_cancel_until``, ``_pick_branch``
    and ``_rescale_var_activity``: they never read the live-entry marks,
    so its ``_analyze`` pushes on every bump of an unassigned variable,
    as before."""

    def _cancel_until(self, level):
        if len(self._trail_lim) <= level:
            return
        boundary = self._trail_lim[level]
        trail = self._trail
        for k in range(len(trail) - 1, boundary - 1, -1):
            enc = trail[k]
            var = enc >> 1
            self._phase[var] = not enc & 1
            self._val[enc] = self._val[enc ^ 1] = _UNASSIGNED
            self._reason[var] = _NO_CREF
            heapq.heappush(self._order, (-self._activity[var], var))
        del trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = len(trail)

    def _pick_branch(self):
        while self._order:
            _, var = heapq.heappop(self._order)
            if self._val[var << 1] == _UNASSIGNED:
                return (var << 1) if self._phase[var] else (var << 1) | 1
        return _NO_CREF

    def _rescale_var_activity(self):
        for var in range(1, self._num_vars + 1):
            self._activity[var] *= 1e-100
        self._var_inc *= 1e-100
        self._order = [(-self._activity[var], var)
                       for var in range(1, self._num_vars + 1)
                       if self._val[var << 1] == _UNASSIGNED]
        heapq.heapify(self._order)


def assert_one_live_entry(solver):
    """Every unassigned variable has an entry at its current activity,
    the marks name exactly those entries, and no entry repeats."""
    entries = set(solver._order)
    assert len(entries) == len(solver._order)
    for var in range(1, solver.num_vars + 1):
        act = solver._activity[var]
        if solver._queued[var] >= 0.0:
            assert (-solver._queued[var], var) in entries
        if solver._val[var << 1] == _UNASSIGNED:
            assert solver._queued[var] == act, var


class TestHeapOneLiveEntry:
    @given(seed=st.integers(0, 10_000), var_decay=st.sampled_from([0.95, 0.1]),
           rounds=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_search_is_byte_identical(self, seed, var_decay, rounds):
        """Same answers, models, decisions, conflicts and propagations
        over incremental solves with assumptions and added clauses;
        ``var_decay=0.1`` rescales the activities every ~100 conflicts."""
        rng = random.Random(seed)
        num_vars = rng.randint(5, 40)
        cnf = random_cnf(rng, num_vars, rng.randint(num_vars, 5 * num_vars),
                         max_width=3)
        solvers = [cls(var_decay=var_decay)
                   for cls in (Solver, ReferenceHeapSolver)]
        for solver in solvers:
            solver.add_cnf(cnf)
        for _ in range(rounds):
            assumptions = [rng.choice((var, -var))
                           for var in rng.sample(range(1, num_vars + 1),
                                                 rng.randint(0, 3))]
            answers = [solver.solve(assumptions) for solver in solvers]
            assert answers[0] == answers[1]
            assert solvers[0]._model == solvers[1]._model
            assert solvers[0].stats() == solvers[1].stats()
            assert_one_live_entry(solvers[0])
            extra = [rng.choice((var, -var))
                     for var in rng.sample(range(1, num_vars + 1), 3)]
            added = [solver.add_clause(extra) for solver in solvers]
            assert added[0] == added[1]

    def test_rescale_on_pigeonhole(self):
        """PHP(6,5) at ``var_decay=0.1`` rescales the activities; the
        heap stays one entry per variable and the search is unchanged."""
        stats = []
        for cls in (Solver, ReferenceHeapSolver):
            solver = cls(var_decay=0.1)
            holes, pigeons = 5, 6

            def var(p, h):
                return p * holes + h + 1

            solver.ensure_vars(pigeons * holes)
            for p in range(pigeons):
                solver.add_clause([var(p, h) for h in range(holes)])
            for h in range(holes):
                for p in range(pigeons):
                    for q in range(p + 1, pigeons):
                        solver.add_clause([-var(p, h), -var(q, h)])
            rescales = []
            rescale = solver._rescale_var_activity
            solver._rescale_var_activity = lambda: rescales.append(rescale())
            assert solver.solve() is False
            stats.append(solver.stats())
            assert rescales
            if cls is Solver:
                assert_one_live_entry(solver)
        assert stats[0] == stats[1]
