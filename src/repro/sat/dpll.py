"""Reference DPLL solver.

A deliberately simple solver (unit propagation + chronological
backtracking, no learning) used as an independent correctness oracle for
the CDCL engine in property tests. Only suitable for small formulas.
"""

from __future__ import annotations

from repro.errors import SolverError


def dpll_solve(cnf, assumptions=()):
    """Return a model dict var->bool, or None if UNSAT.

    ``cnf`` is a :class:`repro.cnf.formula.Cnf`; ``assumptions`` are
    literals fixed before the search.
    """
    assignment = {}
    for lit in assumptions:
        var = abs(lit)
        want = lit > 0
        if assignment.get(var, want) != want:
            return None
        assignment[var] = want

    clauses = [list(clause) for clause in cnf.clauses]
    result = _search(clauses, assignment)
    if result is None:
        return None
    model = {var: result.get(var, False) for var in range(1, cnf.num_vars + 1)}
    return model


def _simplify(clauses, assignment):
    """Unit-propagate; returns simplified clause list or None on conflict."""
    changed = True
    clauses = list(clauses)
    while changed:
        changed = False
        next_clauses = []
        for clause in clauses:
            satisfied = False
            remaining = []
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    remaining.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not remaining:
                return None  # conflict
            if len(remaining) == 1:
                lit = remaining[0]
                assignment[abs(lit)] = lit > 0
                changed = True
            else:
                next_clauses.append(remaining)
        clauses = next_clauses
    return clauses


def _search(clauses, assignment):
    clauses = _simplify(clauses, assignment)
    if clauses is None:
        return None
    if not clauses:
        return assignment
    # Branch on the first literal of the shortest clause.
    branch_clause = min(clauses, key=len)
    lit = branch_clause[0]
    for value in (lit > 0, lit < 0):
        trial = dict(assignment)
        trial[abs(lit)] = value
        result = _search(clauses, trial)
        if result is not None:
            return result
    return None


def brute_force_models(cnf, max_vars=20):
    """All models by exhaustive enumeration (tiny formulas only)."""
    if cnf.num_vars > max_vars:
        raise SolverError(f"brute force capped at {max_vars} variables")
    models = []
    for bits in range(1 << cnf.num_vars):
        assignment = {
            var: bool((bits >> (var - 1)) & 1)
            for var in range(1, cnf.num_vars + 1)
        }
        if cnf.evaluate(assignment):
            models.append(assignment)
    return models
