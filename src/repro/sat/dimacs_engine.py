"""A tiny DIMACS CLI around the in-tree CDCL engine.

Exists so the :class:`repro.sat.native.DimacsSubprocessBackend` has a
hermetic engine to run against in tests and smoke runs::

    REPRO_SAT_BINARY="python -m repro.sat.dimacs_engine" ...

Speaks the SAT-competition conventions the adapter expects: answer as
``s SATISFIABLE`` / ``s UNSATISFIABLE`` on stdout, model as ``v`` lines
terminated by 0, exit code 10/20.
"""

from __future__ import annotations

import sys

from repro.sat.solver import Solver


def parse_dimacs(text):
    """Parse DIMACS CNF into ``(num_vars, clauses)``.

    Tolerates comment lines, blank lines, and clauses spanning lines
    (literals are consumed until each terminating 0).
    """
    num_vars = 0
    clauses = []
    current = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {raw!r}")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)  # tolerate a missing final 0
    return num_vars, clauses


def run(path, out=sys.stdout):
    """Solve the DIMACS file at ``path``; returns the exit code."""
    with open(path, "r", encoding="ascii") as handle:
        num_vars, clauses = parse_dimacs(handle.read())
    solver = Solver()
    solver.ensure_vars(num_vars)
    sat = True
    for clause in clauses:
        if not solver.add_clause(clause):
            sat = False
            break
    if sat:
        sat = solver.solve()
    if not sat:
        print("s UNSATISFIABLE", file=out)
        return 20
    lits = [var if solver.model_value(var) else -var
            for var in range(1, num_vars + 1)]
    print("s SATISFIABLE", file=out)
    print("v " + " ".join(map(str, lits)) + " 0", file=out)
    return 10


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 1:
        print("usage: python -m repro.sat.dimacs_engine <input.cnf>",
              file=sys.stderr)
        return 2
    return run(argv[0])


if __name__ == "__main__":
    sys.exit(main())
