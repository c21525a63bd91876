"""Optional native solver backend ("escape Python").

The registry always lists ``native``; what you get from the factory
depends on the host:

1. **python-sat** (``pysat``) importable — :class:`PySatBackend`, an
   in-process incremental engine (Minisat22 by default, override with
   ``REPRO_PYSAT_SOLVER``).  Assumptions map straight through.
2. **$REPRO_SAT_BINARY** set — :class:`DimacsSubprocessBackend`, which
   re-emits the accumulated clause set as DIMACS on every ``solve`` and
   runs the user-supplied binary (kissat, cadical, minisat, ...).  The
   value is ``shlex``-split, so it may carry arguments.  Two calling
   conventions are supported via ``REPRO_SAT_STYLE``:

   * ``competition`` (default): ``<cmd> <input.cnf>``, answer as
     SAT-competition ``s``/``v`` lines on stdout (kissat, cadical,
     glucose ``-model``, picosat, and ``python -m
     repro.sat.dimacs_engine``);
   * ``minisat``: ``<cmd> <input.cnf> <result.txt>``, answer in the
     result file (MiniSat's classic interface).

   Assumptions become per-solve unit clauses (the formula file is
   rebuilt each call, so they never pollute later solves).  Each solve
   is one ``subprocess.run``, which drains the engine's output while it
   runs, so a model larger than the pipe buffer cannot stall it.
3. Neither — :class:`NativeUnavailableBackend`, a stub that satisfies
   the backend surface (so the registry can list it and ``stats()``
   works) but raises an actionable :class:`~repro.errors.SolverError`
   from every solving entry point.

All three keep the incremental contract of
:class:`repro.sat.backend.SolverBackend`: ``add_clause`` between
``solve`` calls, assumptions honored per call.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import weakref

from repro.errors import SolverError


def engine_probe():
    """Discover the best available native engine.

    Returns ``(kind, detail)`` where ``kind`` is ``"pysat"``,
    ``"dimacs"`` or ``None``; for ``"dimacs"`` the detail is the argv
    prefix, for ``None`` it is a human-readable reason.
    """
    try:
        import pysat.solvers  # noqa: F401
    except ImportError:
        pass
    else:
        return "pysat", None
    binary = os.environ.get("REPRO_SAT_BINARY", "").strip()
    if binary:
        return "dimacs", tuple(shlex.split(binary))
    return None, ("no native engine: python-sat is not importable and "
                  "REPRO_SAT_BINARY is unset")


def make_native_backend():
    """Factory registered as the ``native`` backend."""
    kind, detail = engine_probe()
    if kind == "pysat":
        return PySatBackend()
    if kind == "dimacs":
        style = os.environ.get("REPRO_SAT_STYLE", "competition").strip()
        return DimacsSubprocessBackend(detail, style=style)
    return NativeUnavailableBackend(detail)


class _ClauseStoreMixin:
    """Shared literal bookkeeping for the native backends.

    Keeps the same validation surface as the in-tree backends: literals
    must reference allocated variables, the empty clause flips the
    store root-UNSAT, and ``add_clause`` reports ``False`` from then on.
    """

    def __init__(self):
        self._num_vars = 0
        self._root_unsat = False
        self._model = None
        self.num_solve_calls = 0

    def new_var(self):
        self._num_vars += 1
        return self._num_vars

    def ensure_vars(self, up_to):
        while self._num_vars < up_to:
            self.new_var()

    @property
    def num_vars(self):
        return self._num_vars

    def _check_clause(self, literals):
        clause = [int(lit) for lit in literals]
        for lit in clause:
            if lit == 0 or abs(lit) > self._num_vars:
                raise SolverError(
                    f"bad literal {lit} (allocate variables first)")
        return clause

    def add_cnf(self, cnf):
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            if not self.add_clause(clause):
                return False
        return True

    def model_value(self, var):
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        return bool(self._model.get(var, False))

    def model(self):
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        return {var: self.model_value(var)
                for var in range(1, self._num_vars + 1)}


class PySatBackend(_ClauseStoreMixin):
    """python-sat behind the backend surface (in-process, incremental)."""

    backend_name = "native"

    def __init__(self, solver_name=None):
        super().__init__()
        from pysat.solvers import Solver as _PySatSolver

        name = solver_name or os.environ.get("REPRO_PYSAT_SOLVER",
                                             "minisat22")
        try:
            self._engine = _PySatSolver(name=name)
        except Exception as exc:
            raise SolverError(f"pysat solver {name!r} unavailable: {exc}")
        self._engine_name = name
        self._num_clauses = 0

    def add_clause(self, literals):
        if self._root_unsat:
            return False
        clause = self._check_clause(literals)
        if not clause:
            self._root_unsat = True
            return False
        self._engine.add_clause(clause)
        self._num_clauses += 1
        return True

    def solve(self, assumptions=()):
        self.num_solve_calls += 1
        self._model = None
        if self._root_unsat:
            return False
        answer = self._engine.solve(
            assumptions=[int(lit) for lit in assumptions])
        if answer:
            self._model = {abs(lit): lit > 0
                           for lit in (self._engine.get_model() or ())}
        return bool(answer)

    def stats(self):
        return {
            "backend": self.backend_name,
            "engine": f"pysat:{self._engine_name}",
            "vars": self._num_vars,
            "clauses": self._num_clauses,
            "solve_calls": self.num_solve_calls,
        }


class DimacsSubprocessBackend(_ClauseStoreMixin):
    """A user-supplied DIMACS binary behind the backend surface.

    Incrementality is emulated through a persistent *spool file*: each
    clause is serialized exactly once, appended to the spool when first
    seen, and the fixed-width ``p cnf`` header is rewritten in place
    before every ``solve`` (the engine subprocess itself restarts from
    scratch — that part is inherent to a stateless external binary, but
    the Python-side serialization cost drops from O(formula) to
    O(delta) per call, which is what matters in the clause-growing DIP
    loop).  Per-call assumptions are appended as
    unit clauses after the permanent body and truncated away once the
    run finishes, so they never pollute later solves.
    """

    backend_name = "native"

    #: Fixed digit widths for the in-place rewritten DIMACS header.
    _HEADER_FORMAT = "p cnf {vars:>10} {clauses:>12}\n"

    def __init__(self, argv_prefix, style="competition"):
        super().__init__()
        if not argv_prefix:
            raise SolverError("empty REPRO_SAT_BINARY")
        if style not in ("competition", "minisat"):
            raise SolverError(
                f"bad REPRO_SAT_STYLE {style!r} "
                "(expected 'competition' or 'minisat')")
        self._argv = tuple(argv_prefix)
        self._style = style
        self._clauses = []
        self._spool_dir = None
        self._spool_path = None
        self._spool_handle = None
        self._spooled = 0              # clauses already in the spool
        self._body_end = 0             # file offset after permanent body
        self._serialized_clauses = 0   # monotone: clause lines ever written

    def add_clause(self, literals):
        if self._root_unsat:
            return False
        clause = self._check_clause(literals)
        if not clause:
            self._root_unsat = True
            return False
        self._clauses.append(clause)
        return True

    # -- DIMACS plumbing ------------------------------------------------
    def _ensure_spool(self):
        """Open (once) the persistent spool file for this backend."""
        if self._spool_handle is None:
            self._spool_dir = tempfile.mkdtemp(prefix="repro-native-")
            weakref.finalize(self, shutil.rmtree, self._spool_dir,
                             ignore_errors=True)
            self._spool_path = os.path.join(self._spool_dir, "formula.cnf")
            self._spool_handle = open(self._spool_path, "w+",
                                      encoding="ascii")
            self._spool_handle.write(
                self._HEADER_FORMAT.format(vars=0, clauses=0))
            self._body_end = self._spool_handle.tell()
        return self._spool_handle

    def _sync_spool(self, assumptions):
        """Append new clauses + assumption units, rewrite the header.

        Returns the offset the caller must truncate back to afterwards
        (the end of the permanent clause body).
        """
        handle = self._ensure_spool()
        handle.seek(self._body_end)
        for clause in self._clauses[self._spooled:]:
            handle.write(" ".join(map(str, clause)) + " 0\n")
        self._serialized_clauses += len(self._clauses) - self._spooled
        self._spooled = len(self._clauses)
        self._body_end = handle.tell()
        for lit in assumptions:
            handle.write(f"{int(lit)} 0\n")
        handle.seek(0)
        handle.write(self._HEADER_FORMAT.format(
            vars=self._num_vars,
            clauses=len(self._clauses) + len(assumptions)))
        handle.flush()
        return self._body_end

    @staticmethod
    def _run(argv):
        """Run the engine to completion; returns the completed process
        with its whole stdout (read while it runs, so a long model
        cannot fill the pipe and stall the engine)."""
        try:
            return subprocess.run(argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
        except OSError as exc:
            raise SolverError(
                f"native engine {argv[0]!r} failed to start: {exc}")

    @staticmethod
    def _parse_answer(text):
        """Parse SAT-competition style output: s-line plus v-lines."""
        answer = None
        model = {}
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("s "):
                token = line[2:].strip().upper()
                if token.startswith("UNSAT"):
                    answer = False
                elif token.startswith("SAT"):
                    answer = True
            elif line.startswith("v "):
                for tok in line[2:].split():
                    lit = int(tok)
                    if lit:
                        model[abs(lit)] = lit > 0
            elif line in ("SATISFIABLE", "UNSATISFIABLE"):
                answer = not line.startswith("UN")
        return answer, model

    def solve(self, assumptions=()):
        self.num_solve_calls += 1
        self._model = None
        if self._root_unsat:
            return False
        body_end = self._sync_spool([int(lit) for lit in assumptions])
        try:
            argv = list(self._argv) + [self._spool_path]
            out_path = None
            if self._style == "minisat":
                out_path = os.path.join(self._spool_dir, "result.txt")
                if os.path.exists(out_path):
                    os.unlink(out_path)  # never trust a stale verdict
                argv.append(out_path)
            proc = self._run(argv)
            text = proc.stdout or ""
            if out_path and os.path.exists(out_path):
                with open(out_path, "r", encoding="ascii") as handle:
                    # MiniSat result files: SAT\n<model> / UNSAT
                    body = handle.read().split()
                if body:
                    verdict = body[0].upper()
                    text += ("\ns UNSATISFIABLE" if verdict == "UNSAT"
                             else "\ns SATISFIABLE\nv "
                             + " ".join(body[1:]))
        finally:
            # Drop this call's assumption units; the permanent clause
            # body stays spooled for the next (incremental) solve.
            self._spool_handle.seek(body_end)
            self._spool_handle.truncate()
        answer, model = self._parse_answer(text)
        if answer is None:
            # Fall back on the SAT-competition exit-code convention.
            if proc.returncode == 10:
                answer = True
            elif proc.returncode == 20:
                answer = False
            else:
                raise SolverError(
                    f"native engine {self._argv[0]!r} produced no "
                    f"verdict (exit code {proc.returncode})")
        if answer and not model:
            raise SolverError(
                f"native engine {self._argv[0]!r} reported SAT without "
                "a model (v-lines); the attacks need model extraction "
                "-- use an engine/flag that prints the assignment")
        if answer:
            self._model = model
        return answer

    def stats(self):
        return {
            "backend": self.backend_name,
            "engine": "dimacs:" + " ".join(self._argv),
            "style": self._style,
            "vars": self._num_vars,
            "clauses": len(self._clauses),
            "solve_calls": self.num_solve_calls,
            # Incremental-mirroring proof: each clause is serialized to
            # the spool once, not once per solve.
            "serialized_clauses": self._serialized_clauses,
        }


class NativeUnavailableBackend:
    """Placeholder that keeps ``native`` listed when no engine exists.

    Implements the whole backend surface so registry introspection
    (``implemented_by``, ``stats``) works, but every solving entry
    point raises a :class:`SolverError` that says how to get a real
    engine.
    """

    backend_name = "native"

    def __init__(self, reason):
        self._reason = reason

    def _unavailable(self):
        raise SolverError(
            f"native backend unavailable ({self._reason}); install "
            "python-sat or point REPRO_SAT_BINARY at a DIMACS solver "
            "(e.g. kissat); see README 'Attack engine'")

    def new_var(self):
        self._unavailable()

    def ensure_vars(self, up_to):
        self._unavailable()

    @property
    def num_vars(self):
        return 0

    def add_clause(self, literals):
        self._unavailable()

    def add_cnf(self, cnf):
        self._unavailable()

    def solve(self, assumptions=()):
        self._unavailable()

    def model_value(self, var):
        self._unavailable()

    def model(self):
        self._unavailable()

    def stats(self):
        return {
            "backend": self.backend_name,
            "engine": None,
            "available": False,
            "vars": 0,
            "clauses": 0,
            "solve_calls": 0,
        }


def in_tree_engine_argv():
    """argv prefix for the bundled DIMACS engine (tests, smoke runs)."""
    return (sys.executable, "-m", "repro.sat.dimacs_engine")
