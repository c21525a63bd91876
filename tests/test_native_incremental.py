"""Incremental clause mirroring into the native (DIMACS) backend.

The backend keeps a persistent spool file across solves: each clause is
serialized exactly once (``serialized_clauses`` proves it), and per-solve
assumption units are appended then truncated away.  The engine's answer
is read while it runs, so a model longer than the pipe buffer cannot
stall the solve.
"""

import shlex
import sys
import threading

import pytest

from repro.sat import DimacsSubprocessBackend, in_tree_engine_argv, \
    make_backend

pytestmark = pytest.mark.smoke


def _native_env(monkeypatch):
    monkeypatch.setenv(
        "REPRO_SAT_BINARY",
        " ".join(shlex.quote(part) for part in in_tree_engine_argv()))


class TestIncrementalSpool:
    def test_each_clause_serialized_once_across_solves(self, monkeypatch):
        _native_env(monkeypatch)
        backend = make_backend("native")
        backend.ensure_vars(4)
        backend.add_clause([1, 2])
        backend.add_clause([-1, 3])
        assert backend.solve() is True
        backend.add_clause([-3, 4])
        assert backend.solve() is True
        assert backend.solve(assumptions=[-2]) is True
        stats = backend.stats()
        assert stats["solve_calls"] == 3
        assert stats["clauses"] == 3
        # 3 clauses over 3 solves: a per-solve rebuild would serialize 8.
        assert stats["serialized_clauses"] == 3

    def test_assumptions_do_not_leak_into_later_solves(self, monkeypatch):
        _native_env(monkeypatch)
        backend = make_backend("native")
        backend.ensure_vars(2)
        backend.add_clause([1, 2])
        # Force UNSAT via assumptions, then drop them: the truncated
        # spool must not have kept the units around.
        assert backend.solve(assumptions=[-1, -2]) is False
        assert backend.solve() is True
        assert backend.solve(assumptions=[-1]) is True
        assert backend.stats()["serialized_clauses"] == 1

    def test_growing_vars_updates_header(self, monkeypatch):
        _native_env(monkeypatch)
        backend = make_backend("native")
        backend.ensure_vars(2)
        backend.add_clause([1, 2])
        assert backend.solve() is True
        backend.ensure_vars(50)
        backend.add_clause([-1, 50])
        assert backend.solve() is True
        stats = backend.stats()
        assert stats["vars"] == 50
        assert stats["serialized_clauses"] == 2


class TestLargeModels:
    #: Variables of the fake engine's one v-line: about 120 KB of output,
    #: past the 64 KiB pipe buffer (a b12 kappa_s=2 DIP miter has 13,194).
    N_VARS = 20_000

    def test_model_larger_than_the_pipe_buffer(self, tmp_path):
        """A competition-style engine prints its whole model, then exits;
        an adapter that waits for the exit before reading stdout never
        returns, because the engine blocks on its full pipe."""
        engine = tmp_path / "fake_engine.py"
        engine.write_text(
            "import sys\n"
            f"n = {self.N_VARS}\n"
            "print('s SATISFIABLE')\n"
            "print('v ' + ' '.join(str(v) for v in range(1, n + 1))"
            " + ' 0')\n"
            "sys.exit(10)\n")
        backend = DimacsSubprocessBackend((sys.executable, str(engine)))
        backend.ensure_vars(self.N_VARS)
        backend.add_clause([1, 2])
        answers = []
        # A daemon thread joined with a timeout: a hung solve fails the
        # test instead of hanging the suite.
        solver = threading.Thread(
            target=lambda: answers.append(backend.solve()), daemon=True)
        solver.start()
        solver.join(timeout=60)
        assert not solver.is_alive(), "solve() hung on a full pipe"
        assert answers == [True]
        assert backend.model_value(self.N_VARS) is True
