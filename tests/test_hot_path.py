"""Hot-path coverage: a differential grid for the native solver
backend, the FC seed-derivation fix, and the typed-extrapolation-error
cases."""

import random
import shlex

import pytest

from repro.errors import ExtrapolationError, SolverError
from repro.experiments import table1_sat_resilience
from repro.metrics import (
    average_simulated_fc,
    extrapolated_resilience,
    simulate_fc,
)
from repro.metrics.resilience import ResilienceMeasurement
from repro.sat import (
    NativeUnavailableBackend,
    dpll_solve,
    in_tree_engine_argv,
    make_backend,
)
from tests.conftest import locked_factory
from tests.test_solver_backends import random_3cnf, random_assumptions

pytestmark = pytest.mark.smoke


def _native_env(monkeypatch):
    monkeypatch.setenv(
        "REPRO_SAT_BINARY",
        " ".join(shlex.quote(part) for part in in_tree_engine_argv()))


# ----------------------------------------------------------------------
# Differential grid: the native backend vs the DPLL oracle
# ----------------------------------------------------------------------
class TestNewBackendsAgainstDpll:
    @pytest.mark.parametrize("name", ["native"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_3cnf_with_assumption_stacks(self, name, seed,
                                                monkeypatch):
        _native_env(monkeypatch)
        rng = random.Random(sum(ord(ch) for ch in name) * 777 + seed)
        num_vars = rng.randint(4, 12)
        cnf = random_3cnf(rng, num_vars, rng.randint(4, 50))
        backend = make_backend(name)
        ok = backend.add_cnf(cnf)
        for trial in range(3):
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

    def test_native_incremental_add_between_solves(self, monkeypatch):
        _native_env(monkeypatch)
        backend = make_backend("native")
        backend.ensure_vars(3)
        assert backend.add_clause([1, 2])
        assert backend.solve() is True
        assert backend.add_clause([-1])
        assert backend.solve() is True
        assert backend.model_value(2) is True
        assert backend.add_clause([-2])
        assert backend.solve() is False

    def test_native_unavailable_is_actionable(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAT_BINARY", raising=False)
        backend = make_backend("native")
        assert isinstance(backend, NativeUnavailableBackend)
        assert backend.stats()["available"] is False
        with pytest.raises(SolverError, match="REPRO_SAT_BINARY"):
            backend.new_var()
        with pytest.raises(SolverError, match="python-sat"):
            backend.solve()


# ----------------------------------------------------------------------
# FC seed derivation (satellite bugfix)
# ----------------------------------------------------------------------
class TestFcSeedDerivation:
    def test_neighbouring_seeds_use_disjoint_streams(self):
        """The bug: seed=0/depth index 1 and seed=1/depth index 0 were
        the same stream.  Tuple-derived seeds must all differ across a
        band of user seeds and depths."""
        from repro.sim import derive_seed

        derived = {(s, d): derive_seed("fc", s, d)
                   for s in range(8) for d in range(1, 9)}
        assert len(set(derived.values())) == len(derived)

    def test_average_fc_pinned_values(self):
        """Pin the post-fix values (CODE_VERSION bumped alongside)."""
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        value = average_simulated_fc(locked, [1, 2, 3], n_samples=200,
                                     seed=5)
        assert value == pytest.approx(0.64, abs=1e-12)
        # Per-depth streams are independent draws of the same estimator.
        single = simulate_fc(locked, 2, n_samples=200, seed=5)
        assert 0.0 <= single <= 1.0

    def test_code_version_bumped(self):
        from repro.campaign import CODE_VERSION

        assert CODE_VERSION == "trilock-campaign-v6"


# ----------------------------------------------------------------------
# Typed extrapolation error (satellite bugfix)
# ----------------------------------------------------------------------
class TestExtrapolationError:
    def test_empty_finished_raises(self):
        with pytest.raises(ExtrapolationError, match="b12"):
            extrapolated_resilience("b12", 2, 5, [])

    def test_zero_ndip_runs_raise(self):
        degenerate = ResilienceMeasurement(
            circuit="b12", kappa_s=1, width=5, ndip=0, seconds=1.0,
            measured=True, attack_succeeded=True, key_correct=True)
        with pytest.raises(ExtrapolationError):
            extrapolated_resilience("b12", 2, 5, [degenerate])

    def test_unmeasured_runs_raise(self):
        capped = ResilienceMeasurement(
            circuit="b12", kappa_s=1, width=5, ndip=7, seconds=1.0,
            measured=False, attack_succeeded=False, key_correct=False)
        with pytest.raises(ExtrapolationError):
            extrapolated_resilience("b12", 2, 5, [capped])

    def test_table1_marks_rows_unextrapolatable(self):
        result = table1_sat_resilience.assemble([], scale=0.05)
        assert len(result.rows) == 30
        assert all(row["T(s)"] == "unextrapolatable"
                   for row in result.rows)
        assert any("unextrapolatable" in note for note in result.notes)
        rendered = result.render()
        assert "nan" not in rendered
        assert "unextrapolatable" in rendered
