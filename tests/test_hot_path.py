"""Hot-path coverage: the FC seed-derivation fix and the
typed-extrapolation-error cases."""

import pytest

from repro.errors import ExtrapolationError
from repro.experiments import table1_sat_resilience
from repro.metrics import (
    average_simulated_fc,
    extrapolated_resilience,
    simulate_fc,
)
from repro.metrics.resilience import ResilienceMeasurement
from tests.conftest import locked_factory

pytestmark = pytest.mark.smoke


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
