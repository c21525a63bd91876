"""Tests for metrics: FC estimation, resilience measurement, overhead."""

import functools
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metrics.corruptibility as corruptibility
from repro.api import SCHEMES
from repro.core import fc_trilock, fc_trilock_exact
from repro.errors import SimulationError
from repro.experiments import fig7_fc
from repro.metrics import (
    average_simulated_fc,
    exhaustive_fc,
    extrapolated_resilience,
    locking_overhead,
    measure_resilience,
    paper_depth_range,
    simulate_fc,
)
from repro.sim import SequentialSimulator, derive_seed, make_rng
from repro.sim.bitvec import mask_for
from repro.sim.random_vectors import random_input_words

from tests.conftest import _locked_mid, _tiny_circuit, locked_factory


class TestSimulatedFc:
    def test_matches_exhaustive_on_tiny(self):
        locked = locked_factory(kappa_s=2, kappa_f=1, alpha=0.6, seed=3)
        exact = exhaustive_fc(locked, 2)
        sampled = simulate_fc(locked, 2, n_samples=800, seed=1)
        assert sampled == pytest.approx(exact, abs=0.06)

    def test_matches_eq15_within_paper_band(self):
        """Fig. 7's claim: |simulated - Eq.15| < 0.05 (larger key spaces);
        on the tiny 2-bit-suffix circuit the quantisation of T dominates,
        so compare against the exact count instead."""
        for alpha in (0.0, 0.3, 0.6, 0.9):
            locked = locked_factory(kappa_s=2, kappa_f=1, alpha=alpha,
                                    seed=3)
            sampled = simulate_fc(locked, 2, n_samples=800, seed=2)
            exact = fc_trilock_exact(locked.spec, 2)
            assert sampled == pytest.approx(exact, abs=0.06)

    def test_alpha_monotonicity(self):
        values = []
        for alpha in (0.0, 0.5, 1.0):
            locked = locked_factory(kappa_s=1, kappa_f=1, alpha=alpha,
                                    seed=6)
            values.append(simulate_fc(locked, 2, n_samples=400, seed=3))
        assert values[0] <= values[1] <= values[2]
        assert values[2] > 0.5  # alpha=1, kappa_f=1, width=2 -> FC ~ 0.7

    def test_correct_key_only_would_be_zero(self):
        # With kappa_f=0 and alpha=0 the only errors are prefix replays:
        # FC is near zero under random sampling.
        locked = locked_factory(kappa_s=2, kappa_f=0, alpha=0.0, seed=8)
        sampled = simulate_fc(locked, 2, n_samples=800, seed=4)
        assert sampled < 0.15

    def test_depth_range_helper(self):
        assert paper_depth_range(4) == [4, 5, 6, 7, 8, 9]

    def test_average_over_depths(self):
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        value = average_simulated_fc(locked, [1, 2, 3], n_samples=200,
                                     seed=5)
        assert 0.0 <= value <= 1.0

    def test_eq15_reference_direction(self):
        # Eq. 15 itself: alpha scales the ceiling.
        assert fc_trilock(0.6, 1, 4) == pytest.approx(
            0.6 * (1 - 1 / 16))


@functools.lru_cache(maxsize=None)
def _fc_lock(scheme):
    if scheme == "trilock":
        return locked_factory(kappa_s=2, kappa_f=1, alpha=0.6, seed=3)
    return SCHEMES.get(scheme).lock(_tiny_circuit(), seed=1)


def _per_depth_fcs(locked, depths, n_samples, seed):
    """The estimator as one pair of runs per depth, each compiling its
    own simulators: the reference the packed run must equal bit for
    bit."""
    fcs = []
    for depth in depths:
        rng = make_rng(("fc", derive_seed("fc", seed, depth)))
        kappa = locked.config.kappa
        inputs = locked.netlist.inputs
        stimulus = [random_input_words(rng, inputs, n_samples)
                    for _ in range(kappa + depth)]
        locked_outputs, _ = SequentialSimulator(locked.netlist).run(
            stimulus, n_samples)
        oracle_outputs, _ = SequentialSimulator(locked.original).run(
            stimulus[kappa:], n_samples)
        mismatch = 0
        for cycle in range(depth):
            for locked_word, oracle_word in zip(
                    locked_outputs[kappa + cycle], oracle_outputs[cycle]):
                mismatch |= locked_word ^ oracle_word
        fcs.append((mismatch & mask_for(n_samples)).bit_count() / n_samples)
    return fcs


def _counting_simulator(monkeypatch):
    """Swap the estimator's simulator for a subclass that counts
    constructions and runs."""
    calls = {"init": 0, "run": 0}

    class Counting(SequentialSimulator):
        def __init__(self, netlist):
            calls["init"] += 1
            super().__init__(netlist)

        def run(self, *args, **kwargs):
            calls["run"] += 1
            return super().run(*args, **kwargs)

    monkeypatch.setattr(corruptibility, "SequentialSimulator", Counting)
    return calls


class TestPackedFc:
    """All depth windows of a Fig. 7 cell share one packed run per
    netlist; each window's fraction must equal a run of its own."""

    @settings(max_examples=20, deadline=None)
    @given(scheme=st.sampled_from(["trilock", "naive", "sarlock"]),
           depths=st.lists(st.integers(1, 5), min_size=1, max_size=6),
           n_samples=st.integers(1, 150),
           seed=st.integers(0, 1000))
    def test_equals_per_depth_loop(self, scheme, depths, n_samples, seed):
        locked = _fc_lock(scheme)
        want = _per_depth_fcs(locked, depths, n_samples, seed)
        got = average_simulated_fc(locked, depths, n_samples=n_samples,
                                   seed=seed)
        singles = [simulate_fc(locked, depth, n_samples=n_samples,
                               seed=derive_seed("fc", seed, depth))
                   for depth in depths]
        assert got == statistics.mean(want)
        assert singles == want

    def test_packed_width_past_2_16_patterns(self):
        """Two windows of just over 2^15 samples: the packed run is
        wider than 2^16 patterns, each per-depth reference run is not."""
        locked = _fc_lock("trilock")
        n_samples = (1 << 15) + 5
        got = average_simulated_fc(locked, [1, 3], n_samples=n_samples,
                                   seed=2)
        want = _per_depth_fcs(locked, [1, 3], n_samples, 2)
        assert got == statistics.mean(want)

    @pytest.mark.parametrize("depths", [[3], [1, 2, 3], paper_depth_range(4)])
    def test_one_compile_and_run_per_netlist(self, depths, monkeypatch):
        calls = _counting_simulator(monkeypatch)
        average_simulated_fc(_fc_lock("trilock"), depths, n_samples=70,
                             seed=1)
        assert calls == {"init": 2, "run": 2}

    def test_empty_depth_list_raises_typed_error(self):
        with pytest.raises(SimulationError, match="at least one depth"):
            average_simulated_fc(_fc_lock("trilock"), [])

    def test_fig7_negative_span_raises_typed_error(self):
        with pytest.raises(SimulationError, match="at least one depth"):
            fig7_fc.fc_cell("suite:b12?scale=0.05&seed=0", seed=0,
                            kappa_s=2, kappa_f=1, alpha=0.6, n_samples=64,
                            depth_span=-1)

    def test_bad_depth_raises_before_simulating(self, monkeypatch):
        calls = _counting_simulator(monkeypatch)
        with pytest.raises(SimulationError, match="depth must be >= 1"):
            average_simulated_fc(_fc_lock("trilock"), [2, 0], n_samples=70)
        assert calls == {"init": 0, "run": 0}


class TestResilience:
    def test_measured_cell(self):
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        cell = measure_resilience(locked)
        assert cell.measured and cell.attack_succeeded and cell.key_correct
        assert cell.ndip == 4
        assert cell.seconds > 0

    def test_extrapolated_cell(self):
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        finished = [measure_resilience(locked)]
        cell = extrapolated_resilience("b12", 3, 5, finished)
        assert not cell.measured
        assert cell.ndip == 2**15
        assert cell.seconds > finished[0].seconds

    def test_budget_capped_attack_reports_failure(self):
        locked = locked_factory(kappa_s=2, kappa_f=1, alpha=0.6, seed=3)
        cell = measure_resilience(locked, max_dips=2)
        assert not cell.measured
        assert cell.ndip == 2


class TestOverhead:
    def test_locking_costs_area_and_power(self):
        locked = _locked_mid(kappa_s=2, s_pairs=0, seed=5)
        report = locking_overhead(locked)
        assert report.area_overhead > 0
        assert report.power_overhead > 0
        assert report.delay_overhead >= 0

    def test_overhead_grows_with_kappa_s(self):
        small = _locked_mid(kappa_s=1, s_pairs=0, seed=5)
        large = _locked_mid(kappa_s=3, s_pairs=0, seed=5)
        assert locking_overhead(large).area_overhead > \
            locking_overhead(small).area_overhead
