"""End-to-end integration tests: the full designer + attacker pipeline on
one circuit, crossing every subsystem boundary in the library."""

import pytest

from repro.attacks import (
    SimulationOracle,
    attack_locked_circuit,
    attempt_removal,
    bounded_equivalence,
    scc_report,
)
from repro.bench import load_benchmark
from repro.core import TriLockConfig, lock, ndip_trilock
from repro.metrics import exhaustive_fc, locking_overhead, simulate_fc
from repro.core.analytic import fc_trilock_exact
from repro.netlist import dumps_bench, loads_bench
from repro.sim import SequentialSimulator, make_rng, random_vectors


@pytest.fixture(scope="module")
def pipeline():
    """Lock s27 once for the whole module."""
    original = load_benchmark("s27")
    config = TriLockConfig(kappa_s=1, kappa_f=1, alpha=0.6, s_pairs=6,
                           seed=99)
    return original, lock(original, config)


class TestDesignerPipeline:
    def test_lock_then_bench_roundtrip_then_simulate(self, pipeline):
        """Export the locked design to .bench, re-import, still unlocks."""
        original, locked = pipeline
        reloaded = loads_bench(dumps_bench(locked.netlist), name="reload")
        vectors = random_vectors(make_rng(1), 4, 6)
        want = SequentialSimulator(original).run_vectors(vectors)
        got = SequentialSimulator(reloaded).run_vectors(
            locked.stimulus_with_key(locked.key, vectors))
        assert got[locked.config.kappa:] == want

    def test_bmc_signoff(self, pipeline):
        original, locked = pipeline
        assert bounded_equivalence(
            original, locked.netlist, depth=5,
            prefix_vectors=locked.key_vectors()).equivalent

    def test_fc_signoff_consistency(self, pipeline):
        """Three independent FC estimates agree: exhaustive enumeration,
        sampled simulation, and the closed-form count."""
        _, locked = pipeline
        exact = exhaustive_fc(locked, 2)
        sampled = simulate_fc(locked, 2, n_samples=800, seed=3)
        formula = fc_trilock_exact(locked.spec, 2)
        assert exact == pytest.approx(formula, abs=1e-12)
        assert sampled == pytest.approx(exact, abs=0.06)

    def test_cost_signoff(self, pipeline):
        _, locked = pipeline
        report = locking_overhead(locked)
        assert report.locked.area_um2 > report.original.area_um2
        assert report.original.delay_ns > 0


class TestAttackerPipeline:
    def test_sat_attack_recovers_key_theorem1(self, pipeline):
        _, locked = pipeline
        result = attack_locked_circuit(locked)
        assert result.success and result.verified
        assert result.key.as_int == locked.key.as_int
        assert result.n_dips == ndip_trilock(1, 4)

    def test_oracle_query_accounting(self, pipeline):
        _, locked = pipeline
        oracle = SimulationOracle(locked.original)
        baseline = oracle.query_count
        oracle.query([(False,) * 4])
        assert oracle.query_count == baseline + 1

    def test_removal_blocked_by_reencoding(self, pipeline):
        _, locked = pipeline
        report = scc_report(locked)
        assert report.pm_percent > 50
        attempt = attempt_removal(locked, SimulationOracle(locked.original))
        assert not attempt.success

    def test_recovered_key_actually_unlocks(self, pipeline):
        original, locked = pipeline
        result = attack_locked_circuit(locked)
        vectors = random_vectors(make_rng(2), 4, 8)
        want = SequentialSimulator(original).run_vectors(vectors)
        got = SequentialSimulator(locked.netlist).run_vectors(
            locked.stimulus_with_key(result.key, vectors))
        assert got[locked.config.kappa:] == want


class TestCrossSchemeComparison:
    def test_trilock_beats_baselines_on_both_axes(self):
        """The headline claim: TriLock keeps exponential ndip AND high FC
        while each baseline sacrifices one of the two."""
        from repro.core import lock_harpoon_like, lock_naive

        original = load_benchmark("s27")
        trilock = lock(original, TriLockConfig(
            kappa_s=1, kappa_f=1, alpha=0.9, seed=5))
        naive = lock_naive(original, kappa=1, seed=5)
        harpoon = lock_harpoon_like(original, kappa=1, seed=5)

        fc = {
            "trilock": simulate_fc(trilock, 2, n_samples=600, seed=1),
            "naive": simulate_fc(naive, 2, n_samples=600, seed=1),
            "harpoon": simulate_fc(harpoon, 2, n_samples=600, seed=1),
        }
        ndip = {
            "trilock": attack_locked_circuit(trilock).n_dips,
            "naive": attack_locked_circuit(naive).n_dips,
            "harpoon": attack_locked_circuit(harpoon, known_depth=1).n_dips,
        }
        # naive: resilient (2^4-1 DIPs) but corruptibility collapses.
        assert ndip["naive"] == 15 and fc["naive"] < 0.15
        # harpoon: corrupting but falls in O(1) DIPs.
        assert fc["harpoon"] > 0.5 and ndip["harpoon"] <= 2
        # trilock: both.
        assert ndip["trilock"] == 16 and fc["trilock"] > 0.5
