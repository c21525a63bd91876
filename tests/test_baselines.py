"""Tests for the baseline lockers and their (in)security properties."""

import pytest

from repro.attacks import (
    SimulationOracle,
    attack_locked_circuit,
    attempt_removal,
    scc_report,
    separable_registers,
)
from repro.core import ndip_naive
from repro.core.baselines import (
    lock_harpoon_like,
    lock_naive,
    lock_sink_cluster,
)
from repro.errors import LockingError
from repro.sim import SequentialSimulator, make_rng, random_vectors

from tests.conftest import _tiny_circuit, _mid_circuit


def replay_check(locked):
    """Correct key must replay the original trace after the key window."""
    rng = make_rng(123)
    kappa = locked.key.cycles
    vectors = random_vectors(rng, locked.width, 7)
    want = SequentialSimulator(locked.original).run_vectors(vectors)
    got = SequentialSimulator(locked.netlist).run_vectors(
        locked.stimulus_with_key(locked.key, vectors))
    return got[kappa:] == want


class TestNaive:
    def test_preserves_function(self):
        locked = lock_naive(_tiny_circuit(), kappa=2, seed=1)
        assert replay_check(locked)

    def test_exponential_but_fragile(self):
        locked = lock_naive(_tiny_circuit(), kappa=2, seed=1)
        result = attack_locked_circuit(locked)
        assert result.success
        assert result.n_dips == ndip_naive(2, locked.width)


class TestHarpoonLike:
    def test_preserves_function(self):
        locked = lock_harpoon_like(_tiny_circuit(), kappa=3, seed=2)
        assert replay_check(locked)

    def test_wrong_key_errors_immediately(self):
        """The early-output-error weakness: any wrong key corrupts the
        first post-key cycle, so b* = 1 and SAT attacks are cheap."""
        locked = lock_harpoon_like(_tiny_circuit(), kappa=2, seed=2)
        rng = make_rng(3)
        kappa = locked.key.cycles
        wrong_key_vectors = [
            tuple(not b for b in vec) for vec in locked.key.vectors
        ]
        vectors = random_vectors(rng, locked.width, 4)
        got = SequentialSimulator(locked.netlist).run_vectors(
            wrong_key_vectors + vectors)[kappa:]
        want = SequentialSimulator(locked.original).run_vectors(vectors)
        assert got[0] != want[0]

    def test_falls_to_shallow_sat_attack(self):
        locked = lock_harpoon_like(_tiny_circuit(), kappa=2, seed=2)
        result = attack_locked_circuit(locked, known_depth=1)
        assert result.success
        assert result.key.as_int == locked.key.as_int
        # One DIP kills every wrong key at once: minimal resilience.
        assert result.n_dips <= 2

    def test_falls_to_removal(self):
        locked = lock_harpoon_like(_mid_circuit(), kappa=2, seed=2)
        attempt = attempt_removal(locked, SimulationOracle(locked.original))
        assert attempt.success


class TestSinkCluster:
    def test_preserves_function(self):
        locked = lock_sink_cluster(_tiny_circuit(), kappa=2, seed=4)
        assert replay_check(locked)

    def test_wrong_key_corrupts_persistently(self):
        locked = lock_sink_cluster(_tiny_circuit(), kappa=2, sink_size=4,
                                   seed=4)
        kappa = locked.key.cycles
        wrong_key_vectors = [
            tuple(not b for b in vec) for vec in locked.key.vectors
        ]
        vectors = random_vectors(make_rng(5), locked.width, 10)
        got = SequentialSimulator(locked.netlist).run_vectors(
            wrong_key_vectors + vectors)[kappa:]
        want = SequentialSimulator(locked.original).run_vectors(vectors)
        differing = sum(1 for g, w in zip(got, want) if g != w)
        assert differing >= len(vectors) // 2  # corrupts most cycles

    def test_sink_ring_is_pure_e_scc(self):
        """Section II-C: the sink cluster is one all-extra SCC — the
        signature the removal attack keys on."""
        locked = lock_sink_cluster(_mid_circuit(), kappa=2, sink_size=5,
                                   seed=4)
        report = scc_report(locked)
        assert report.e_sccs >= 1
        ring_regs = {q for q in locked.extra_registers if "ring" in q}
        sizes = dict(report.components)
        assert ("E", len(ring_regs)) in report.components or \
            any(kind == "E" and size >= len(ring_regs)
                for kind, size in report.components), (report.components,
                                                       sizes)

    def test_separable_and_removable(self):
        locked = lock_sink_cluster(_mid_circuit(), kappa=2, sink_size=5,
                                   seed=4)
        suspects = set()
        for rank in range(3):
            suspects |= set(separable_registers(locked.netlist,
                                                anchor_rank=rank))
        ring_regs = {q for q in locked.extra_registers if "ring" in q}
        assert ring_regs & suspects or attempt_removal(
            locked, SimulationOracle(locked.original)).success

    def test_sink_size_validation(self):
        with pytest.raises(LockingError):
            lock_sink_cluster(_tiny_circuit(), sink_size=1)
