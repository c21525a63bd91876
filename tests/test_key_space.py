"""Tests for key-space elimination tracing (Theorem 1, quantitatively)."""

import pytest

from repro.attacks import SimulationOracle
from repro.attacks.key_space import key_space_trace
from repro.errors import AttackError

from tests.conftest import locked_factory


class TestTriLockElimination:
    def test_prefix_block_elimination(self):
        """Against E^SF each DIP kills one prefix block; the first also
        sweeps the EF columns."""
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        trace = key_space_trace(locked, SimulationOracle(locked.original))
        width = locked.width
        kappa = locked.config.kappa
        assert trace.initial_keys == 2 ** (kappa * width)
        assert trace.n_dips == 2 ** (1 * width)  # Theorem 1
        # Monotone, ending with exactly the correct key surviving.
        assert all(a >= b for a, b in
                   zip(trace.survivors, trace.survivors[1:]))
        assert trace.survivors[-1] == 1
        # First DIP eliminates far more than later ones (EF sweep).
        assert trace.eliminated_per_dip[0] > trace.eliminated_per_dip[-1]
        assert trace.survivors == [7, 5, 3, 1]

    def test_later_dips_kill_one_suffix_block_each(self):
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        trace = key_space_trace(locked, SimulationOracle(locked.original))
        width = locked.width
        # After the EF sweep, each DIP removes at most one prefix block
        # of size 2^{kappa_f * width}.
        block = 2 ** (locked.config.kappa_f * width)
        for eliminated in trace.eliminated_per_dip[1:]:
            assert 0 < eliminated <= block


class TestNaiveElimination:
    def test_one_key_per_dip(self):
        """Against E^N each DIP eliminates exactly one wrong key — the
        slope that makes Fig. 4(a)'s resilience expensive."""
        locked = locked_factory(kappa_s=2, kappa_f=0, alpha=0.0, seed=7)
        trace = key_space_trace(locked, SimulationOracle(locked.original))
        assert trace.n_dips == trace.initial_keys - 1
        assert all(e == 1 for e in trace.eliminated_per_dip)
        assert trace.survivors == list(range(15, 0, -1))


class TestGuards:
    def test_key_space_cap(self):
        from repro.bench.synth import generate_circuit
        from repro.core import TriLockConfig, lock

        wide = generate_circuit("wide", n_inputs=8, n_outputs=2,
                                n_flops=4, n_gates=30, seed=1)
        locked = lock(wide, TriLockConfig(kappa_s=1, kappa_f=1, alpha=0.5,
                                          seed=1))
        with pytest.raises(AttackError):
            key_space_trace(locked, SimulationOracle(locked.original))

    def test_max_dips_prefix(self):
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        trace = key_space_trace(locked, SimulationOracle(locked.original),
                                max_dips=2)
        assert trace.n_dips == 2
        assert trace.survivors == [7, 5]
