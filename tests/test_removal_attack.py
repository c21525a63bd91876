"""Tests for the removal attack: SCC reports and strip-and-solve."""

import pytest

from repro.attacks import (
    SimulationOracle,
    attempt_removal,
    scc_report,
    separable_registers,
)

from tests.conftest import _locked_mid


@pytest.fixture(scope="module")
def plain():
    return _locked_mid(kappa_s=2, s_pairs=0, seed=5)


@pytest.fixture(scope="module")
def recoded():
    return _locked_mid(kappa_s=2, s_pairs=10, seed=5)


class TestSccReport:
    def test_unprotected_circuit_is_separable(self, plain):
        report = scc_report(plain)
        assert report.m_sccs == 0
        assert report.pm_percent == 0.0
        assert report.o_sccs > 0
        assert report.e_sccs > 0

    def test_reencoded_circuit_is_mixed(self, recoded):
        report = scc_report(recoded)
        assert report.m_sccs >= 1
        assert report.pm_percent > 80.0
        assert report.e_sccs == 0

    def test_pm_accounting(self, recoded):
        report = scc_report(recoded)
        assert report.registers_in_m <= report.total_registers
        assert report.pm_percent == pytest.approx(
            100.0 * report.registers_in_m / report.total_registers)

    def test_include_trivial_counts_more_components(self, plain):
        cyclic = scc_report(plain)
        trivial = scc_report(plain, include_trivial=True)
        total_cyclic = cyclic.o_sccs + cyclic.e_sccs + cyclic.m_sccs
        total_trivial = trivial.o_sccs + trivial.e_sccs + trivial.m_sccs
        assert total_trivial > total_cyclic

    def test_row_format(self, plain):
        row = scc_report(plain).as_row()
        assert set(row) == {"O", "E", "M", "PM"}


class TestSeparability:
    def test_lock_registers_are_separable_without_reencoding(self, plain):
        # Under at least one anchor choice, the separable set is a clean
        # subset of the lock registers (and non-empty): the attacker can
        # cut the lock's controller without touching the original core.
        extras = set(plain.extra_registers)
        clean_hits = []
        for rank in range(3):
            suspects = set(separable_registers(plain.netlist,
                                               anchor_rank=rank))
            if suspects and suspects <= extras:
                clean_hits.append(suspects)
        assert clean_hits

    def test_reencoding_hides_lock_registers(self, plain, recoded):
        def best_strippable(locked):
            extras = set(locked.extra_registers) | \
                set(locked.encoded_registers)
            best = 0
            for rank in range(3):
                suspects = set(separable_registers(locked.netlist,
                                                   anchor_rank=rank))
                if suspects <= extras:
                    best = max(best, len(suspects))
            return best

        assert best_strippable(plain) > 0
        assert best_strippable(recoded) <= 2  # stragglers at most


class TestAttemptRemoval:
    def test_unlocks_unprotected_circuit(self, plain):
        attempt = attempt_removal(plain, SimulationOracle(plain.original))
        assert attempt.success
        assert attempt.verified
        # Everything stripped is lock circuitry; the phase controller
        # (which gates the stall and all sticky flags) must be among it.
        stripped = set(attempt.stripped_registers)
        assert stripped
        assert stripped <= set(plain.extra_registers)
        started = [q for q in attempt.tie_values if "started" in q]
        assert started and attempt.tie_values[started[0]] is True

    def test_fails_on_reencoded_circuit(self, recoded):
        attempt = attempt_removal(recoded, SimulationOracle(recoded.original))
        assert not attempt.success

    def test_dip_cost_is_trivial_when_separable(self, plain):
        attempt = attempt_removal(plain, SimulationOracle(plain.original))
        # Removal reduces the scheme to constant-solving: a few DIPs.
        assert attempt.n_dips <= 8
