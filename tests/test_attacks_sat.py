"""Tests for the SAT attacks: COMB-SAT on combinational locks and the
sequential attack on TriLock, including exact Theorem-1 DIP counts."""

import io
import time

import pytest

from repro.attacks import (
    SimulationOracle,
    attack_locked_circuit,
    comb_sat_attack,
    estimate_min_unroll_depth,
    sequential_sat_attack,
    unrolled_attack_view,
)
from repro.core import TriLockConfig, lock, naive_config, ndip_naive, ndip_trilock
from repro.netlist import GateOp, Netlist
from repro.errors import AttackError

from tests.conftest import _tiny_circuit, locked_factory
from tests.util import reference_outputs


def xor_locked_comb(width=3):
    """Classic XOR-key combinational lock: y_i = x_i XOR k_i XOR x_{i+1}."""
    netlist = Netlist("xorlock")
    xs = [netlist.add_input(f"x{k}") for k in range(width)]
    ks = [netlist.add_input(f"k{k}") for k in range(width)]
    for k in range(width):
        netlist.add_gate(f"m{k}", GateOp.XOR, (xs[k], ks[k]))
        netlist.add_gate(f"y{k}", GateOp.XOR, (f"m{k}", xs[(k + 1) % width]))
        netlist.add_output(f"y{k}")
    return netlist.validate(), xs, ks


class TestCombSat:
    def test_recovers_xor_key(self):
        netlist, xs, ks = xor_locked_comb()
        secret = (True, False, True)

        def oracle(data_bits):
            assignment = dict(zip(xs, data_bits))
            assignment.update(dict(zip(ks, secret)))
            return reference_outputs(netlist, assignment)

        result = comb_sat_attack(netlist, ks, oracle)
        assert result.success
        # XOR locking: key is uniquely determined.
        assert tuple(result.key[k] for k in ks) == secret
        assert result.n_dips >= 1

    def test_max_dips_cap(self):
        netlist, xs, ks = xor_locked_comb()

        def oracle(data_bits):
            assignment = dict(zip(xs, data_bits))
            assignment.update(dict.fromkeys(ks, False))
            return reference_outputs(netlist, assignment)

        result = comb_sat_attack(netlist, ks, oracle, max_dips=0)
        assert not result.success
        assert result.stop_reason == "max_dips"

    def test_unknown_key_net_rejected(self):
        netlist, _, _ = xor_locked_comb()
        with pytest.raises(AttackError):
            comb_sat_attack(netlist, ["ghost"], lambda d: ())

    def test_collect_dips(self):
        netlist, xs, ks = xor_locked_comb(2)

        def oracle(data_bits):
            assignment = dict(zip(xs, data_bits))
            assignment.update(dict.fromkeys(ks, True))
            return reference_outputs(netlist, assignment)

        result = comb_sat_attack(netlist, ks, oracle, collect_dips=True)
        assert result.success
        assert len(result.dips) == result.n_dips


class TestUnrolledView:
    def test_view_shape(self, locked_tiny):
        kappa = locked_tiny.config.kappa
        view, key_inputs, data_inputs = unrolled_attack_view(
            locked_tiny.netlist, kappa, depth=2)
        width = locked_tiny.width
        assert len(key_inputs) == kappa * width
        assert len(data_inputs) == 2 * width
        assert len(view.outputs) == 2 * len(locked_tiny.original.outputs)

    def test_bad_depth(self, locked_tiny):
        with pytest.raises(AttackError):
            unrolled_attack_view(locked_tiny.netlist, 3, depth=0)


class TestSequentialAttack:
    @pytest.mark.parametrize("kappa_s,expected", [(1, 4), (2, 16)])
    def test_theorem1_exact_dip_count(self, kappa_s, expected):
        """``ndip == 2^{κs·|I|}`` exactly — Theorem 1 plus Eq. 10."""
        locked = locked_factory(kappa_s=kappa_s, kappa_f=1, alpha=0.6,
                                seed=3)
        result = attack_locked_circuit(locked)
        assert result.success and result.verified
        assert result.key.as_int == locked.key.as_int
        assert result.n_dips == expected == ndip_trilock(
            kappa_s, locked.width)

    def test_naive_lock_dip_count(self):
        """``E^N``: one DIP per wrong key (Eq. 6)."""
        locked = locked_factory(kappa_s=2, kappa_f=0, alpha=0.0, seed=7)
        result = attack_locked_circuit(locked)
        assert result.success
        assert result.key.as_int == locked.key.as_int
        assert result.n_dips == ndip_naive(2, locked.width)

    def test_iterative_deepening_mode(self):
        deepened = 0
        for seed in (4, 5, 6):
            locked = locked_factory(kappa_s=2, kappa_f=1, alpha=0.6,
                                    seed=seed)
            result = attack_locked_circuit(locked, known_depth=None)
            assert result.success
            assert result.key.as_int == locked.key.as_int
            assert result.depths_tried[0] == 1
            assert result.depths_tried[-1] <= locked.config.kappa_s
            if result.depths_tried[-1] == locked.config.kappa_s:
                # Full run: Theorem 1 bounds the total from below.
                assert result.n_dips >= ndip_trilock(2, locked.width)
                deepened += 1
        # A lucky depth-1 candidate (key space is tiny here) may finish
        # early, but deepening must be exercised at least once.
        assert deepened >= 1

    def test_dip_budget_stops_attack(self):
        locked = locked_factory(kappa_s=2, kappa_f=1, alpha=0.6, seed=3)
        result = attack_locked_circuit(locked, max_dips=3)
        assert not result.success
        assert result.stop_reason == "max_dips"
        assert result.n_dips == 3

    def test_alpha_does_not_change_dip_count(self):
        """The decoupling claim: FC knob alpha leaves ndip untouched."""
        counts = set()
        for alpha in (0.0, 0.6, 1.0):
            locked = locked_factory(kappa_s=1, kappa_f=1, alpha=alpha,
                                    seed=12)
            result = attack_locked_circuit(locked)
            assert result.success
            counts.add(result.n_dips)
        assert counts == {ndip_trilock(1, 2)}

    def test_reencoding_does_not_change_dip_count(self):
        from tests.conftest import _mid_circuit, _locked_mid

        plain = _locked_mid(kappa_s=1, s_pairs=0, seed=5)
        recoded = _locked_mid(kappa_s=1, s_pairs=6, seed=5)
        plain_result = attack_locked_circuit(plain)
        recoded_result = attack_locked_circuit(recoded)
        assert plain_result.success and recoded_result.success
        assert plain_result.n_dips == recoded_result.n_dips == \
            ndip_trilock(1, plain.width)

    def test_oracle_query_counting(self):
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        oracle = SimulationOracle(locked.original)
        result = sequential_sat_attack(
            locked.netlist, locked.config.kappa, oracle,
            known_depth=1, reference=locked.original)
        assert result.success
        assert result.oracle_queries >= result.n_dips


class TestVerifyTiming:
    """Reference-mode key verification is a BMC check, booked as
    ``verify_seconds``; black-box verification stays oracle time."""

    DELAY = 0.5

    @pytest.fixture
    def slow_bmc(self, monkeypatch):
        import repro.attacks.seq_sat as seq_sat

        real = seq_sat.bounded_equivalence

        def slow(*args, **kwargs):
            time.sleep(self.DELAY)
            return real(*args, **kwargs)

        monkeypatch.setattr(seq_sat, "bounded_equivalence", slow)

    def test_bmc_is_verify_time_not_oracle_time(self, slow_bmc):
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        result = sequential_sat_attack(
            locked.netlist, locked.config.kappa,
            SimulationOracle(locked.original), known_depth=1,
            reference=locked.original)
        assert result.success
        assert result.verify_seconds >= self.DELAY
        assert result.oracle_seconds < self.DELAY

    def test_black_box_verification_is_oracle_time(self, monkeypatch):
        import repro.attacks.seq_sat as seq_sat

        real = seq_sat._verify_candidate

        def slow(*args, **kwargs):
            time.sleep(self.DELAY)
            return real(*args, **kwargs)

        monkeypatch.setattr(seq_sat, "_verify_candidate", slow)
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        result = sequential_sat_attack(
            locked.netlist, locked.config.kappa,
            SimulationOracle(locked.original), known_depth=1)
        assert result.success
        assert result.verify_seconds == 0.0
        assert result.oracle_seconds >= self.DELAY

    def test_cell_timing_and_cli_phases_show_verify(self, slow_bmc,
                                                    tmp_path):
        from repro.api import ATTACKS
        from repro.bench.iscas import S27_BENCH
        from repro.cli import main

        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        outcome = ATTACKS.get("seq-sat").run(locked)
        assert outcome.timing["verify_seconds"] >= self.DELAY
        assert outcome.timing["oracle_seconds"] < self.DELAY

        design = tmp_path / "s27.bench"
        design.write_text(S27_BENCH)
        locked_path = str(tmp_path / "locked.bench")
        key_path = str(tmp_path / "s27.key")
        main(["lock", str(design), "--kappa-s", "1", "--seed", "3",
              "--out", locked_path, "--key-out", key_path], out=io.StringIO())
        out = io.StringIO()
        assert main(["attack", str(design), locked_path,
                     "--key", key_path], out=out) == 0
        phases = out.getvalue().splitlines()[-1]
        assert phases.startswith("phases: ")
        verify = float(phases.split("verify ")[1].rstrip("s"))
        assert verify >= self.DELAY


class TestDepthEstimation:
    def test_trilock_with_ef_detected_at_depth_one(self, locked_tiny):
        depth = estimate_min_unroll_depth(
            locked_tiny.netlist, locked_tiny.config.kappa,
            reference=locked_tiny.original, seed=1)
        assert depth == 1  # EF errors are visible immediately

    def test_point_function_needs_more_depth_than_ef(self):
        """E^N's tiny FC makes FC-guided estimation work much harder than
        against EF columns (the trade-off the paper describes)."""
        ef_locked = locked_factory(kappa_s=2, kappa_f=1, alpha=0.6, seed=3)
        en_locked = locked_factory(kappa_s=2, kappa_f=0, alpha=0.0, seed=8)
        ef_depth = estimate_min_unroll_depth(
            ef_locked.netlist, ef_locked.config.kappa, max_depth=3,
            n_samples=32, reference=ef_locked.original, seed=1)
        en_depth = estimate_min_unroll_depth(
            en_locked.netlist, en_locked.config.kappa, max_depth=3,
            n_samples=32, reference=en_locked.original, seed=1)
        assert ef_depth == 1
        assert en_depth > ef_depth

    def test_requires_reference(self, locked_tiny):
        with pytest.raises(AttackError):
            estimate_min_unroll_depth(
                locked_tiny.netlist, locked_tiny.config.kappa)
