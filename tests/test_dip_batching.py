"""Differential and regression suite for the DIP engine's knobs.

Four claims are established here:

* *Differential*: for a grid of small locked benches (κs ∈ {1, 2}),
  batched-DIP attacks recover a key in the same equivalence class as
  the default attack — verified by a miter UNSAT check, not by
  comparing key bits (TriLock keys need not be unique on the attacked
  window).
* *Second search*: under :class:`~tests.conftest.PhaseTrueSolver`,
  which walks other DIPs than the default engine, a ``seq-sat`` cell
  still pins Theorem 1's DIP count and recovers the key.
* *Regression*: batched DIP extraction leaves the solver in a state
  equivalent to pinning the same DIPs one at a time (identical
  candidate-key feasible set), even when the batch limit exceeds the
  data-pattern space; and the attack-engine knobs are part of the
  campaign cache key (no stale hits), while Table I's cells share the
  keys of the equivalent matrix cells.
* *Serial identity*: ``dip_batch=1`` with the default solver walks
  the exact DIP sequence of the historical loop.

Run the whole file with ``make test-attacks``.
"""

import pytest

import repro.attacks.comb_sat as comb_sat
from repro.api import matrix_cell, matrix_cells
from repro.attacks import (
    DipEngine,
    SimulationOracle,
    attack_locked_circuit,
    comb_sat_attack,
    unrolled_attack_view,
)
from repro.core import ndip_trilock
from repro.errors import AttackError, SpecError
from repro.experiments import table1_sat_resilience
from repro.experiments.common import DEFAULT_SCALE
from repro.netlist import GateOp, Netlist
from repro.sat import Solver

from tests.conftest import PhaseTrueSolver, batch_oracle, locked_factory
from tests.util import reference_outputs

#: The two searches the differential grids run: the in-tree engine and
#: the same engine trying the opposite polarity first.
SEARCHES = {"cdcl": Solver, "phase-true": PhaseTrueSolver}


def and_pair_locked(width=2):
    """Comb lock with non-unique keys: ``y_i = x_i XOR (k_2i AND k_2i+1)``.

    Key pairs with equal AND values are functionally interchangeable, so
    the recovered key legitimately varies with the solver — exactly the
    situation the equivalence-class check must handle.
    """
    netlist = Netlist("andlock")
    xs = [netlist.add_input(f"x{i}") for i in range(width)]
    ks = [netlist.add_input(f"k{i}") for i in range(2 * width)]
    for i in range(width):
        netlist.add_gate(f"m{i}", GateOp.AND, (ks[2 * i], ks[2 * i + 1]))
        netlist.add_gate(f"y{i}", GateOp.XOR, (xs[i], f"m{i}"))
        netlist.add_output(f"y{i}")
    return netlist.validate(), xs, ks


def and_pair_oracle(netlist, xs, ks, secret):
    def oracle(data_bits):
        assignment = dict(zip(xs, data_bits))
        assignment.update(dict(zip(ks, secret)))
        return reference_outputs(netlist, assignment)

    return batch_oracle(oracle)


def assert_comb_keys_equivalent(netlist, key_inputs, key_a, key_b):
    """Miter-UNSAT proof that two comb keys are interchangeable.

    Pins ``key_a`` into miter copy *a* and ``key_b`` into copy *b*; a
    remaining SAT assignment of the activated miter would be a data
    pattern on which the keys disagree.
    """
    engine = DipEngine(netlist, key_inputs)
    assumptions = [engine.act]
    for mapping, key in ((engine.map_a, key_a), (engine.map_b, key_b)):
        for net, bit in key.items():
            var = engine.var_of[mapping[net]]
            assumptions.append(var if bit else -var)
    assert engine.solver.solve(assumptions=assumptions) is False, \
        "recovered keys are distinguishable (different equivalence class)"


def assert_seq_keys_equivalent(locked, key_a, key_b, depth):
    """Same proof over the unrolled attack window of a sequential lock."""
    view, key_inputs, _ = unrolled_attack_view(
        locked.netlist, locked.config.kappa, depth=depth)

    def as_dict(key):
        bits = [bit for vector in key.vectors for bit in vector]
        return dict(zip(key_inputs, bits))

    assert_comb_keys_equivalent(view, key_inputs,
                                as_dict(key_a), as_dict(key_b))


# ----------------------------------------------------------------------
# Differential grid: combinational locks with non-unique keys
# ----------------------------------------------------------------------
class TestCombDifferential:
    SECRET = (True, False, False, True)  # AND values: (False, False)

    def baseline(self):
        netlist, xs, ks = and_pair_locked()
        oracle = and_pair_oracle(netlist, xs, ks, self.SECRET)
        return netlist, ks, oracle, comb_sat_attack(netlist, ks, oracle)

    @pytest.mark.parametrize("dip_batch", [1, 2, 4])
    @pytest.mark.parametrize("solver", list(SEARCHES))
    def test_same_equivalence_class_as_baseline(self, dip_batch, solver):
        netlist, ks, oracle, base = self.baseline()
        assert base.success
        result = comb_sat_attack(netlist, ks, oracle, dip_batch=dip_batch,
                                 solver=SEARCHES[solver]())
        assert result.success
        assert_comb_keys_equivalent(netlist, ks, base.key, result.key)
        # Batching may pin extra patterns (it extracts before it learns)
        # but never loops more rounds than it pins DIPs.
        assert result.n_dips >= base.n_dips
        assert result.n_rounds <= result.n_dips


# ----------------------------------------------------------------------
# Differential grid: sequential TriLock benches (the paper's setting)
# ----------------------------------------------------------------------
class TestSequentialDifferential:
    @pytest.mark.parametrize("kappa_s", [1, 2])
    @pytest.mark.parametrize("dip_batch", [1, 2, 4])
    @pytest.mark.parametrize("solver", list(SEARCHES))
    def test_grid_matches_default_attack(self, kappa_s, dip_batch, solver,
                                         monkeypatch):
        locked = locked_factory(kappa_s=kappa_s, kappa_f=1, alpha=0.6,
                                seed=3)
        base = attack_locked_circuit(locked)
        monkeypatch.setattr(comb_sat, "Solver", SEARCHES[solver])
        result = attack_locked_circuit(locked, dip_batch=dip_batch)
        assert base.success and result.success
        assert result.verified
        # Theorem 1 makes every data pattern of the window a DIP, so the
        # engine variants must pin exactly the same number of them.
        assert result.n_dips == base.n_dips == ndip_trilock(
            kappa_s, locked.width)
        assert_seq_keys_equivalent(locked, base.key, result.key,
                                   depth=kappa_s)

    def test_defaults_leave_the_sequential_attack_exact(self):
        """Spelling the engine defaults explicitly changes nothing."""
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        base = attack_locked_circuit(locked)
        again = attack_locked_circuit(locked, dip_batch=1)
        assert base.key.as_int == again.key.as_int
        assert base.n_dips == again.n_dips
        assert base.dips_per_depth == again.dips_per_depth

    def test_each_depth_builds_its_own_backend(self, phase_true_search):
        """Iterative deepening hands every depth a fresh solver, and
        the second search still deepens to the key."""
        locked = locked_factory(kappa_s=2, kappa_f=1, alpha=0.6, seed=3)
        result = attack_locked_circuit(locked, known_depth=1)
        assert result.success
        assert len(phase_true_search) == len(result.depths_tried) >= 2


class TestAnotherSearch:
    """:class:`~tests.conftest.PhaseTrueSolver` is a second search, not
    the default one in disguise: it walks other DIPs, and Theorem 1
    still fixes how many."""

    def dips(self, solver):
        locked = locked_factory(kappa_s=2, kappa_f=1, alpha=0.6, seed=3)
        view, key_inputs, _ = unrolled_attack_view(
            locked.netlist, locked.config.kappa, depth=2)
        oracle = SimulationOracle(locked.original)
        result = comb_sat_attack(view, key_inputs, oracle.flat_window(2),
                                 collect_dips=True, solver=solver)
        assert result.success
        return result.dips

    def test_walks_other_dips_to_the_same_count(self):
        base = self.dips(Solver())
        other = self.dips(PhaseTrueSolver())
        assert len(base) == len(other) == ndip_trilock(2, 2) == 16
        assert all(a != b for a, b in zip(base[:5], other[:5]))
        assert sorted(base) == sorted(other)

    def test_seq_sat_cell_recovers_the_key(self, phase_true_search):
        """The registered ``seq-sat`` attack end to end under the
        second search: s27 (4 inputs) at κs=1 pins exactly 2^4 DIPs and
        recovers a correct key."""
        value = matrix_cell("s27", 0, "trilock?kappa_s=1", "seq-sat")
        assert phase_true_search
        assert value["success"]
        assert value["metrics"]["n_dips"] == ndip_trilock(1, 4) == 16
        assert value["metrics"]["key_ok"]


@pytest.mark.smoke
class TestSerialIdentity:
    """``dip_batch=1`` + the default solver retraces the historical DIP
    walk exactly, not merely an equivalent one."""

    def test_serial_dip_sequence_is_identical(self):
        netlist, xs, ks = and_pair_locked()
        oracle = and_pair_oracle(netlist, xs, ks,
                                 TestCombDifferential.SECRET)
        base = comb_sat_attack(netlist, ks, oracle, collect_dips=True)
        again = comb_sat_attack(netlist, ks, oracle, collect_dips=True,
                                dip_batch=1, solver=Solver())
        assert base.dips == again.dips
        assert base.key == again.key
        assert base.n_rounds == again.n_rounds == base.n_dips


# ----------------------------------------------------------------------
# Regression: batched pinning == one-at-a-time pinning
# ----------------------------------------------------------------------
@pytest.mark.smoke
class TestBatchedPinningEquivalence:
    def engines(self):
        netlist, xs, ks = and_pair_locked()
        oracle = and_pair_oracle(netlist, xs, ks,
                                 TestCombDifferential.SECRET)
        return netlist, ks, oracle

    def test_feasible_set_matches_sequential_pinning(self):
        netlist, ks, oracle = self.engines()
        batched = DipEngine(netlist, ks)
        batch = batched.find_dip_batch(3)
        assert 1 <= len(batch) <= 3
        pairs = list(zip(batch, oracle(batch)))
        for dip, response in pairs:
            batched.pin_response(dip, response)
        serial = DipEngine(netlist, ks)
        for dip, response in pairs:  # no blocking clauses
            serial.pin_response(dip, response)
        assert batched.feasible_keys() == serial.feasible_keys()

    def test_batch_limit_beyond_pattern_space(self):
        """A batch limit larger than the data space must not wedge key
        extraction (act-gated blocking keeps the store satisfiable)."""
        netlist = Netlist("andlock1")
        netlist.add_input("x0")
        netlist.add_input("k0")
        netlist.add_input("k1")
        netlist.add_gate("m", GateOp.AND, ("k0", "k1"))
        netlist.add_gate("y", GateOp.XOR, ("x0", "m"))
        netlist.add_output("y")
        netlist = netlist.validate()

        def oracle(data):
            return reference_outputs(
                netlist, {"x0": data[0], "k0": True, "k1": False})

        result = comb_sat_attack(netlist, ["k0", "k1"], batch_oracle(oracle),
                                 dip_batch=8)
        assert result.success
        assert result.n_dips == 2 and result.n_rounds == 1
        # Recovered key must be in the secret's equivalence class.
        assert (result.key["k0"] and result.key["k1"]) is False

    def test_batched_rounds_shrink(self):
        """On a point-function lock (one wrong key eliminated per DIP)
        batching compresses many serial miter rounds into one."""
        netlist = Netlist("pointlock")
        width = 2
        xs = [netlist.add_input(f"x{i}") for i in range(width)]
        ks = [netlist.add_input(f"k{i}") for i in range(width)]
        for i in range(width):
            netlist.add_gate(f"eq{i}", GateOp.XNOR, (xs[i], ks[i]))
        netlist.add_gate("y", GateOp.AND, tuple(f"eq{i}"
                                                for i in range(width)))
        netlist.add_output("y")
        netlist = netlist.validate()
        secret = (True, False)

        def oracle(data_bits):
            assignment = dict(zip(xs, data_bits))
            assignment.update(dict(zip(ks, secret)))
            return reference_outputs(netlist, assignment)

        ask = batch_oracle(oracle)
        serial = comb_sat_attack(netlist, ks, ask, dip_batch=1)
        batched = comb_sat_attack(netlist, ks, ask, dip_batch=4)
        assert serial.success and batched.success
        assert serial.n_rounds == serial.n_dips > 1
        assert batched.n_rounds < serial.n_rounds
        assert batched.n_dips >= serial.n_dips
        assert_comb_keys_equivalent(netlist, ks, serial.key, batched.key)

    def test_unknown_answer_is_an_error_not_unsat(self):
        """A solver that gives up (answers ``None``) must not read as
        'no DIP remains' — that would report success with a wrong key."""

        class GivesUp:
            def __init__(self):
                self._inner = Solver()

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def solve(self, assumptions=()):
                return None

        netlist, ks, oracle = self.engines()
        engine = DipEngine(netlist, ks, solver=GivesUp())
        with pytest.raises(AttackError):
            engine.find_dip_batch()
        with pytest.raises(AttackError):
            engine.solve_key()

    def test_bad_batch_limit_rejected(self):
        netlist, ks, oracle = self.engines()
        with pytest.raises(AttackError):
            comb_sat_attack(netlist, ks, oracle, dip_batch=0)
        engine = DipEngine(netlist, ks)
        with pytest.raises(AttackError):
            engine.find_dip_batch(0)


# ----------------------------------------------------------------------
# Regression: attack-engine knobs are part of the campaign cache key
# ----------------------------------------------------------------------
@pytest.mark.smoke
class TestCacheKeyKnobs:
    def first_key(self, **kwargs):
        specs = table1_sat_resilience.cells(scale=0.05, effort="quick",
                                            kappa_s_values=(1,), **kwargs)
        assert specs
        return specs[0].key()

    def test_each_knob_changes_the_key(self):
        base = self.first_key()
        assert self.first_key(dip_batch=4) != base
        assert self.first_key(dip_batch=1) == base

    def test_knob_cells_do_not_collide_pairwise(self):
        keys = {
            self.first_key(),
            self.first_key(dip_batch=2),
            self.first_key(dip_batch=4),
        }
        assert len(keys) == 3

    def test_unknown_solver_fails_eagerly(self):
        """A spec still naming a solver is rejected when the cell is
        built, before any attack runs: the attacks have one engine."""
        with pytest.raises(SpecError, match="solver"):
            matrix_cells(["s27"], ["trilock?kappa_s=1"],
                         ["seq-sat?solver=cdcl"])

    def test_table1_cells_share_the_matrix_keys(self):
        """Every attacked Table I cell is the plain ``seq-sat`` matrix
        cell of its circuit and scheme, so the two share cache entries."""
        pairs = table1_sat_resilience.measured_pairs("full")
        cells = table1_sat_resilience.cells(effort="full")
        assert len(pairs) == len(cells) == 3
        for (name, kappa_s), cell in zip(pairs, cells):
            (matrix,) = matrix_cells(
                [name], [f"trilock?kappa_s={kappa_s}&kappa_f=1&alpha=0.6"
                         f"&s_pairs=10"], ["seq-sat"], scale=DEFAULT_SCALE)
            assert cell.key() == matrix.key(), (name, kappa_s)
