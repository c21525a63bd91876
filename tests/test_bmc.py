"""Tests for bounded equivalence checking."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES, load_circuit
from repro.attacks import bmc
from repro.attacks.bmc import bounded_equivalence
from repro.attacks.seq_sat import attack_locked_circuit
from repro.cnf import encode, miter_different_outputs
from repro.core import TriLockConfig, lock
from repro.core.keys import KeySequence
from repro.core.reencode import CODEC_VARIANTS
from repro.errors import AttackError
from repro.netlist import GateOp, Netlist, merged
from repro.netlist.builder import CutBuilder
from repro.netlist.transform import InputSpecializer
from repro.sat import Solver
from repro.sim import SequentialSimulator
from repro.bench.iscas import load_embedded
from repro.unroll import unroll

from tests.conftest import locked_factory
from tests.util import random_seq_netlist


def broken_copy(netlist, victim_output_index=0):
    """Copy with one output inverted (a guaranteed inequivalence)."""
    dup = netlist.copy(name=netlist.name + "_broken")
    victim = dup.outputs[victim_output_index]
    outputs = list(dup.outputs)
    inverted = "broken_inv"
    dup.add_gate(inverted, GateOp.NOT, (victim,))
    outputs[victim_output_index] = inverted
    dup._outputs = outputs  # test-only surgery
    return dup


def locked_copy(netlist, seed):
    """A toy lock of ``netlist``: 1-3 extra flops, each loading an AND or
    OR of itself and random nets, so a prefix may latch it; the first is
    ANDed into an output, and sometimes one gates a shared flop's next
    state."""
    rng = random.Random(seed)
    dut = netlist.copy(name=netlist.name + "_locked")
    shared = list(dut.flops)
    extras = [f"x{index}" for index in range(rng.randint(1, 3))]
    pool = [*dut.inputs, *shared, *extras]
    for q in extras:
        d = dut.add_gate(q + "_d", rng.choice((GateOp.AND, GateOp.OR)),
                         [q, *rng.choices(pool, k=rng.randint(1, 2))])
        dut.add_flop(q, d, init=rng.random() < 0.5)
    position = rng.randrange(len(dut.outputs))
    dut.set_output(position, dut.add_gate(
        "x_out", GateOp.AND, (dut.outputs[position], extras[0])))
    if rng.random() < 0.5:
        q = rng.choice(shared)
        dut.replace_flop_d(q, dut.add_gate(
            "x_gate", rng.choice((GateOp.AND, GateOp.OR)),
            (dut.flop(q).d, rng.choice(extras))))
    return dut.validate()


class TestEquivalentPairs:
    @pytest.mark.parametrize("seed", range(4))
    def test_self_equivalence(self, seed):
        netlist = random_seq_netlist(seed)
        result = bounded_equivalence(netlist, netlist.copy(), depth=4)
        assert result.equivalent
        assert result.counterexample is None

    def test_s27_self_equivalence(self):
        netlist = load_embedded("s27")
        assert bounded_equivalence(netlist, netlist.copy(), depth=6)


class TestInequivalentPairs:
    @pytest.mark.parametrize("seed", range(4))
    def test_broken_output_found_with_witness(self, seed):
        netlist = random_seq_netlist(seed)
        corrupted = broken_copy(netlist)
        result = bounded_equivalence(netlist, corrupted, depth=3)
        assert not result.equivalent
        # The counterexample must actually distinguish the two circuits.
        ref_trace = SequentialSimulator(netlist).run_vectors(result.counterexample)
        dut_trace = SequentialSimulator(corrupted).run_vectors(result.counterexample)
        assert ref_trace != dut_trace


class TestPrefixVectors:
    def test_prefix_shifts_comparison_window(self):
        # dut = same circuit, but with a one-flop "armed" delay: output is
        # forced low until the first cycle has passed. With a 1-cycle
        # prefix the comparison window sees identical behaviour only if
        # the prefix leaves the state at reset; build exactly that.
        reference = Netlist("ref")
        reference.add_input("a")
        reference.add_flop("q", "d")
        reference.add_gate("d", GateOp.XOR, ("q", "a"))
        reference.add_output("q")

        dut = Netlist("dut")
        dut.add_input("a")
        dut.add_flop("q", "d")
        dut.add_flop("armed", "one")
        dut.add_gate("one", GateOp.CONST1, ())
        # During the (single) prefix cycle 'armed' is 0 and the state
        # update is squashed; afterwards it behaves like the reference.
        dut.add_gate("toggle", GateOp.XOR, ("q", "a"))
        dut.add_gate("d", GateOp.AND, ("toggle", "armed_or_not",))
        dut.add_gate("armed_or_not", GateOp.BUF, ("armed",))
        dut.add_output("q")

        # Wrong prefix claim: without the prefix they differ...
        result_aligned = bounded_equivalence(reference, dut, depth=3)
        assert not result_aligned.equivalent
        # ...with a 1-cycle prefix (any input value) they match.
        result_offset = bounded_equivalence(
            reference, dut, depth=3, prefix_vectors=[(True,)])
        assert result_offset.equivalent

    def test_bad_prefix_width(self):
        netlist = random_seq_netlist(0)
        with pytest.raises(AttackError, match="width"):
            bounded_equivalence(netlist, netlist.copy(), depth=2,
                                prefix_vectors=[(True,) * 99])


class TestValidation:
    def test_interface_mismatch(self):
        a = random_seq_netlist(0)
        b = random_seq_netlist(1, n_inputs=4)
        with pytest.raises(AttackError):
            bounded_equivalence(a, b, depth=2)

    def test_depth_check(self):
        netlist = random_seq_netlist(0)
        with pytest.raises(AttackError):
            bounded_equivalence(netlist, netlist.copy(), depth=0)


# ----------------------------------------------------------------------
# Differential check against the whole-product encoding the folded
# checker replaced: unroll both circuits separately, merge them, encode
# everything, pin the prefix with unit clauses and solve once, cold.
# ----------------------------------------------------------------------
def whole_product_bmc(reference, dut, depth, prefix_vectors=()):
    """Returns ``(equivalent, counterexample)``."""
    offset = len(prefix_vectors)
    dut_u = unroll(dut, offset + depth, name="bmc_dut")
    ref_u = unroll(reference, depth, name="bmc_ref")
    mapping = {ref_u.input_net(net, cycle): dut_u.input_net(net, offset + cycle)
               for cycle in range(depth) for net in reference.inputs}
    for net in ref_u.netlist.nets():
        mapping.setdefault(net, "ref_" + net)
    problem = merged(dut_u.netlist.copy(), ref_u.netlist.renamed(mapping))
    circuit = encode(problem)
    miter_different_outputs(
        circuit,
        [net for c in range(depth) for net in dut_u.outputs_at(offset + c)],
        [mapping[net] for net in ref_u.all_outputs()])
    units = [[circuit.lit(dut_u.input_net(net, cycle), bool(bit))]
             for cycle, vector in enumerate(prefix_vectors)
             for net, bit in zip(dut.inputs, vector)]
    solver = Solver()
    if not solver.add_cnf(circuit.cnf) \
            or not all(solver.add_clause(unit) for unit in units) \
            or not solver.solve():
        return True, None
    return False, [tuple(solver.model_value(circuit.var_of[net])
                         for net in dut_u.inputs_at(offset + cycle))
                   for cycle in range(depth)]


def assert_diverges(reference, dut, prefix_vectors, counterexample):
    dut_trace = SequentialSimulator(dut).run_vectors(
        list(prefix_vectors) + counterexample)
    ref_trace = SequentialSimulator(reference).run_vectors(counterexample)
    assert dut_trace[len(prefix_vectors):] != ref_trace


def assert_agrees_with_whole_product(reference, dut, depth, prefix_vectors,
                                     solver=None):
    folded = bounded_equivalence(reference, dut, depth=depth,
                                 prefix_vectors=prefix_vectors, solver=solver)
    equivalent, witness = whole_product_bmc(reference, dut, depth,
                                            prefix_vectors)
    assert folded.equivalent == equivalent
    for counterexample in (folded.counterexample, witness):
        if counterexample is not None:
            assert len(counterexample) == depth
            assert_diverges(reference, dut, prefix_vectors, counterexample)
    return folded


class SpySolver:
    """A real solver that counts its ``solve`` calls."""

    def __init__(self):
        self._inner = Solver()
        self.solve_calls = 0

    def solve(self, *args, **kwargs):
        self.solve_calls += 1
        return self._inner.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestFoldedMatchesWholeProduct:
    @given(seed=st.integers(0, 10_000),
           variant=st.sampled_from(["self", "broken", "other", "locked"]),
           depth=st.integers(1, 4),
           prefix=st.lists(st.tuples(st.booleans(), st.booleans(),
                                     st.booleans()), max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_random_circuits(self, seed, variant, depth, prefix):
        """``locked`` duts are toy locks, whose extra flops the induction
        step holds at the constants a prefix latched, or frees when they
        move."""
        reference = random_seq_netlist(seed)
        dut = {"self": reference.copy,
               "broken": lambda: broken_copy(reference),
               "other": lambda: random_seq_netlist(seed + 1),
               "locked": lambda: locked_copy(reference, seed)}[variant]()
        assert_agrees_with_whole_product(reference, dut, depth, prefix)

    @pytest.mark.parametrize("s_pairs", [0, 4])
    @pytest.mark.parametrize("kappa_s", [1, 2])
    def test_trilock_correct_and_flipped_keys(self, kappa_s, s_pairs):
        locked = locked_factory(kappa_s=kappa_s, s_pairs=s_pairs, seed=3)
        kappa, width = locked.config.kappa, locked.width
        depth = kappa + kappa_s + 4
        keys = [locked.key.as_int] + [locked.key.as_int ^ (1 << flip)
                                      for flip in range(kappa * width)]
        verdicts = []
        for key in keys:
            prefix = list(KeySequence.from_int(key, kappa, width).vectors)
            verdicts.append(assert_agrees_with_whole_product(
                locked.original, locked.netlist, depth, prefix).equivalent)
        assert verdicts[0]
        assert not all(verdicts[1:])

    def test_correct_key_proved_without_a_solve(self):
        locked = locked_factory(kappa_s=2, s_pairs=0, seed=3)
        spy = SpySolver()
        result = assert_agrees_with_whole_product(
            locked.original, locked.netlist, locked.config.kappa + 6,
            locked.key_vectors(), solver=spy)
        assert result.equivalent
        assert spy.solve_calls == 0

    def test_wrong_key_solves_only_the_residual(self):
        locked = locked_factory(kappa_s=2, s_pairs=0, seed=3)
        kappa, width = locked.config.kappa, locked.width
        wrong = KeySequence.from_int(locked.key.as_int ^ 1, kappa, width)
        spy = SpySolver()
        result = assert_agrees_with_whole_product(
            locked.original, locked.netlist, kappa + 6,
            list(wrong.vectors), solver=spy)
        assert not result.equivalent
        assert spy.solve_calls == 1


# ----------------------------------------------------------------------
# Induction: S=0 correct keys proved in one symbolic cycle
# ----------------------------------------------------------------------
class TestInductiveProof:
    def test_bmc_verify_lock_in_five_folds(self, monkeypatch):
        """The benchmark's bmc-verify lock under its correct key, at
        seq-sat's first check depth: the 2-cycle key prefix, one cycle
        of the reference and two of the lock (the first frees the lock
        registers that move), where the window fold took 2 + 7 + 7."""
        circuit = load_circuit("synth?gates=3000&ffs=24&pis=6&pos=4&seed=0")
        locked = SCHEMES.get("trilock").lock(circuit, seed=0, kappa_s=1,
                                             kappa_f=1, alpha=0.6)
        folds = []
        fold = InputSpecializer.fold

        def counted(self, builder, mapping):
            folds.append(self)
            fold(self, builder, mapping)

        monkeypatch.setattr(InputSpecializer, "fold", counted)
        solver = SpySolver()
        result = bounded_equivalence(locked.original, locked.netlist, 7,
                                     prefix_vectors=locked.key_vectors(),
                                     solver=solver)
        assert result.equivalent and result.counterexample is None
        assert len(folds) == 5
        assert solver.solve_calls == 0

    def test_fallback_builds_the_same_problem(self, monkeypatch):
        """Wrong keys fail the step, which leaves the problem netlist
        exactly as a check without the step builds it."""
        locked = locked_factory(kappa_s=2, s_pairs=0, seed=3)
        kappa, width = locked.config.kappa, locked.width
        problems = []
        sweep = bmc.sweep_dead_gates

        def recorded(netlist):
            problems.append((netlist.inputs, list(netlist.gates.items()),
                             netlist.outputs))
            return sweep(netlist)

        def check(prefix):
            problems.clear()
            result = bounded_equivalence(locked.original, locked.netlist,
                                         kappa + 6, prefix_vectors=prefix)
            return result.equivalent, result.counterexample, problems[:]

        monkeypatch.setattr(bmc, "sweep_dead_gates", recorded)
        prefixes = [list(KeySequence.from_int(locked.key.as_int ^ 1 << flip,
                                              kappa, width).vectors)
                    for flip in range(kappa * width)]
        with_step = [check(prefix) for prefix in prefixes]
        monkeypatch.setattr(bmc, "_proved_by_induction", lambda *args: False)
        assert with_step == [check(prefix) for prefix in prefixes]
        assert all(problems for _, _, problems in with_step)


# ----------------------------------------------------------------------
# Cut hashing: re-encoded (S > 0) correct keys proved without a solver
# ----------------------------------------------------------------------
#: Host -> (circuit factory, S); s27's three registers hold one pair.
REENCODED_HOSTS = {
    "s27": (lambda: load_embedded("s27"), 1),
    "b12": (lambda: load_circuit("suite:b12?scale=0.08&seed=0"), 10),
    "synth120": (lambda: load_circuit(
        "synth?gates=120&ffs=8&pis=4&pos=3&seed=0"), 2),
}
CODEC_CHOICES = [("sum_diff",), ("diff_sum",), ("onehot3",), CODEC_VARIANTS]


@functools.lru_cache(maxsize=None)
def reencoded_lock(host, codecs, seed):
    factory, s_pairs = REENCODED_HOSTS[host]
    locked = lock(factory(), TriLockConfig(
        kappa_s=1, kappa_f=1, alpha=0.6, s_pairs=s_pairs,
        codec_variants=codecs, seed=seed))
    assert locked.reencoded_pairs
    return locked


def check_depth(locked):
    """seq-sat's first check depth: b* + kappa + 4."""
    return locked.config.kappa_s + locked.config.kappa + 4


def structural_only(monkeypatch):
    """Skip the cut step: every structurally differing pair goes to the
    solver, as before the step existed."""
    monkeypatch.setattr(bmc, "_cut_residue", lambda residual, pairs: pairs)


class TestCutProofs:
    @pytest.mark.parametrize("host", sorted(REENCODED_HOSTS))
    @pytest.mark.parametrize("codecs", CODEC_CHOICES,
                             ids=["sum_diff", "diff_sum", "onehot3", "cycled"])
    def test_correct_key_needs_no_solver(self, codecs, host, monkeypatch):
        """Over three lock seeds: no solve, and the cuts meet every pair
        that structural hashing leaves (some seeds leave none)."""
        residues = []
        residue = bmc._cut_residue

        def spy(residual, pairs):
            left = residue(residual, pairs)
            residues.append((len(pairs), len(left)))
            return left

        monkeypatch.setattr(bmc, "_cut_residue", spy)
        for seed in range(3):
            locked = reencoded_lock(host, codecs, seed)
            solver = SpySolver()
            result = bounded_equivalence(
                locked.original, locked.netlist, check_depth(locked),
                prefix_vectors=locked.key_vectors(), solver=solver)
            assert result.equivalent and result.counterexample is None
            assert result.solver_stats["solve_calls"] == 0
            assert solver.solve_calls == 0
        assert residues and all(pairs > 0 and left == 0
                                for pairs, left in residues)

    def test_b12_kappa_s_2_at_s30(self):
        locked = lock(REENCODED_HOSTS["b12"][0](), TriLockConfig(
            kappa_s=2, kappa_f=1, alpha=0.6, s_pairs=30, seed=4))
        result = bounded_equivalence(
            locked.original, locked.netlist, check_depth(locked),
            prefix_vectors=locked.key_vectors())
        assert result.equivalent
        assert result.solver_stats["solve_calls"] == 0

    @pytest.mark.parametrize("host,codecs", [
        ("s27", CODEC_VARIANTS), ("b12", ("sum_diff",)),
        ("synth120", ("onehot3",))])
    def test_wrong_keys_keep_the_structural_verdict(self, host, codecs,
                                                     monkeypatch):
        """Every one-bit flip of the key is still told apart, with the
        counterexample a check without the cut step finds."""
        locked = reencoded_lock(host, codecs, 1)
        kappa, width = locked.config.kappa, locked.key.width
        depth = check_depth(locked)
        prefixes = [list(KeySequence.from_int(locked.key.as_int ^ 1 << flip,
                                              kappa, width).vectors)
                    for flip in range(kappa * width)]

        def check(prefix):
            result = bounded_equivalence(locked.original, locked.netlist,
                                         depth, prefix_vectors=prefix)
            return result.equivalent, result.counterexample

        with_cuts = [check(prefix) for prefix in prefixes]
        structural_only(monkeypatch)
        assert with_cuts == [check(prefix) for prefix in prefixes]
        for prefix, (equivalent, counterexample) in zip(prefixes, with_cuts):
            assert not equivalent
            assert_diverges(locked.original, locked.netlist, prefix,
                            counterexample)


class TestCutBuilderStaysOffTheOtherPaths:
    @staticmethod
    def _count_builds(monkeypatch):
        """The netlist name of every :class:`CutBuilder` built."""
        builds = []
        init = CutBuilder.__init__

        def counted(self, netlist, *args, **kwargs):
            builds.append(netlist.name)
            init(self, netlist, *args, **kwargs)

        monkeypatch.setattr(CutBuilder, "__init__", counted)
        return builds

    def test_s0_attack_builds_none(self, monkeypatch):
        """A whole seq-sat attack on an S=0 lock: the attack view, every
        DIP pin, and the correct key's check, which hashes
        structurally."""
        locked = locked_factory(kappa_s=2, s_pairs=0, seed=3)
        builds = self._count_builds(monkeypatch)
        outcome = attack_locked_circuit(locked)
        assert outcome.success and outcome.n_dips > 0
        assert builds == []

    def test_s_above_0_attack_builds_one_for_its_key_check(self,
                                                           monkeypatch):
        """On an S=1 lock, only the recovered key's BMC check re-folds
        through cuts; the attack view and the pins stay structural."""
        locked = reencoded_lock("s27", ("sum_diff",), 0)
        builds = self._count_builds(monkeypatch)
        outcome = attack_locked_circuit(locked)
        assert outcome.success and outcome.n_dips > 0
        assert builds == ["bmc_cuts"]

    def test_wrong_keys_split_by_simulation_skip_the_re_fold(self,
                                                             monkeypatch):
        locked = reencoded_lock("b12", ("sum_diff",), 1)
        kappa, width = locked.config.kappa, locked.key.width
        builds = self._count_builds(monkeypatch)
        for flip in range(kappa * width):
            wrong = KeySequence.from_int(locked.key.as_int ^ 1 << flip,
                                         kappa, width)
            assert not bounded_equivalence(
                locked.original, locked.netlist, check_depth(locked),
                prefix_vectors=list(wrong.vectors))
        assert builds == []
