"""Tests for bounded equivalence checking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.bmc import bounded_equivalence
from repro.cnf import encode, miter_different_outputs
from repro.core.keys import KeySequence
from repro.errors import AttackError
from repro.netlist import GateOp, Netlist, merged
from repro.sat import Solver, make_backend
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
    """A real backend that counts its ``solve`` calls."""

    def __init__(self):
        self._inner = make_backend("cdcl")
        self.solve_calls = 0

    def solve(self, *args, **kwargs):
        self.solve_calls += 1
        return self._inner.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestFoldedMatchesWholeProduct:
    @given(seed=st.integers(0, 10_000),
           variant=st.sampled_from(["self", "broken", "other"]),
           depth=st.integers(1, 4),
           prefix=st.lists(st.tuples(st.booleans(), st.booleans(),
                                     st.booleans()), max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_random_circuits(self, seed, variant, depth, prefix):
        reference = random_seq_netlist(seed)
        dut = {"self": reference.copy,
               "broken": lambda: broken_copy(reference),
               "other": lambda: random_seq_netlist(seed + 1)}[variant]()
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
