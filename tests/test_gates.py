"""Unit tests for gate primitives and their evaluation semantics."""

import itertools
import pickle

import pytest

from repro.errors import NetlistError
from repro.netlist.gates import (
    Flop,
    Gate,
    GateOp,
    evaluate_bools,
    evaluate_words,
)

pytestmark = pytest.mark.smoke

TRUTH = {
    GateOp.AND: lambda vals: all(vals),
    GateOp.NAND: lambda vals: not all(vals),
    GateOp.OR: lambda vals: any(vals),
    GateOp.NOR: lambda vals: not any(vals),
    GateOp.XOR: lambda vals: sum(vals) % 2 == 1,
    GateOp.XNOR: lambda vals: sum(vals) % 2 == 0,
}


class TestGateConstruction:
    def test_round_trips_inputs_to_tuple(self):
        gate = Gate(GateOp.AND, ["a", "b"])
        assert gate.inputs == ("a", "b")
        assert gate.arity == 2

    def test_not_requires_exactly_one_input(self):
        with pytest.raises(NetlistError):
            Gate(GateOp.NOT, ("a", "b"))
        with pytest.raises(NetlistError):
            Gate(GateOp.NOT, ())

    def test_and_requires_two_or_more_inputs(self):
        with pytest.raises(NetlistError):
            Gate(GateOp.AND, ("a",))
        Gate(GateOp.AND, ("a", "b", "c", "d", "e"))  # n-ary is fine

    def test_const_takes_no_inputs(self):
        Gate(GateOp.CONST0, ())
        with pytest.raises(NetlistError):
            Gate(GateOp.CONST1, ("a",))

    def test_rejects_non_string_input(self):
        with pytest.raises(NetlistError):
            Gate(GateOp.AND, ("a", 3))

    def test_rejects_non_gateop(self):
        with pytest.raises(NetlistError):
            Gate("AND", ("a", "b"))

    @pytest.mark.parametrize("op, inputs, bounds", [
        (GateOp.CONST0, ("a",), "[0, 0]"),
        (GateOp.CONST1, ("a",), "[0, 0]"),
        (GateOp.NOT, ("a", "b"), "[1, 1]"),
        (GateOp.BUF, ("a", "b"), "[1, 1]"),
        (GateOp.AND, ("a",), "[2, inf]"),
    ])
    def test_arity_error_states_the_bounds(self, op, inputs, bounds):
        with pytest.raises(NetlistError) as error:
            Gate(op, inputs)
        assert str(error.value) == (
            f"{op} expects arity in {bounds}, got {len(inputs)}")

    def test_substituted_renames_only_mapped(self):
        gate = Gate(GateOp.OR, ("a", "b", "c"))
        renamed = gate.substituted({"b": "x"})
        assert renamed.inputs == ("a", "x", "c")


class TestGateOpHash:
    @pytest.mark.parametrize("op", list(GateOp))
    def test_hash_is_identity(self, op):
        """Members are singletons, so a member found by value or through
        pickle hashes and compares as the one object."""
        assert hash(op) == object.__hash__(op)
        for twin in (GateOp(op.value), GateOp[op.name],
                     pickle.loads(pickle.dumps(op))):
            assert twin is op
            assert {op: "found"}[twin] == "found"


class TestFlop:
    def test_defaults_to_zero_init(self):
        flop = Flop("d")
        assert flop.init is False

    def test_substituted(self):
        assert Flop("d").substituted({"d": "e"}).d == "e"

    def test_rejects_empty_d(self):
        with pytest.raises(NetlistError):
            Flop("")


class TestScalarEvaluation:
    @pytest.mark.parametrize("op", list(TRUTH))
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_matches_truth_table(self, op, arity):
        for values in itertools.product([False, True], repeat=arity):
            assert evaluate_bools(op, values) == TRUTH[op](values)

    def test_unary_ops(self):
        assert evaluate_bools(GateOp.NOT, [False]) is True
        assert evaluate_bools(GateOp.NOT, [True]) is False
        assert evaluate_bools(GateOp.BUF, [True]) is True

    def test_constants(self):
        assert evaluate_bools(GateOp.CONST0, []) is False
        assert evaluate_bools(GateOp.CONST1, []) is True


class TestWordEvaluation:
    @pytest.mark.parametrize("op", list(TRUTH))
    def test_word_evaluation_is_bitwise(self, op):
        n_patterns = 8
        mask = (1 << n_patterns) - 1
        word_a, word_b = 0b10110100, 0b01110010
        result = evaluate_words(op, [word_a, word_b], mask)
        for position in range(n_patterns):
            bits = [bool(word_a >> position & 1), bool(word_b >> position & 1)]
            assert bool(result >> position & 1) == TRUTH[op](bits)

    def test_not_masks_high_bits(self):
        mask = 0b1111
        assert evaluate_words(GateOp.NOT, [0], mask) == mask

    def test_const_words(self):
        assert evaluate_words(GateOp.CONST0, [], 0b111) == 0
        assert evaluate_words(GateOp.CONST1, [], 0b111) == 0b111
