"""Tests for LogicBuilder: folding, sharing, comparators, and arithmetic."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rivals import lock_sublock
from repro.errors import NetlistError
from repro.netlist import GateOp, LogicBuilder, Netlist
from repro.netlist.analysis import constant_output_indices

from tests.conftest import _mid_circuit
from tests.util import reference_eval


def fresh_builder(n_inputs=0, max_arity=4):
    netlist = Netlist("built")
    inputs = [netlist.add_input(f"i{k}") for k in range(n_inputs)]
    return netlist, LogicBuilder(netlist, max_arity=max_arity), inputs


def eval_net(netlist, net, assignment):
    return reference_eval(netlist, assignment)[net]


class TestConstantFolding:
    def test_and_with_zero_is_zero(self):
        netlist, b, (a,) = fresh_builder(1)
        assert b.and_(a, b.const(0)) == b.const(0)
        assert netlist.num_gates() == 1  # just the const gate

    def test_and_drops_ones_and_duplicates(self):
        _, b, (a, c) = fresh_builder(2)
        assert b.and_(a, b.const(1), a) == a

    def test_or_with_one_is_one(self):
        _, b, (a,) = fresh_builder(1)
        assert b.or_(a, b.const(1)) == b.const(1)

    def test_xor_folds_constants_by_parity(self):
        netlist, b, (a,) = fresh_builder(1)
        result = b.xor_(a, b.const(1), b.const(1))
        assert result == a
        inverted = b.xor_(a, b.const(1))
        assert netlist.gate(inverted).op is GateOp.NOT

    def test_empty_and_is_true_empty_or_is_false(self):
        _, b, _ = fresh_builder(0)
        assert b.is_const(b.and_([]), 1)
        assert b.is_const(b.or_([]), 0)

    def test_not_of_const(self):
        _, b, _ = fresh_builder(0)
        assert b.not_(b.const(0)) == b.const(1)

    def test_double_negation_cancels(self):
        _, b, (a,) = fresh_builder(1)
        assert b.not_(b.not_(a)) == a

    def test_mux_folding(self):
        _, b, (a, c) = fresh_builder(2)
        assert b.mux(b.const(0), a, c) == a
        assert b.mux(b.const(1), a, c) == c
        assert b.mux(a, c, c) == c


class TestNoGateTableCopies:
    def test_building_never_copies_the_gate_table(self, monkeypatch):
        """``Netlist.gates`` returns a copy of the whole gate table; the
        builder must look drivers up in place, or every NOT it emits
        costs O(gates) and building turns quadratic."""
        netlist, b, inputs = fresh_builder(6)

        def copying_view(_netlist):
            raise AssertionError("LogicBuilder copied the gate table")

        monkeypatch.setattr(Netlist, "gates", property(copying_view))
        a, c, d, e, f, g = inputs
        assert b.not_(b.not_(a)) == a
        b.mux(c, d, e)
        b.xnor2(f, g)
        b.nand_(a, c, d)
        b.nor_(e, f)
        b.sub_words([a, c, d], [e, f, g])
        b.neq_const(inputs, 37)
        b.compare_const(inputs, 21)
        monkeypatch.undo()
        netlist.validate()

    @staticmethod
    def _count_copies(monkeypatch):
        copies = []
        table = Netlist.gates.fget

        def counting_view(netlist):
            copies.append(netlist)
            return table(netlist)

        monkeypatch.setattr(Netlist, "gates", property(counting_view))
        return copies

    def test_constant_output_indices_copies_nothing(self, monkeypatch):
        netlist = Netlist("consts")
        netlist.add_input("a")
        netlist.add_gate("k0", GateOp.CONST0, ())
        netlist.add_gate("k1", GateOp.CONST1, ())
        netlist.add_gate("n", GateOp.NOT, ("k1",))
        for net in ("a", "k0", "n", "k1", "k0"):
            netlist.add_output(net)
        copies = self._count_copies(monkeypatch)
        assert constant_output_indices(netlist) == [1, 3, 4]
        assert copies == []

    def test_sublock_copies_the_gate_table_once(self, monkeypatch):
        """Victim selection lists the gates once; the per-output test
        looks each net up in place."""
        circuit = _mid_circuit()
        copies = self._count_copies(monkeypatch)
        lock_sublock(circuit, kappa=2, n_subs=3, seed=0)
        assert len(copies) <= 1


class TestSharing:
    def test_identical_gates_share_one_net(self):
        netlist, b, (a, c) = fresh_builder(2)
        first = b.and_(a, c)
        second = b.and_(c, a)  # commutative canonicalisation
        assert first == second
        assert netlist.num_gates() == 1

    def test_noncommutative_order_preserved(self):
        netlist, b, (a, c) = fresh_builder(2)
        b.mux(a, c, b.not_(c))
        netlist.validate()


class TestTrees:
    @pytest.mark.parametrize("width", [2, 4, 5, 9, 16])
    def test_wide_and_respects_max_arity(self, width):
        netlist, b, inputs = fresh_builder(width, max_arity=4)
        b.and_(inputs)
        assert all(gate.arity <= 4 for gate in netlist.gates.values())

    @pytest.mark.parametrize("op_name", ["and_", "or_", "xor_"])
    def test_wide_trees_are_correct(self, op_name):
        width = 7
        netlist, b, inputs = fresh_builder(width)
        net = getattr(b, op_name)(inputs)
        spec = {"and_": all, "or_": any, "xor_": lambda v: sum(v) % 2 == 1}[op_name]
        for bits in itertools.product([False, True], repeat=width):
            assignment = dict(zip(inputs, bits))
            assert eval_net(netlist, net, assignment) == spec(bits)


class TestComparators:
    @given(value=st.integers(0, 15), data=st.integers(0, 15))
    @settings(max_examples=64, deadline=None)
    def test_eq_const(self, value, data):
        netlist, b, inputs = fresh_builder(4)
        net = b.eq_const(inputs, value)
        bits = [bool((data >> (3 - k)) & 1) for k in range(4)]
        assignment = dict(zip(inputs, bits))
        assert eval_net(netlist, net, assignment) == (data == value)

    @given(value=st.integers(0, 31), data=st.integers(0, 31))
    @settings(max_examples=80, deadline=None)
    def test_compare_const(self, value, data):
        netlist, b, inputs = fresh_builder(5)
        lt, gt = b.compare_const(inputs, value)
        bits = [bool((data >> (4 - k)) & 1) for k in range(5)]
        assignment = dict(zip(inputs, bits))
        assert eval_net(netlist, lt, assignment) == (data < value)
        assert eval_net(netlist, gt, assignment) == (data > value)

    def test_word_eq_exhaustive(self):
        netlist, b, inputs = fresh_builder(6)
        word_a, word_b = inputs[:3], inputs[3:]
        net = b.word_eq(word_a, word_b)
        for bits in itertools.product([False, True], repeat=6):
            assignment = dict(zip(inputs, bits))
            assert eval_net(netlist, net, assignment) == (bits[:3] == bits[3:])

    def test_width_checks(self):
        _, b, inputs = fresh_builder(4)
        with pytest.raises(NetlistError):
            b.eq_const(inputs, 16)
        with pytest.raises(NetlistError):
            b.word_eq(inputs[:2], inputs[:3])


class TestArithmetic:
    @given(a=st.integers(0, 15), c=st.integers(0, 15))
    @settings(max_examples=64, deadline=None)
    def test_add_words(self, a, c):
        netlist, b, inputs = fresh_builder(8)
        word_a, word_b = inputs[:4], inputs[4:]
        total, carry = b.add_words(word_a, word_b)
        bits = [bool((a >> (3 - k)) & 1) for k in range(4)]
        bits += [bool((c >> (3 - k)) & 1) for k in range(4)]
        assignment = dict(zip(inputs, bits))
        values = reference_eval(netlist, assignment)
        got = sum(int(values[net]) << (3 - k) for k, net in enumerate(total))
        got += int(values[carry]) << 4
        assert got == a + c

    @given(a=st.integers(0, 15), c=st.integers(0, 15))
    @settings(max_examples=64, deadline=None)
    def test_sub_words(self, a, c):
        netlist, b, inputs = fresh_builder(8)
        word_a, word_b = inputs[:4], inputs[4:]
        diff, borrow = b.sub_words(word_a, word_b)
        bits = [bool((a >> (3 - k)) & 1) for k in range(4)]
        bits += [bool((c >> (3 - k)) & 1) for k in range(4)]
        assignment = dict(zip(inputs, bits))
        values = reference_eval(netlist, assignment)
        got = sum(int(values[net]) << (3 - k) for k, net in enumerate(diff))
        assert got == (a - c) % 16
        assert values[borrow] == (a < c)


class TestSequentialHelpers:
    def test_sticky_flag_structure(self):
        netlist, b, (a,) = fresh_builder(1)
        q = b.sticky_flag(a)
        flop = netlist.flop(q)
        gate = netlist.gate(flop.d)
        assert gate.op is GateOp.OR
        assert set(gate.inputs) == {q, a}

    def test_alias_and_flop_names(self):
        netlist, b, (a,) = fresh_builder(1)
        named = b.alias(a, "my_out")
        assert netlist.gate(named).op is GateOp.BUF
        q = b.flop(a, name="my_q")
        assert q == "my_q"
        assert netlist.flop("my_q").d == a
