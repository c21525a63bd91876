"""Tests for LogicBuilder: folding, sharing, comparators, and arithmetic."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reencode import CODEC_VARIANTS
from repro.core.rivals import lock_sublock
from repro.errors import NetlistError
from repro.netlist import GateOp, LogicBuilder, Netlist
from repro.netlist.analysis import constant_output_indices
from repro.netlist.builder import CutBuilder
from repro.netlist.transform import InputSpecializer
from repro.sim import CombSimulator

from tests.conftest import _mid_circuit
from tests.test_codec_variants import codec_harness
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


# ----------------------------------------------------------------------
# CutBuilder: functional hashing over cuts of at most four nets
# ----------------------------------------------------------------------
_WIDE = {GateOp.AND, GateOp.NAND, GateOp.OR, GateOp.NOR}


@st.composite
def reconvergent_netlists(draw):
    """Random combinational netlists rich in what cuts can merge:
    gates mostly read the last few nets (reconvergent fan-in), repeat
    inputs, negate the gate just before them (double negations), and
    include constants, every op, and AND/OR-family gates of up to 7
    inputs."""
    netlist = Netlist("random")
    pool = [netlist.add_input(f"i{k}") for k in range(draw(st.integers(1, 5)))]
    for index in range(draw(st.integers(1, 30))):
        op = draw(st.sampled_from(list(GateOp)))
        window = pool[-6:] if draw(st.booleans()) else pool
        if op in (GateOp.CONST0, GateOp.CONST1):
            srcs = []
        elif op in (GateOp.NOT, GateOp.BUF):
            srcs = [pool[-1] if draw(st.booleans())
                    else draw(st.sampled_from(window))]
        else:
            srcs = draw(st.lists(st.sampled_from(window), min_size=2,
                                 max_size=7 if op in _WIDE else 3))
        pool.append(netlist.add_gate(f"g{index}", op, srcs))
    for net in draw(st.lists(st.sampled_from(pool), min_size=1,
                             max_size=6)):
        netlist.add_output(net)
    return netlist.validate()


def exhaustive_words(nets):
    """One word per net enumerating every assignment (pattern m sets
    net k to bit k of m); returns ``(words, n_patterns)``."""
    n_patterns = 1 << len(nets)
    words = {}
    for k, net in enumerate(nets):
        words[net] = sum(1 << m for m in range(n_patterns) if m >> k & 1)
    return words, n_patterns


def cut_folded(netlist, max_arity=4):
    """``netlist``'s outputs re-folded through a :class:`CutBuilder`."""
    folded = Netlist("folded")
    mapping = {net: folded.add_input(net) for net in netlist.inputs}
    InputSpecializer(netlist).fold(CutBuilder(folded, max_arity=max_arity),
                                   mapping)
    for net in netlist.outputs:
        folded.add_output(mapping[net])
    return folded.validate()


class TestCutBuilder:
    @given(netlist=reconvergent_netlists(), max_arity=st.integers(2, 4))
    @settings(max_examples=200, deadline=None)
    def test_fold_evaluates_like_the_original(self, netlist, max_arity):
        folded = cut_folded(netlist, max_arity)
        words, n_patterns = exhaustive_words(netlist.inputs)
        assert CombSimulator(folded).evaluate_outputs(words, n_patterns) \
            == CombSimulator(netlist).evaluate_outputs(words, n_patterns)

    def test_equal_functions_share_one_net(self):
        netlist, _, (a, b) = fresh_builder(2)
        cuts = CutBuilder(netlist)
        xor = cuts.xor_(a, b)
        assert cuts.or_(cuts.and_(a, cuts.not_(b)),
                        cuts.and_(cuts.not_(a), b)) == xor
        assert cuts.nand_(cuts.nand_(a, cuts.not_(b)),
                          cuts.nand_(cuts.not_(a), b)) == xor
        assert cuts.and_(a, cuts.not_(a)) == cuts.const(0)
        assert cuts.or_(cuts.and_(a, b), cuts.and_(a, cuts.not_(b))) == a
        assert cuts.and_(cuts.or_(a, b), cuts.or_(cuts.not_(a),
                                                  cuts.not_(b))) == xor
        assert cuts.xor_(a, a) == cuts.const(0)
        assert cuts.not_(cuts.or_(cuts.and_(a, b),
                                  cuts.and_(a, cuts.not_(b)))) \
            == cuts.not_(a)

    @pytest.mark.parametrize("variant", CODEC_VARIANTS)
    @pytest.mark.parametrize("builder_class", [LogicBuilder, CutBuilder])
    def test_decoder_of_encoder_is_the_state(self, variant, builder_class):
        """One cycle of a re-encoded register pair: the decoder of the
        encoder is the state it encoded, which cuts see and structural
        hashing does not."""
        harness, regs = codec_harness(variant)
        folder = InputSpecializer(harness)
        unrolled = Netlist("unrolled")
        state = [unrolled.add_input(net) for net in harness.inputs]
        builder = builder_class(unrolled)
        mapping = dict(zip(harness.inputs, state))
        mapping.update((q, unrolled.add_input(q)) for q in regs)
        folder.fold(builder, mapping)
        encoded = {q: mapping[harness.flop(q).d] for q in regs}
        mapping = dict(zip(harness.inputs, state), **encoded)
        folder.fold(builder, mapping)
        decoded = [mapping[net] for net in harness.outputs]
        assert (decoded == state) is (builder_class is CutBuilder)
