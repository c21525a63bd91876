"""Tests for the CNF container, Tseitin encoding, and DIMACS I/O."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import (
    Cnf,
    FreshClauses,
    dumps_dimacs,
    eliminate,
    encode,
    encode_cone,
    encode_fresh,
    loads_dimacs,
    miter_different_outputs,
)
from repro.errors import CnfError
from repro.sat import Solver, brute_force_models

from tests.util import all_assignments, random_comb_netlist, reference_eval

pytestmark = pytest.mark.smoke


class TestCnfContainer:
    def test_var_allocation(self):
        cnf = Cnf()
        assert cnf.new_var() == 1
        assert cnf.new_vars(3) == [2, 3, 4]
        assert cnf.num_vars == 4

    def test_duplicate_literals_removed(self):
        cnf = Cnf(2)
        cnf.add_clause([1, 1, -2])
        assert cnf.clauses == [[1, -2]]

    def test_tautology_dropped(self):
        cnf = Cnf(1)
        assert cnf.add_clause([1, -1]) is False
        assert cnf.clauses == []

    def test_empty_clause_rejected(self):
        cnf = Cnf(1)
        with pytest.raises(CnfError):
            cnf.add_clause([])

    def test_unallocated_variable_rejected(self):
        cnf = Cnf(1)
        with pytest.raises(CnfError):
            cnf.add_clause([2])
        with pytest.raises(CnfError):
            cnf.add_clause([0])

    def test_evaluate(self):
        cnf = Cnf(2)
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 2])
        assert cnf.evaluate({1: True, 2: True})
        assert not cnf.evaluate({1: True, 2: False})
        with pytest.raises(CnfError):
            cnf.evaluate({1: True})

    def test_extend_and_copy(self):
        a = Cnf(2)
        a.add_clause([1, 2])
        b = Cnf(3)
        b.add_clause([-3])
        a.extend(b)
        assert a.num_vars == 3 and a.num_clauses() == 2
        dup = a.copy()
        dup.add_clause([1])
        assert a.num_clauses() == 2


class TestDimacs:
    def test_roundtrip(self):
        cnf = Cnf(3)
        cnf.add_clause([1, -2])
        cnf.add_clause([2, 3, -1])
        parsed = loads_dimacs(dumps_dimacs(cnf, comments=["hello"]))
        assert parsed.num_vars == 3
        assert parsed.clauses == cnf.clauses

    def test_parse_errors(self):
        with pytest.raises(CnfError):
            loads_dimacs("1 2 0\n")  # clause before problem line
        with pytest.raises(CnfError):
            loads_dimacs("p cnf 2 1\n1 2\n")  # missing terminator
        with pytest.raises(CnfError):
            loads_dimacs("c only comments\n")


class TestTseitin:
    @pytest.mark.parametrize("seed", range(8))
    def test_models_project_onto_truth_table(self, seed):
        """Every circuit-consistent assignment is a CNF model and vice versa."""
        netlist = random_comb_netlist(seed, n_inputs=3, n_gates=8)
        circuit = encode(netlist)
        models = brute_force_models(circuit.cnf)

        # Group models by input valuation: exactly one model per input
        # pattern (the circuit is deterministic), matching reference_eval.
        by_inputs = {}
        for model in models:
            key = tuple(model[circuit.var_of[net]] for net in netlist.inputs)
            assert key not in by_inputs, "two models for one input pattern"
            by_inputs[key] = model

        for assignment in all_assignments(netlist.inputs):
            key = tuple(assignment[net] for net in netlist.inputs)
            assert key in by_inputs
            values = reference_eval(netlist, assignment)
            model = by_inputs[key]
            for net, var in circuit.var_of.items():
                if netlist.is_gate(net) or netlist.is_input(net):
                    if net in values:
                        assert model[var] == values[net], net

    @pytest.mark.parametrize("seed", range(4))
    def test_cone_encoding_is_incremental_and_exact(self, seed):
        """encode_cone encodes just the cone of its roots, never a gate
        twice, and its models project onto the truth table."""
        netlist = random_comb_netlist(seed, n_inputs=3, n_gates=8)
        cnf, var_of = Cnf(), {}
        for net in netlist.inputs:
            var_of[net] = cnf.new_var()
        first = netlist.outputs[:1]
        encode_cone(netlist, first, cnf, var_of)
        cone, _ = netlist.combinational_fanin(first)
        assert set(var_of) == set(netlist.inputs) | cone
        encoded = dict(var_of)
        encode_cone(netlist, netlist.outputs, cnf, var_of)
        assert {net: var_of[net] for net in encoded} == encoded

        models = brute_force_models(cnf)
        assert len(models) == 2 ** len(netlist.inputs)
        for model in models:
            values = reference_eval(netlist, {
                net: model[var_of[net]] for net in netlist.inputs})
            for net, var in var_of.items():
                assert model[var] == values[net], net

    @pytest.mark.parametrize("seed", range(6))
    def test_fresh_encoding_projects_onto_truth_table(self, seed):
        """encode_fresh's clauses (NOT nets as negated literals, wide
        XORs as parity tables) have one model per input pattern, and it
        matches the circuit."""
        netlist = random_comb_netlist(seed, n_inputs=3, n_gates=8)
        var_of = {net: var for var, net in enumerate(netlist.inputs, 1)}
        fresh = FreshClauses(len(var_of))
        encoded = encode_fresh(netlist, netlist.outputs, var_of, fresh)
        cone, _ = netlist.combinational_fanin(netlist.outputs)
        assert set(encoded) == cone & set(netlist.gates)
        assert set(var_of) == set(netlist.inputs) | set(encoded)
        cnf = Cnf(fresh.num_vars)
        cnf.add_clauses(fresh.clauses)
        models = brute_force_models(cnf)
        assert len(models) == 2 ** len(netlist.inputs)
        for model in models:
            values = reference_eval(netlist, {
                net: model[var_of[net]] for net in netlist.inputs})
            for net, lit in var_of.items():
                assert model[abs(lit)] == (values[net] == (lit > 0)), net

    def test_shared_encoding_reuses_variables(self):
        netlist = random_comb_netlist(1)
        first = encode(netlist)
        before = first.cnf.num_vars
        # Encoding a renamed copy that shares input names reuses input vars.
        mapping = {net: f"c_{net}" for net in netlist.gates}
        copy = netlist.renamed(mapping, name="copy")
        combined = encode(copy, cnf=first.cnf, var_of=first.var_of)
        for net in netlist.inputs:
            assert combined.var_of[net] <= before

    def test_xnor_wide_gate(self):
        from repro.netlist import GateOp, Netlist

        netlist = Netlist()
        for name in ("a", "b", "c"):
            netlist.add_input(name)
        netlist.add_gate("y", GateOp.XNOR, ("a", "b", "c"))
        netlist.add_output("y")
        circuit = encode(netlist)
        for model in brute_force_models(circuit.cnf):
            bits = [model[circuit.var_of[n]] for n in ("a", "b", "c")]
            assert model[circuit.var_of["y"]] == (sum(bits) % 2 == 0)

    def test_constants(self):
        from repro.netlist import GateOp, Netlist

        netlist = Netlist()
        netlist.add_gate("one", GateOp.CONST1, ())
        netlist.add_gate("zero", GateOp.CONST0, ())
        netlist.add_output("one")
        circuit = encode(netlist)
        models = brute_force_models(circuit.cnf)
        assert all(m[circuit.var_of["one"]] and not m[circuit.var_of["zero"]]
                   for m in models)


class TestMiter:
    def test_miter_is_sat_iff_functions_differ(self):
        from repro.netlist import GateOp, Netlist

        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate("and_ab", GateOp.AND, ("a", "b"))
        netlist.add_gate("or_ab", GateOp.OR, ("a", "b"))
        netlist.add_gate("and_ab2", GateOp.AND, ("b", "a"))
        circuit = encode(netlist)

        differing = circuit.cnf.copy()
        differing_circuit = type(circuit)(differing, dict(circuit.var_of))
        miter_different_outputs(differing_circuit, ["and_ab"], ["or_ab"])
        assert brute_force_models(differing_circuit.cnf)  # a != b patterns

        same_circuit = type(circuit)(circuit.cnf, circuit.var_of)
        miter_different_outputs(same_circuit, ["and_ab"], ["and_ab2"])
        assert not brute_force_models(same_circuit.cnf)

    def test_width_mismatch(self):
        netlist = random_comb_netlist(0)
        circuit = encode(netlist)
        with pytest.raises(CnfError):
            miter_different_outputs(circuit, list(netlist.outputs), [])


def _extending_assignments(clauses, n_frozen, n_vars):
    """The assignments of variables ``1..n_frozen`` (bit ``v - 1`` for
    variable ``v``) that extend to a model over ``1..n_vars``."""
    masks = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    frozen = (1 << n_frozen) - 1
    return {bits & frozen for bits in range(1 << n_vars)
            if all(bits & pos or ~bits & neg for pos, neg in masks)}


@st.composite
def _small_cnfs(draw):
    """``(clauses, n_frozen, n_fresh)``: up to 8 frozen and 6 fresh
    variables, up to 30 clauses of 2-4 literals (duplicates and
    tautologies included) and up to 2 units. Units are few, or they
    would propagate nearly every instance away before elimination."""
    n_frozen = draw(st.integers(0, 8))
    n_fresh = draw(st.integers(1, 6))
    var = st.integers(1, n_frozen + n_fresh)
    lit = st.tuples(var, st.booleans()).map(
        lambda pair: pair[0] if pair[1] else -pair[0])
    clauses = draw(st.lists(st.lists(lit, min_size=2, max_size=4),
                            max_size=30))
    units = draw(st.lists(lit.map(lambda unit: [unit]), max_size=2))
    return clauses + units, n_frozen, n_fresh


class TestElimination:
    @given(case=_small_cnfs())
    @settings(max_examples=200, deadline=None)
    def test_elimination_keeps_every_frozen_extension(self, case):
        clauses, n_frozen, n_fresh = case
        result, survivors = eliminate(clauses, n_frozen)
        n_kept = len(survivors)
        assert _extending_assignments(result, n_frozen, n_frozen + n_kept) \
            == _extending_assignments(clauses, n_frozen, n_frozen + n_fresh)
        # Survivors keep their order and are numbered right after the
        # frozen variables; no other fresh variable is left.
        assert sorted(survivors) == list(survivors)
        assert all(var > n_frozen for var in survivors)
        assert list(survivors.values()) \
            == list(range(n_frozen + 1, n_frozen + n_kept + 1))
        assert all(abs(lit) <= n_frozen + n_kept
                   for clause in result for lit in clause)
        assert len(result) <= len(clauses)

    @given(case=_small_cnfs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_local_conflict_leaves_the_store_unsatisfiable(self, case,
                                                           data):
        """Contradicting units on a fresh variable (an inconsistent
        response) come back as the empty clause."""
        clauses, n_frozen, n_fresh = case
        var = data.draw(st.integers(n_frozen + 1, n_frozen + n_fresh))
        result, survivors = eliminate(clauses + [[var], [-var]], n_frozen)
        assert (result, survivors) == ([[]], {})
        solver = Solver()
        solver.ensure_vars(n_frozen)
        for clause in result:
            solver.add_clause(clause)
        assert solver.solve() is False

    def test_variable_with_more_resolvents_than_clauses_survives(self):
        """9 resolvents against 6 clauses: 8 stays, renumbered to 7."""
        clauses = [[8, 1], [8, 2], [8, 3], [-8, 4], [-8, 5], [-8, 6]]
        result, survivors = eliminate(clauses, 6)
        assert survivors == {8: 7}
        assert sorted(map(sorted, result)) == sorted(
            sorted(7 if lit == 8 else -7 if lit == -8 else lit
                   for lit in clause) for clause in clauses)

    def test_subsumed_resolvents_do_not_count(self):
        """6 resolvents against 5 clauses, but 2 are subsumed by others:
        4 goes, leaving the 4 that remain."""
        clauses = [[4, 2, -3], [4, -2], [4, 2], [-4, -1], [-4, 1]]
        result, survivors = eliminate(clauses, 3)
        assert survivors == {}
        assert sorted(map(sorted, result)) \
            == [[-2, -1], [-2, 1], [-1, 2], [1, 2]]

    def test_tseitin_chain_folds_to_its_function(self):
        """A two-gate cone over frozen inputs, its output pinned to 1:
        only clauses over the frozen inputs remain."""
        # 3 = AND(1, 2); 4 = OR(3, -2); unit 4.
        clauses = [[-3, 1], [-3, 2], [3, -1, -2],
                   [4, -3], [4, 2], [-4, 3, -2], [4]]
        result, survivors = eliminate(clauses, 2)
        assert survivors == {}
        assert _extending_assignments(result, 2, 2) == {0b00, 0b01, 0b11}
