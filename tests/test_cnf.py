"""Tests for the CNF container, Tseitin encoding, and DIMACS I/O."""

import itertools

import pytest

from repro.cnf import (
    Cnf,
    dumps_dimacs,
    encode,
    encode_cone,
    loads_dimacs,
    miter_different_outputs,
)
from repro.errors import CnfError
from repro.sat import brute_force_models

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
