"""Tseitin transformation: combinational netlist -> CNF.

Every driven net gets one CNF variable; each gate contributes the clauses
that tie its output variable to its input variables. Flop Q nets are
treated as free variables (like primary inputs), so the encoder works on
purely combinational circuits and on unrolled sequential circuits alike —
the unroller is responsible for stitching cycles together beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cnf.formula import Cnf
from repro.errors import CnfError
from repro.netlist.gates import GateOp


@dataclass
class CircuitCnf:
    """A CNF together with its net-to-variable map."""

    cnf: Cnf
    var_of: dict

    def lit(self, net, positive=True):
        """Literal for ``net`` (positive or negated)."""
        var = self.var_of[net]
        return var if positive else -var

    def assignment_of(self, model):
        """Project a solver model (var->bool mapping) onto nets."""
        return {net: model[var] for net, var in self.var_of.items()}


def _and_clauses(cnf, out_lit, input_lits):
    for lit in input_lits:
        cnf.add_clause([-out_lit, lit])
    cnf.add_clause([out_lit] + [-lit for lit in input_lits])


def _or_clauses(cnf, out_lit, input_lits):
    for lit in input_lits:
        cnf.add_clause([out_lit, -lit])
    cnf.add_clause([-out_lit] + list(input_lits))


def _xor2_clauses(cnf, out_lit, a, b):
    cnf.add_clause([-out_lit, a, b])
    cnf.add_clause([-out_lit, -a, -b])
    cnf.add_clause([out_lit, -a, b])
    cnf.add_clause([out_lit, a, -b])


def encode_gate(cnf, op, out, lits):
    """Add the clauses tying variable ``out`` to ``op`` over ``lits``.

    ``lits`` are the gate's input variables in order; an n-ary XOR/XNOR
    chains through fresh variables of ``cnf``.
    """
    if op is GateOp.CONST0:
        cnf.add_clause([-out])
    elif op is GateOp.CONST1:
        cnf.add_clause([out])
    elif op is GateOp.BUF:
        cnf.add_clause([-out, lits[0]])
        cnf.add_clause([out, -lits[0]])
    elif op is GateOp.NOT:
        cnf.add_clause([-out, -lits[0]])
        cnf.add_clause([out, lits[0]])
    elif op is GateOp.AND or op is GateOp.NAND:
        _and_clauses(cnf, out if op is GateOp.AND else -out, lits)
    elif op is GateOp.OR or op is GateOp.NOR:
        _or_clauses(cnf, out if op is GateOp.OR else -out, lits)
    elif op is GateOp.XOR or op is GateOp.XNOR:
        acc = lits[0]
        for nxt in lits[1:-1]:
            aux = cnf.new_var()
            _xor2_clauses(cnf, aux, acc, nxt)
            acc = aux
        _xor2_clauses(cnf, out if op is GateOp.XOR else -out, acc, lits[-1])
    else:  # pragma: no cover - alphabet is closed
        raise CnfError(f"cannot encode operator {op}")


def encode(netlist, cnf=None, var_of=None):
    """Encode ``netlist``'s combinational logic into CNF.

    Optionally continue into an existing ``cnf``/``var_of`` pair (used by
    the attack to stack several circuit copies in one solver): nets already
    present in ``var_of`` are reused, which is how copies get stitched to
    shared inputs.
    """
    cnf = cnf if cnf is not None else Cnf()
    var_of = var_of if var_of is not None else {}

    def var(net):
        v = var_of.get(net)
        if v is None:
            v = cnf.new_var()
            var_of[net] = v
        return v

    for net in netlist.inputs:
        var(net)
    for q in netlist.flops:
        var(q)

    for net in netlist.topo_order():
        gate = netlist.gate(net)
        out = var(net)
        encode_gate(cnf, gate.op, out, [var(src) for src in gate.inputs])

    return CircuitCnf(cnf, var_of)


def encode_cone(netlist, roots, cnf, var_of):
    """Encode the gates of the fanin cone of ``roots`` that ``var_of``
    does not hold yet, each after its inputs.

    The incremental counterpart of :func:`encode`: a netlist that only
    grows can be encoded piece by piece into one ``cnf``/``var_of``
    pair, and logic already encoded is never encoded twice. Every
    primary input and flop Q the cone reaches must already be in
    ``var_of``.
    """
    stack = [net for net in reversed(roots) if net not in var_of]
    while stack:
        net = stack[-1]
        if net in var_of:
            stack.pop()
            continue
        gate = netlist.gate(net)
        pending = [src for src in gate.inputs if src not in var_of]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        out = var_of[net] = cnf.new_var()
        encode_gate(cnf, gate.op, out, [var_of[src] for src in gate.inputs])


def miter_different_outputs(circuit_cnf, outputs_a, outputs_b):
    """Add a 'some output pair differs' constraint between two output lists.

    Creates one XOR variable per pair plus a single OR clause; returns the
    list of difference variables. Both output lists must already be encoded
    in ``circuit_cnf``.
    """
    if len(outputs_a) != len(outputs_b):
        raise CnfError("miter requires equally long output lists")
    cnf = circuit_cnf.cnf
    diff_vars = []
    for net_a, net_b in zip(outputs_a, outputs_b):
        diff = cnf.new_var()
        _xor2_clauses(cnf, diff, circuit_cnf.lit(net_a), circuit_cnf.lit(net_b))
        diff_vars.append(diff)
    cnf.add_clause(diff_vars)
    return diff_vars
