"""Tseitin transformation: combinational netlist -> CNF.

Every driven net gets one CNF variable; each gate contributes the clauses
that tie its output variable to its input variables. Flop Q nets are
treated as free variables (like primary inputs), so the encoder works on
purely combinational circuits and on unrolled sequential circuits alike —
the unroller is responsible for stitching cycles together beforehand.
"""

from __future__ import annotations

import itertools
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


def _new_gates(netlist, roots, var_of):
    """Yield ``(net, gate)`` for each gate of the fanin cone of ``roots``
    that ``var_of`` does not hold, each after its inputs; the caller
    puts ``net`` in ``var_of`` before asking for the next."""
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
        yield net, gate


def encode_cone(netlist, roots, cnf, var_of):
    """Encode the gates of the fanin cone of ``roots`` that ``var_of``
    does not hold yet, each after its inputs.

    The incremental counterpart of :func:`encode`: a netlist that only
    grows can be encoded piece by piece into one ``cnf``/``var_of``
    pair, and logic already encoded is never encoded twice. Every
    primary input and flop Q the cone reaches must already be in
    ``var_of``.
    """
    for net, gate in _new_gates(netlist, roots, var_of):
        out = var_of[net] = cnf.new_var()
        encode_gate(cnf, gate.op, out, [var_of[src] for src in gate.inputs])


def encode_fresh(netlist, roots, var_of, fresh):
    """:func:`encode_cone` into ``fresh``, a
    :class:`~repro.cnf.elimination.FreshClauses` headed to
    :func:`~repro.cnf.elimination.eliminate`; returns the encoded nets
    in order.

    A NOT gate gets no variable: ``var_of`` maps its net to its input's
    negated literal until the caller drops it. An XOR or XNOR of up to
    four inputs becomes its parity table (``2^n`` clauses over its
    ``n`` inputs and its output) instead of a chain through auxiliary
    variables, so each fresh variable is a net's: one that survives
    elimination stays in ``var_of`` for later encodings to share, where
    a surviving chain variable would be encoded again with its gate.
    """
    encoded = []
    for net, gate in _new_gates(netlist, roots, var_of):
        encoded.append(net)
        op = gate.op
        if op is GateOp.NOT:
            var_of[net] = -var_of[gate.inputs[0]]
            continue
        out = var_of[net] = fresh.new_var()
        lits = [var_of[src] for src in gate.inputs]
        if (op is GateOp.XOR or op is GateOp.XNOR) and len(lits) <= 4:
            lits.append(out if op is GateOp.XOR else -out)
            fresh.clauses += [[sign * lit for sign, lit in zip(signs, lits)]
                              for signs in _ODD_SIGNS[len(lits)]]
        else:
            encode_gate(fresh, op, out, lits)
    return encoded


#: Per literal count: the sign patterns with an odd number of -1s. Each
#: pattern's clause rules out one assignment that makes an odd number of
#: the literals true, so together they say an even number is true.
_ODD_SIGNS = {n: [signs for signs in itertools.product((1, -1), repeat=n)
                  if signs.count(-1) % 2] for n in range(2, 6)}


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
