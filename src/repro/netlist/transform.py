"""Netlist rewriting passes: constant folding, buffer sweeping, dead-logic
removal, and partial evaluation of inputs.

The passes rebuild the circuit through :class:`LogicBuilder`, which gives
constant folding, double-negation elimination, and structural sharing for
free. They stand in for the light cleanup a synthesis tool would perform,
and are used before CNF encoding, before area/power accounting, and to
specialise a locked circuit on a fixed key (``constant_inputs``).

The fold under all of them, :meth:`InputSpecializer.fold`, also replays
circuits for every DIP pin and BMC check, so it costs one dispatch per
gate: an ``is``-chain on the gate's op into the builder's list-taking
primitives.
"""

from __future__ import annotations

import copy

from repro.errors import NetlistError
from repro.netlist.builder import LogicBuilder
from repro.netlist.gates import GateOp
from repro.netlist.netlist import Netlist


class InputSpecializer:
    """Repeated partial evaluation of one netlist on varying constants.

    Precomputes everything about the fold that does not depend on the
    constant values — the needed cone's gates in topological order and
    the reserved name list — so specialising the same circuit on many
    input assignments (the DIP-pinning hot loop) skips the two full graph
    traversals that a standalone :func:`simplified` call pays each time.
    ``specialize`` is, by construction, the same code path as
    :func:`simplified`, so results are structurally byte-identical.
    """

    def __init__(self, netlist):
        self._netlist = netlist
        self._input_set = set(netlist.inputs)
        self._reserved = list(netlist.nets())
        # Only logic feeding an output or a flop D input is rebuilt.
        roots = set(netlist.outputs)
        roots.update(flop.d for flop in netlist.flops.values())
        needed, _ = netlist.combinational_fanin(roots)
        gates = netlist.gates
        self._fold_order = [(net, gates[net]) for net in netlist.topo_order()
                            if net in needed]

    def specialize(self, constant_inputs=None, name=None):
        """Return a folded, swept copy; see :func:`simplified`."""
        netlist = self._netlist
        constant_inputs = dict(constant_inputs or {})
        for net in constant_inputs:
            if net not in self._input_set:
                raise NetlistError(
                    f"constant_inputs key {net!r} is not a primary input")

        result = Netlist(name if name is not None else netlist.name)
        for net in netlist.inputs:
            if net not in constant_inputs:
                result.add_input(net)
        for q, flop in netlist.flops.items():
            # D nets are patched after mapping; placeholder keeps Q names
            # stable.
            result.add_flop(q, q, flop.init)

        builder = LogicBuilder(result, prefix="s")
        for net in self._reserved:
            builder.names.reserve(net)

        mapping = {}
        for net in netlist.inputs:
            if net in constant_inputs:
                mapping[net] = builder.const(constant_inputs[net])
            else:
                mapping[net] = net
        for q in netlist.flops:
            mapping[q] = q
        self.fold(builder, mapping)

        for q, flop in netlist.flops.items():
            result.replace_flop_d(q, mapping[flop.d])
        for net in netlist.outputs:
            result.add_output(mapping[net])

        # Eager building can orphan gates whose consumers later folded
        # away; sweep them so the pass is idempotent.
        return sweep_dead_gates(result).validate()

    def fold(self, builder, mapping):
        """Rebuild the needed cone gate by gate through ``builder``.

        ``mapping`` sends every primary input and flop Q to a net of the
        builder's netlist (a constant net for a fixed input); it is
        extended in place with the folded image of every rebuilt gate.
        Replaying a circuit cycle by cycle through one builder, with each
        cycle's flop Qs mapped to the previous cycle's D images, unrolls
        it folded and shared.
        """
        _fold(self._fold_order, builder, mapping)

    def fanout_of(self, nets):
        """A specializer whose :meth:`fold` replays only the needed gates
        in the fan-out of ``nets`` (for :meth:`fold` alone).

        Every other gate reads only the other inputs, so it folds to the
        same net in every replay that maps those alike: a caller
        replaying the circuit on many images of ``nets`` seeds
        ``mapping`` with one full fold's images and replays the rest.
        """
        reach = set(nets)
        cone = copy.copy(self)
        cone._fold_order = []
        for net, gate in self._fold_order:
            if not reach.isdisjoint(gate.inputs):
                reach.add(net)
                cone._fold_order.append((net, gate))
        return cone


def _fold(order, builder, mapping):
    """:meth:`InputSpecializer.fold` over ``order``, a topological list
    of ``(net, gate)`` pairs."""
    and_, or_, xor_, not_ = (builder._and, builder._or, builder._xor,
                             builder.not_)
    AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF = (
        GateOp.AND, GateOp.NAND, GateOp.OR, GateOp.NOR, GateOp.XOR,
        GateOp.XNOR, GateOp.NOT, GateOp.BUF)
    for net, gate in order:
        op = gate.op
        if op is AND:
            mapping[net] = and_([mapping[src] for src in gate.inputs])
        elif op is NOT:
            mapping[net] = not_(mapping[gate.inputs[0]])
        elif op is OR:
            mapping[net] = or_([mapping[src] for src in gate.inputs])
        elif op is NAND:
            mapping[net] = not_(and_([mapping[src]
                                      for src in gate.inputs]))
        elif op is NOR:
            mapping[net] = not_(or_([mapping[src]
                                     for src in gate.inputs]))
        elif op is XOR:
            mapping[net] = xor_([mapping[src] for src in gate.inputs])
        elif op is XNOR:
            mapping[net] = not_(xor_([mapping[src]
                                      for src in gate.inputs]))
        elif op is BUF:
            mapping[net] = mapping[gate.inputs[0]]
        else:  # CONST0 / CONST1
            mapping[net] = builder.const(op is GateOp.CONST1)


def sweep_dead_gates(netlist):
    """Delete, in place, every gate outside the fanin of the outputs and
    flop D inputs; returns ``netlist``."""
    live_roots = set(netlist.outputs)
    live_roots.update(flop.d for flop in netlist.flops.values())
    live, _ = netlist.combinational_fanin(live_roots)
    for net in list(netlist.gates):
        if net not in live:
            netlist.remove_gate(net)
    return netlist


def simplified(netlist, constant_inputs=None, name=None):
    """Return a folded, swept copy of ``netlist``.

    ``constant_inputs`` maps primary-input nets to fixed 0/1 values; those
    inputs disappear from the result's interface (partial evaluation). The
    output count and order are preserved; primary-input and flop-Q names
    are preserved; internal gate names are regenerated.
    """
    return InputSpecializer(netlist).specialize(constant_inputs, name=name)


def specialise_on_inputs(netlist, assignments, name=None):
    """Alias of :func:`simplified` emphasising partial evaluation."""
    return simplified(netlist, constant_inputs=assignments, name=name)


def relabelled(netlist, prefix, name=None):
    """Copy with all *internal* (gate) nets renamed ``{prefix}{i}``.

    Interface nets (PIs, POs, flop Qs) keep their names; useful to
    normalise netlists before structural diffing in tests.
    """
    mapping = {}
    counter = 0
    interface = set(netlist.inputs) | set(netlist.outputs) | set(netlist.flops)
    for net in netlist.topo_order():
        if net in interface:
            continue
        mapping[net] = f"{prefix}{counter}"
        counter += 1
    return netlist.renamed(mapping, name=name)


def merged(target, other):
    """Graft every element of ``other`` into ``target`` (in place).

    Net names must be disjoint except where ``other`` reads nets that
    ``target`` already drives (the intended stitching mechanism). Inputs of
    ``other`` that ``target`` drives become internal connections; its other
    inputs are added as new primary inputs. Outputs of ``other`` are
    appended to ``target``'s outputs.
    """
    for net in other.inputs:
        if not target.is_driven(net):
            target.add_input(net)
    for net, gate in other.gates.items():
        target.add_gate(net, gate.op, gate.inputs)
    for q, flop in other.flops.items():
        target.add_flop(q, flop.d, flop.init)
    for net in other.outputs:
        target.add_output(net)
    return target
