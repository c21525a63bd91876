"""Structural analysis helpers for netlists.

These are read-only queries layered on top of :class:`Netlist`, shared by
the technology model (depth, fanout), the benchmark generator (profile
checks), and the experiment reports.
"""

from __future__ import annotations

from collections import Counter

from repro.netlist.gates import GateOp


def gate_histogram(netlist):
    """Counter of gate operators, e.g. ``{AND: 12, NOT: 4}``."""
    return Counter(gate.op for gate in netlist.gates.values())


def logic_depth(netlist):
    """Maximum combinational depth (0 for a gate-free netlist)."""
    levels = netlist.logic_levels()
    return max(levels.values(), default=0)


def fanout_histogram(netlist):
    """Counter of fanout degree per driven net (unconnected nets -> 0)."""
    fanout = netlist.fanout_map()
    output_uses = Counter(netlist.outputs)
    histogram = Counter()
    for net in netlist.nets():
        histogram[len(fanout.get(net, ())) + output_uses.get(net, 0)] += 1
    return histogram


def max_fanout(netlist):
    """Largest fanout degree of any net."""
    fanout = netlist.fanout_map()
    output_uses = Counter(netlist.outputs)
    best = 0
    for net in netlist.nets():
        best = max(best, len(fanout.get(net, ())) + output_uses.get(net, 0))
    return best


def interface_signature(netlist):
    """Hashable summary of the I/O contract (names and order)."""
    return (netlist.inputs, netlist.outputs, tuple(sorted(netlist.flops)))


def transitive_register_fanin(netlist, q):
    """Set of flop Q nets whose value can reach flop ``q``'s D input
    through combinational logic only (one clock edge of influence)."""
    return netlist.register_support(netlist.flop(q).d)


def cone_size(netlist, net):
    """Number of gates in the combinational fanin cone of ``net``."""
    cone, _ = netlist.combinational_fanin([net])
    return len(cone)


def summarize(netlist):
    """Human-readable multi-line structural summary."""
    stats = netlist.stats()
    histogram = gate_histogram(netlist)
    ops = ", ".join(f"{op}:{count}" for op, count in sorted(
        histogram.items(), key=lambda item: item[0].value))
    lines = [
        f"netlist {stats['name']}",
        f"  PI={stats['inputs']} PO={stats['outputs']} "
        f"FF={stats['flops']} gates={stats['gates']}",
        f"  depth={logic_depth(netlist)} max_fanout={max_fanout(netlist)}",
        f"  ops: {ops}",
    ]
    return "\n".join(lines)


def is_purely_combinational(netlist):
    """True when the netlist has no flops."""
    return netlist.num_flops() == 0


def constant_output_indices(netlist):
    """Indices of primary outputs driven by constant gates (post-fold)."""
    constants = (GateOp.CONST0, GateOp.CONST1)
    return [position for position, net in enumerate(netlist.outputs)
            if netlist.is_gate(net) and netlist.gate(net).op in constants]
