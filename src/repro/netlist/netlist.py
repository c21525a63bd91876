"""The sequential gate-level netlist IR used throughout the library.

A :class:`Netlist` is a set of named nets, each driven by exactly one of:

* a primary input,
* a :class:`~repro.netlist.gates.Gate` (combinational), or
* a :class:`~repro.netlist.gates.Flop` (the net is the flop's Q output).

Primary outputs are references to driven nets. The class enforces the
single-driver rule at construction time and offers the structural queries
(topological order, fanin cones, register support) that the simulator, the
CNF encoder, the locker, and the attacks all share.

Two topological gate orders serve different readers:

* :meth:`Netlist.gate_order` is the cheap one. Where every gate was
  added after the gates it reads, as the builder, the generator and the
  unroller add them, it is insertion order, proved in one pass and not
  copied; a forward reference costs one depth-first walk. Use it where
  any topological order gives the same result: :meth:`Netlist.validate`
  runs its pass, the simulator compiles in it, and the register graph is
  built over it.
* :meth:`Netlist.topo_order` is Kahn's breadth-first order. Use it where
  the order shows in the result: CNF encoding numbers solver variables
  in it, unrolling and the fold name gates in it (and so fix the DIP
  walk), and the writers and static timing follow it.
"""

from __future__ import annotations

from collections import deque
from itertools import islice, takewhile

from repro.errors import CombinationalCycleError, NetlistError
from repro.netlist.gates import Flop, Gate, GateOp, _unchecked_gate


class Netlist:
    """Mutable sequential netlist with single-driver nets."""

    def __init__(self, name="top"):
        self.name = name
        self._inputs = []
        self._input_set = set()
        self._outputs = []
        self._gates = {}
        self._flops = {}
        self._topo_cache = self._order_cache = None
        self._validated = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inputs(self):
        """Ordered tuple of primary input nets."""
        return tuple(self._inputs)

    @property
    def outputs(self):
        """Ordered tuple of primary output nets (may repeat a net)."""
        return tuple(self._outputs)

    @property
    def gates(self):
        """A copy of the gate table: driven net -> :class:`Gate`.

        Copying costs O(gates); look single nets up with :meth:`is_gate`
        and :meth:`gate` instead.
        """
        return dict(self._gates)

    @property
    def flops(self):
        """A copy of the flop table: Q net -> :class:`Flop`."""
        return dict(self._flops)

    def gate(self, net):
        """The gate driving ``net`` (KeyError if not gate-driven)."""
        return self._gates[net]

    def flop(self, net):
        """The flop whose Q is ``net`` (KeyError if not flop-driven)."""
        return self._flops[net]

    def is_input(self, net):
        return net in self._input_set

    def is_gate(self, net):
        return net in self._gates

    def is_flop(self, net):
        return net in self._flops

    def is_driven(self, net):
        return net in self._input_set or net in self._gates or net in self._flops

    def nets(self):
        """Every driven net in the netlist."""
        seen = list(self._inputs)
        seen.extend(self._gates)
        seen.extend(self._flops)
        return seen

    def num_gates(self):
        return len(self._gates)

    def num_flops(self):
        return len(self._flops)

    def stats(self):
        """Summary dict: interface widths and logic size."""
        return {
            "name": self.name,
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "flops": len(self._flops),
            "gates": len(self._gates),
        }

    def __repr__(self):
        s = self.stats()
        return (
            f"Netlist({s['name']!r}, pi={s['inputs']}, po={s['outputs']}, "
            f"ff={s['flops']}, gates={s['gates']})"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_fresh(self, net):
        if not isinstance(net, str) or not net:
            raise NetlistError(f"net name must be a non-empty str, got {net!r}")
        if self.is_driven(net):
            raise NetlistError(f"net {net!r} already has a driver")

    def add_input(self, net):
        """Declare ``net`` as a primary input; returns the net name."""
        self._check_fresh(net)
        self._inputs.append(net)
        self._input_set.add(net)
        self._topo_cache = self._order_cache = None
        self._validated = False
        return net

    def add_output(self, net):
        """Mark an existing (or later-driven) net as a primary output."""
        if not isinstance(net, str) or not net:
            raise NetlistError(f"output net must be a non-empty str, got {net!r}")
        self._outputs.append(net)
        self._validated = False
        return net

    def clear_outputs(self):
        """Remove all primary-output markers (drivers stay in place)."""
        self._outputs = []
        self._validated = False

    def set_output(self, position, net):
        """Re-point output ``position`` at a different net (order kept)."""
        if not 0 <= position < len(self._outputs):
            raise NetlistError(f"output position {position} out of range")
        if not isinstance(net, str) or not net:
            raise NetlistError(f"output net must be a non-empty str, got {net!r}")
        self._outputs[position] = net
        self._validated = False

    def add_gate(self, net, op, inputs=()):
        """Drive ``net`` with ``op(inputs)``; returns the net name."""
        self._check_fresh(net)
        self._gates[net] = Gate(op, tuple(inputs))
        self._topo_cache = self._order_cache = None
        self._validated = False
        return net

    def _insert_gate(self, net, op, inputs):
        """:meth:`add_gate` without its checks, for
        :class:`~repro.netlist.builder.LogicBuilder`: ``net`` is a name
        its factory just made fresh, and ``inputs`` the canonical tuple
        its primitives built."""
        self._gates[net] = _unchecked_gate(op, inputs)
        self._topo_cache = self._order_cache = None
        self._validated = False

    def add_flop(self, q, d, init=False):
        """Drive ``q`` with a flop loading ``d``; returns the Q net name."""
        self._check_fresh(q)
        self._flops[q] = Flop(d, init)
        self._topo_cache = self._order_cache = None
        self._validated = False
        return q

    def replace_gate(self, net, op, inputs=()):
        """Swap the gate driving ``net`` (net must be gate-driven)."""
        if net not in self._gates:
            raise NetlistError(f"net {net!r} is not gate-driven")
        self._gates[net] = Gate(op, tuple(inputs))
        self._topo_cache = self._order_cache = None
        self._validated = False

    def replace_flop_d(self, q, d):
        """Re-point flop ``q``'s D input at net ``d``."""
        if q not in self._flops:
            raise NetlistError(f"net {q!r} is not flop-driven")
        self._flops[q] = Flop(d, self._flops[q].init)
        self._topo_cache = self._order_cache = None
        self._validated = False

    def remove_flop(self, q):
        """Delete flop ``q`` (the Q net becomes undriven)."""
        if q not in self._flops:
            raise NetlistError(f"net {q!r} is not flop-driven")
        del self._flops[q]
        self._topo_cache = self._order_cache = None
        self._validated = False

    def remove_gate(self, net):
        """Delete the gate driving ``net`` (the net becomes undriven)."""
        if net not in self._gates:
            raise NetlistError(f"net {net!r} is not gate-driven")
        del self._gates[net]
        self._topo_cache = self._order_cache = None
        self._validated = False

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def referenced_nets(self):
        """Every net that appears as a gate input, flop D, or output."""
        referenced = set()
        for gate in self._gates.values():
            referenced.update(gate.inputs)
        for flop in self._flops.values():
            referenced.add(flop.d)
        referenced.update(self._outputs)
        return referenced

    def undriven_nets(self):
        """Referenced nets without a driver (empty for a valid netlist)."""
        return {net for net in self.referenced_nets() if not self.is_driven(net)}

    def validate(self):
        """Raise :class:`NetlistError` on dangling nets or comb cycles.

        Proved in one insertion-order pass when every gate reads only
        nets driven before it; a forward reference costs the fan-in walk
        of :meth:`gate_order`. Returns at once when nothing was mutated
        since the last success.
        """
        if self._validated:
            return self
        driven = self._input_set.union(self._flops)
        self._order_cache = self._ordered(driven)
        if not driven.issuperset([*self._outputs, *(
                flop.d for flop in self._flops.values())]):
            self._raise_if_undriven()
        self._validated = True
        return self

    def _raise_if_undriven(self):
        dangling = self.undriven_nets()
        if dangling:
            preview = ", ".join(sorted(dangling)[:8])
            raise NetlistError(f"undriven nets: {preview}")

    def gate_order(self):
        """Gate nets, each after every gate it reads (cached).

        This is insertion order when that is already topological, and
        then the gate table's own key view (no copy). Otherwise each
        gate's fan-in not yet placed is walked depth-first and placed
        just before it, so logic regions added together stay together.
        Raises like :meth:`validate` on an undriven gate input or a
        cycle. Never mutate the result; a mutation of the netlist
        invalidates it.
        """
        if self._order_cache is None:
            self._order_cache = self._ordered(
                self._input_set.union(self._flops))
        return self._order_cache

    def _ordered(self, placed):
        """:meth:`gate_order`, computed; adds every gate to ``placed``, a
        fresh set of the sources."""
        gates = self._gates
        covered, add = placed.issuperset, placed.add
        for net, gate in gates.items():
            if not covered(gate.inputs):
                break
            add(net)
        else:
            return gates.keys()
        order = list(takewhile(placed.__contains__, gates))
        expanded = set()
        for root in islice(gates, len(order), None):
            stack = [root]
            while stack:
                net = stack[-1]
                if net in placed:
                    stack.pop()
                    continue
                gate = gates.get(net)
                if gate is None:  # read but undriven, so this raises
                    self._raise_if_undriven()
                missing = [src for src in gate.inputs if src not in placed]
                if not missing:
                    add(stack.pop())
                    order.append(net)
                elif net not in expanded:
                    expanded.add(net)
                    stack.extend(missing)
                else:
                    # Back on top with fan-in still missing: a cycle.
                    # Undriven nets, if any, are reported first.
                    self._raise_if_undriven()
                    raise CombinationalCycleError(self._kahn()[1])
        return order

    def topo_order(self):
        """Gate nets in Kahn's breadth-first topological order (cached).

        Primary inputs and flop Q nets are sources and are not listed; the
        order is valid for single-pass evaluation of all gates. The list
        is shared with copies of this netlist: never mutate it.
        """
        if self._topo_cache is None:
            order, blocked = self._kahn()
            if blocked:
                raise CombinationalCycleError(blocked)
            self._topo_cache = order
        return self._topo_cache

    def _kahn(self):
        """``(order, blocked)``: Kahn's peel, and the sorted gates it
        cannot order (those on or downstream of a cycle)."""
        indegree = {}
        consumers = {}
        for net, gate in self._gates.items():
            count = 0
            for src in gate.inputs:
                if src in self._gates:
                    count += 1
                    consumers.setdefault(src, []).append(net)
            indegree[net] = count

        ready = deque(net for net, count in indegree.items() if count == 0)
        order = []
        while ready:
            net = ready.popleft()
            order.append(net)
            for sink in consumers.get(net, ()):
                indegree[sink] -= 1
                if indegree[sink] == 0:
                    ready.append(sink)
        return order, sorted(net for net, count in indegree.items()
                             if count > 0)

    def fanout_map(self):
        """Map net -> list of gate/flop nets that consume it."""
        fanout = {}
        for net, gate in self._gates.items():
            for src in gate.inputs:
                fanout.setdefault(src, []).append(net)
        for q, flop in self._flops.items():
            fanout.setdefault(flop.d, []).append(q)
        return fanout

    def combinational_fanin(self, nets):
        """Transitive combinational fanin of ``nets``.

        Returns ``(cone_gates, sources)`` where ``cone_gates`` is the set of
        gate-driven nets in the cone and ``sources`` the set of non-gate
        nets (primary inputs / flop Qs) the cone reads.
        """
        cone = set()
        sources = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in self._gates:
                if net in cone:
                    continue
                cone.add(net)
                stack.extend(self._gates[net].inputs)
            elif self.is_driven(net):
                sources.add(net)
            else:
                raise NetlistError(f"undriven net in fanin traversal: {net!r}")
        return cone, sources

    def register_support(self, net):
        """Flop Q nets in the combinational fanin cone of ``net``."""
        _, sources = self.combinational_fanin([net])
        return {src for src in sources if src in self._flops}

    def logic_levels(self):
        """Map gate net -> combinational depth (sources are level 0)."""
        levels = {}
        for net in self.topo_order():
            gate = self._gates[net]
            if gate.op in (GateOp.CONST0, GateOp.CONST1):
                levels[net] = 0
                continue
            depth = 0
            for src in gate.inputs:
                depth = max(depth, levels.get(src, 0))
            levels[net] = depth + 1
        return levels

    # ------------------------------------------------------------------
    # Copies and renaming
    # ------------------------------------------------------------------
    def copy(self, name=None):
        """Deep-enough copy (gates/flops are immutable value objects).

        The copy shares the cached topological order and inherits the
        validated state; its own mutators clear both.
        """
        dup = Netlist(name if name is not None else self.name)
        dup._inputs = list(self._inputs)
        dup._input_set = set(self._input_set)
        dup._outputs = list(self._outputs)
        dup._gates = dict(self._gates)
        dup._flops = dict(self._flops)
        dup._topo_cache = self._topo_cache
        if isinstance(self._order_cache, list):  # not a key view of ours
            dup._order_cache = self._order_cache
        dup._validated = self._validated
        return dup

    def renamed(self, mapping, name=None):
        """Copy with every net renamed through ``mapping`` (others kept).

        ``mapping`` must be injective on the nets it covers; collisions with
        unmapped nets raise :class:`NetlistError`.
        """
        def translate(net):
            return mapping.get(net, net)

        dup = Netlist(name if name is not None else self.name)
        for net in self._inputs:
            dup.add_input(translate(net))
        for net, gate in self._gates.items():
            dup.add_gate(translate(net), gate.op, [translate(s) for s in gate.inputs])
        for q, flop in self._flops.items():
            dup.add_flop(translate(q), translate(flop.d), flop.init)
        for net in self._outputs:
            dup.add_output(translate(net))
        return dup

    def with_prefix(self, prefix, name=None):
        """Copy with ``prefix`` prepended to every net name."""
        mapping = {net: prefix + net for net in self.nets()}
        return self.renamed(mapping, name=name)
