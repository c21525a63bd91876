"""Register connection graph (RCG).

Nodes are registers (flop Q nets); a directed edge ``a -> b`` exists iff
a purely combinational path leads from ``a``'s Q output to ``b``'s D
input (Section III-C). Both Algorithm 1 (the defender) and the removal
attack (the adversary) operate on this graph.

:class:`RegisterGraph` is integer-indexed: node ``i`` is the ``i``-th
flop of ``netlist.flops``, and each node's fan-in and fan-out is an int
bitset (bit ``j`` set = an edge from / to node ``j``). Node sets -- SCCs,
closures, provenance classes -- are bitsets too. :class:`SccPartition`
keeps the SCC decomposition current across Algorithm 1's node merges
without decomposing the graph again.
"""

from __future__ import annotations

#: Register provenance kinds (see ``LockedCircuit.register_provenance``).
KINDS = ("original", "extra", "encoded")


def members(bits):
    """Node indices of the bitset ``bits``, ascending."""
    if bits.bit_count() * 6 > bits.bit_length():
        # Dense: one scan of the binary digits beats a bit-by-bit peel.
        return [node for node, digit in enumerate(bin(bits)[:1:-1])
                if digit == "1"]
    nodes = []
    while bits:
        low = bits & -bits
        nodes.append(low.bit_length() - 1)
        bits ^= low
    return nodes


class RegisterGraph:
    """The RCG with int-bitset adjacency.

    ``names[i]`` is node ``i``'s register, ``preds[i]`` / ``succs[i]``
    its fan-in / fan-out bitsets, ``degrees[i]`` its in- plus out-degree
    (a self-loop counts twice) and ``weights[i]`` the number of physical
    registers it stands for (1, or more for a node merged by
    :meth:`merge`). ``masks`` maps each provenance kind to the bitset of
    its nodes; a register missing from ``provenance`` is original.
    """

    def __init__(self, names, preds, provenance=None):
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.preds = list(preds)
        self.succs = [0] * len(self.names)
        for b, bits in enumerate(self.preds):
            for a in members(bits):
                self.succs[a] |= 1 << b
        self.degrees = [p.bit_count() + s.bit_count()
                        for p, s in zip(self.preds, self.succs)]
        self.weights = [1] * len(self.names)
        self.alive = (1 << len(self.names)) - 1
        self.masks = dict.fromkeys(KINDS, 0)
        provenance = provenance or {}
        for i, name in enumerate(self.names):
            kind = provenance.get(name, "original")
            self.masks[kind] = self.masks.get(kind, 0) | 1 << i

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def names_of(self, bits):
        """The registers of a node bitset, as a set of names."""
        return {self.names[i] for i in members(bits)}

    def fanin(self, name):
        """Registers feeding ``name``'s D input combinationally."""
        return self.names_of(self.preds[self.index[name]])

    def classify(self, bits):
        """Table II class of a node set: ``"O"`` (all original), ``"E"``
        (all extra) or ``"M"`` (mixed, or holding an encoded node)."""
        present = [kind for kind, mask in self.masks.items() if bits & mask]
        if "encoded" in present or len(present) > 1:
            return "M"
        return "O" if present == ["original"] else "E"

    def is_cyclic(self, bits):
        """True if an SCC holds a cycle (size >= 2, or a self-loop)."""
        if bits & (bits - 1):
            return True
        node = bits.bit_length() - 1
        return bool(self.succs[node] >> node & 1)

    def forward(self, bits, within=-1):
        """``bits`` plus every node reachable from it through ``within``."""
        return self._closure(bits, self.succs, within)

    def backward(self, bits, within=-1):
        """``bits`` plus every node that reaches it through ``within``."""
        return self._closure(bits, self.preds, within)

    @staticmethod
    def _closure(bits, adjacency, within):
        reach = frontier = bits
        while frontier:
            step = 0
            for node in members(frontier):
                step |= adjacency[node]
            frontier = step & within & ~reach
            reach |= frontier
        return reach

    def sccs(self):
        """Full SCC decomposition (Tarjan) of the live nodes, as bitsets
        ordered by their earliest node."""
        succ_lists = [members(bits) for bits in self.succs]
        index = [-1] * len(self.names)
        low = [0] * len(self.names)
        on_stack = [False] * len(self.names)
        stack = []
        components = []
        counter = 0
        for root in members(self.alive):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(succ_lists[root]))]
            while work:
                node, successors = work[-1]
                for succ in successors:
                    if index[succ] < 0:
                        index[succ] = low[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack[succ] = True
                        work.append((succ, iter(succ_lists[succ])))
                        break
                    if on_stack[succ] and index[succ] < low[node]:
                        low[node] = index[succ]
                else:
                    work.pop()
                    if work and low[node] < low[work[-1][0]]:
                        low[work[-1][0]] = low[node]
                    if low[node] == index[node]:
                        component = 0
                        while True:
                            member = stack.pop()
                            on_stack[member] = False
                            component |= 1 << member
                            if member == node:
                                break
                        components.append(component)
        return sorted(components, key=lambda bits: bits & -bits)

    def cyclic_sccs(self):
        """The SCCs that hold a cycle, ordered by their earliest node."""
        return [bits for bits in self.sccs() if self.is_cyclic(bits)]

    # ------------------------------------------------------------------
    # Algorithm 1's update_graph
    # ------------------------------------------------------------------
    def merge(self, a, b, name, weight):
        """Replace nodes ``a`` and ``b`` by one encoded node that inherits
        both fan-ins and fan-outs; returns the new node's index."""
        pair = 1 << a | 1 << b
        node = len(self.names)
        bit = 1 << node
        preds = self.preds[a] | self.preds[b]
        succs = self.succs[a] | self.succs[b]
        if preds & pair:
            preds = preds & ~pair | bit
        if succs & pair:
            succs = succs & ~pair | bit
        for p in members(preds & ~bit):
            self.succs[p] = self.succs[p] & ~pair | bit
        for s in members(succs & ~bit):
            self.preds[s] = self.preds[s] & ~pair | bit
        for neighbour in members((preds | succs) & ~bit):
            self.degrees[neighbour] = (self.preds[neighbour].bit_count()
                                       + self.succs[neighbour].bit_count())
        for dead in (a, b):
            self.preds[dead] = self.succs[dead] = self.degrees[dead] = 0
        self.alive = self.alive & ~pair | bit
        for kind in self.masks:
            self.masks[kind] &= ~pair
        self.masks["encoded"] |= bit
        self.names.append(name)
        self.index[name] = node
        self.preds.append(preds)
        self.succs.append(succs)
        self.degrees.append(preds.bit_count() + succs.bit_count())
        self.weights.append(weight)
        return node


def build_rcg(netlist, provenance=None):
    """The :class:`RegisterGraph` of ``netlist``, built in one pass over
    :meth:`~repro.netlist.netlist.Netlist.gate_order` that ORs the
    register bitsets of each gate's inputs."""
    flops = netlist.flops
    gates = netlist.gates
    support = {q: 1 << i for i, q in enumerate(flops)}
    for net in netlist.gate_order():
        acc = 0
        for src in gates[net].inputs:
            acc |= support.get(src, 0)
        support[net] = acc
    return RegisterGraph(
        flops, [support.get(flop.d, 0) for flop in flops.values()],
        provenance)


class SccPartition:
    """The SCCs of a :class:`RegisterGraph`, kept current across merges.

    Built from one full decomposition. A merge adds edges only at the
    merged node, so the merged node's SCC -- its forward closure meet
    its backward closure -- is the only one that changes: it absorbs the
    SCCs of both merged nodes and every SCC it meets. The others keep
    their cached weight and max degree, except that a neighbour of the
    merged pair may lose an edge, so the max degree of its SCC is
    recomputed.

    ``components`` maps each SCC's earliest node to ``(bits, weight,
    max degree, class)``.
    """

    def __init__(self, graph):
        self.graph = graph
        self.components = {}
        self.owner = [None] * len(graph.names)
        for bits in graph.sccs():
            self._add(bits)

    def _add(self, bits):
        graph = self.graph
        nodes = members(bits)
        self.components[nodes[0]] = (
            bits,
            sum(graph.weights[node] for node in nodes),
            max(graph.degrees[node] for node in nodes),
            graph.classify(bits),
        )
        for node in nodes:
            self.owner[node] = nodes[0]

    def merge(self, a, b, name, weight):
        """:meth:`RegisterGraph.merge`, then update the SCCs."""
        graph = self.graph
        node = graph.merge(a, b, name, weight)
        bit = 1 << node
        # Every path from the node to a node that reaches it stays
        # inside the backward closure, so the forward pass can too.
        merged = graph.forward(bit, within=graph.backward(bit))
        absorbed = {self.owner[a], self.owner[b]}
        absorbed.update(self.owner[old] for old in members(merged & ~bit))
        for key in absorbed:
            del self.components[key]
        self.owner.append(None)
        self._add(merged)
        neighbours = (graph.preds[node] | graph.succs[node]) & ~merged
        for key in {self.owner[member] for member in members(neighbours)}:
            bits, weight_sum, _, kind = self.components[key]
            self.components[key] = (
                bits, weight_sum,
                max(graph.degrees[member] for member in members(bits)), kind)
        return node

    def sccs(self):
        """The current SCC bitsets, ordered by their earliest node."""
        return [self.components[key][0] for key in sorted(self.components)]
