"""State-transition-graph extraction and signature analysis.

Section II-C observes that locking schemes leave *behavioural* signatures
in the STG (e.g. State-Deflection's sink clusters have no outgoing edge
back to the original states), and Section V names "signature analysis on
the STG" as the open attack vector against TriLock. This module provides
the instrumentation for that study on small circuits:

* :func:`extract_stg` — exhaustive reachable-state exploration from reset
  (bit-parallel over the whole input alphabet per state);
* :func:`terminal_sccs` — sink clusters: the State-Deflection signature;
* :func:`stg_report` — signature summary of a locked circuit: reachable
  state counts, absorbing (inescapable) state fractions, and how many
  states exist only under wrong keys.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import AttackError
from repro.sim.bitvec import mask_for
from repro.sim.comb import CombSimulator

#: Exhaustive exploration guards.
_MAX_INPUT_BITS = 10
_DEFAULT_MAX_STATES = 100_000


def extract_stg(netlist, max_states=_DEFAULT_MAX_STATES):
    """Explore all states reachable from reset; returns a DiGraph.

    Nodes are integers encoding the flop values (sorted flop order, MSB
    first); each state is expanded over the complete input alphabet in
    one bit-parallel evaluation. Guarded for small input counts.
    """
    import networkx as nx  # STG analysis only: keep it off the import path

    width = len(netlist.inputs)
    if width > _MAX_INPUT_BITS:
        raise AttackError(
            f"exhaustive STG needs <= {_MAX_INPUT_BITS} inputs, "
            f"got {width}")
    flop_table = netlist.flops
    flops = sorted(flop_table)
    n_inputs = 1 << width
    mask = mask_for(n_inputs)
    sim = CombSimulator(netlist)

    # Input net -> word enumerating the whole alphabet (pattern j = j).
    alphabet = {}
    for position, net in enumerate(netlist.inputs):
        word = 0
        for value in range(n_inputs):
            if (value >> (width - 1 - position)) & 1:
                word |= 1 << value
        alphabet[net] = word

    def state_bits(state):
        return {
            q: (mask if (state >> (len(flops) - 1 - k)) & 1 else 0)
            for k, q in enumerate(flops)
        }

    reset = 0
    for k, q in enumerate(flops):
        if flop_table[q].init:
            reset |= 1 << (len(flops) - 1 - k)

    d_nets = [flop_table[q].d for q in flops]
    graph = nx.DiGraph()
    graph.add_node(reset)
    frontier = deque([reset])
    while frontier:
        state = frontier.popleft()
        source = state_bits(state)
        source.update(alphabet)
        values = sim.evaluate(source, n_inputs)
        next_words = [values[d] for d in d_nets]
        for j in range(n_inputs):
            nxt = 0
            for k, word in enumerate(next_words):
                if (word >> j) & 1:
                    nxt |= 1 << (len(flops) - 1 - k)
            if nxt not in graph:
                if graph.number_of_nodes() >= max_states:
                    raise AttackError(
                        f"STG exceeds max_states={max_states}")
                graph.add_node(nxt)
                frontier.append(nxt)
            graph.add_edge(state, nxt)
    return graph


def terminal_sccs(graph):
    """SCCs with no edge leaving them (sink clusters / absorbing sets)."""
    import networkx as nx

    condensation = nx.condensation(graph)
    sinks = []
    for node in condensation.nodes:
        if condensation.out_degree(node) == 0:
            sinks.append(set(condensation.nodes[node]["members"]))
    return sinks


@dataclass
class StgReport:
    """Behavioural signature summary of a locked circuit."""

    locked_states: int
    original_states: int
    correct_key_states: int      # states on the correct-key trajectory
    wrong_key_only_states: int   # states never visited under k*
    terminal_clusters: int       # sink SCCs in the locked STG
    largest_terminal_fraction: float
    original_terminal_clusters: int = 0  # sink SCCs before locking

    def expansion_factor(self):
        """How much locking inflated the reachable state space."""
        if self.original_states == 0:
            return 0.0
        return self.locked_states / self.original_states


def _reachable_under_key(netlist, key_vectors, stg):
    """States reachable when the first κ inputs are pinned to the key."""
    flop_table = netlist.flops
    flops = sorted(flop_table)
    d_nets = [flop_table[q].d for q in flops]
    sim = CombSimulator(netlist)
    mask = 1

    def step(state, vector):
        source = {
            q: ((state >> (len(flops) - 1 - k)) & 1)
            for k, q in enumerate(flops)
        }
        for net, bit in zip(netlist.inputs, vector):
            source[net] = 1 if bit else 0
        values = sim.evaluate(source, mask)
        nxt = 0
        for k, d in enumerate(d_nets):
            if values[d] & 1:
                nxt |= 1 << (len(flops) - 1 - k)
        return nxt

    reset = 0
    for k, q in enumerate(flops):
        if flop_table[q].init:
            reset |= 1 << (len(flops) - 1 - k)

    # Key phase: a single deterministic path.
    state = reset
    visited = {reset}
    for vector in key_vectors:
        state = step(state, vector)
        visited.add(state)

    # After the key: full alphabet BFS restricted to the precomputed STG.
    frontier = deque([state])
    post_key = {state}
    while frontier:
        current = frontier.popleft()
        for successor in stg.successors(current):
            if successor not in post_key:
                post_key.add(successor)
                frontier.append(successor)
    return visited | post_key


def stg_report(locked, max_states=_DEFAULT_MAX_STATES):
    """Signature analysis of a :class:`LockedCircuit` (small circuits)."""
    locked_stg = extract_stg(locked.netlist, max_states=max_states)
    original_stg = extract_stg(locked.original, max_states=max_states)
    correct = _reachable_under_key(
        locked.netlist, locked.key_vectors(), locked_stg)
    sinks = terminal_sccs(locked_stg)
    total = locked_stg.number_of_nodes()
    largest_sink = max((len(s) for s in sinks), default=0)
    return StgReport(
        locked_states=total,
        original_states=original_stg.number_of_nodes(),
        correct_key_states=len(correct),
        wrong_key_only_states=total - len(correct & set(locked_stg.nodes)),
        terminal_clusters=len(sinks),
        largest_terminal_fraction=largest_sink / total if total else 0.0,
        original_terminal_clusters=len(terminal_sccs(original_stg)),
    )
