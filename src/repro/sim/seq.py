"""Cycle-accurate sequential simulation (bit-parallel).

The simulator applies one stimulus word-set per clock cycle, captures
primary outputs combinationally in the same cycle, and advances all flops
on the clock edge. Reset state comes from each flop's ``init`` field
(all-zero for the circuits in this reproduction) unless overridden; an
overriding state is masked to ``n_patterns`` bits, like the stimulus.

A clock phase is one run of a :class:`~repro.sim.comb.CombSimulator`
program, compiled once per netlist: gates in insertion order with any
missing fan-in first, n−1 two-input word ops per n-input gate, and every
complement taken as ``x ^ mask``. The simulator reads back only the
primary outputs and the flop D nets, so those and the sources (primary
inputs and flop Qs) are the only nets that own a slot; every other net's
slot goes to a later gate after its last read. A cycle therefore walks a
live set a fraction of the netlist's size (3,326 slots for the 22,944 nets
of the Fig. 7 κs=4, κf=2 lock of the s38584 stand-in). At the clock edge
every D is read before any Q is written, since a D may be another flop's
Q.

Every word is a Python int (:mod:`repro.sim.bitvec`), from one pattern
to the 2^20 of the widest exhaustive error table. This is the stand-in
for the paper's Synopsys VCS runs: identical two-valued semantics, with
800 random input/key samples per depth packed into one pass for the
functional-corruptibility experiments.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.bitvec import mask_for, pack_patterns, unpack_patterns
from repro.sim.comb import CombSimulator


class SequentialSimulator:
    """Multi-cycle simulator over a fixed sequential netlist."""

    def __init__(self, netlist):
        self.netlist = netlist
        self._flops = list(netlist.flops.items())
        self._comb = CombSimulator(
            netlist, keep=[flop.d for _q, flop in self._flops])
        comb = self._comb
        self._input_slots = [(net, comb.slot(net)) for net in netlist.inputs]
        self._output_slots = [comb.slot(net) for net in netlist.outputs]
        self._flop_slots = [(comb.slot(q), comb.slot(flop.d))
                            for q, flop in self._flops]

    @property
    def n_slots(self):
        """Values a run keeps live: the compiled program's slot count."""
        return self._comb.n_slots

    def reset_state(self, n_patterns):
        """Initial ``{q: word}`` state from flop init values."""
        mask = mask_for(n_patterns)
        return {
            q: (mask if flop.init else 0) for q, flop in self._flops
        }

    def run(self, input_words_per_cycle, n_patterns, initial_state=None):
        """Simulate ``len(input_words_per_cycle)`` cycles.

        ``input_words_per_cycle`` is a sequence of ``{input_net: word}``
        dicts. Returns ``(outputs_per_cycle, final_state)`` where each
        outputs entry is the list of PO words for that cycle.
        """
        mask = mask_for(n_patterns)
        state = self.reset_state(n_patterns) if initial_state is None else {
            q: word & mask for q, word in initial_state.items()}
        if set(state) != set(self.netlist.flops):
            raise SimulationError("initial_state must cover exactly the flop Q nets")

        comb = self._comb
        slots = comb.make_slots()
        for (q, _flop), (q_slot, _d_slot) in zip(self._flops,
                                                 self._flop_slots):
            slots[q_slot] = state[q]
        outputs_per_cycle = []
        for cycle, input_words in enumerate(input_words_per_cycle):
            for net, slot in self._input_slots:
                try:
                    slots[slot] = input_words[net] & mask
                except KeyError:
                    raise SimulationError(
                        f"cycle {cycle}: missing stimulus for input {net!r}"
                    )
            comb.evaluate_slots(slots, mask)
            outputs_per_cycle.append([slots[slot]
                                      for slot in self._output_slots])
            # Clock edge: all flops capture simultaneously — snapshot
            # the D values before writing any Q slot (a flop's D may be
            # another flop's Q).
            captured = [slots[d_slot] for _q, d_slot in self._flop_slots]
            for (q_slot, _d), value in zip(self._flop_slots, captured):
                slots[q_slot] = value
        state = {q: slots[q_slot] for (q, _flop), (q_slot, _d)
                 in zip(self._flops, self._flop_slots)}
        return outputs_per_cycle, state

    def run_vectors(self, vectors, initial_state=None):
        """Single-pattern convenience API.

        ``vectors`` is a list of per-cycle bit tuples ordered like
        ``netlist.inputs``. Returns the list of per-cycle PO bit tuples.
        """
        inputs = self.netlist.inputs
        words_per_cycle = []
        for cycle, vector in enumerate(vectors):
            if len(vector) != len(inputs):
                raise SimulationError(
                    f"cycle {cycle}: vector width {len(vector)} != {len(inputs)} inputs"
                )
            words_per_cycle.append(pack_patterns([vector], inputs))
        state = None
        if initial_state is not None:
            state = {q: (1 if bit else 0) for q, bit in initial_state.items()}
        output_words, _ = self.run(words_per_cycle, 1, initial_state=state)
        return [
            tuple(bool(word & 1) for word in cycle_words)
            for cycle_words in output_words
        ]

    def run_pattern_matrix(self, per_cycle_patterns, initial_state=None):
        """Many independent traces at once.

        ``per_cycle_patterns[c][j]`` is the input bit-tuple of trace ``j``
        at cycle ``c`` (all cycles must carry the same trace count).
        Returns per-cycle lists of per-trace PO bit tuples.
        """
        if not per_cycle_patterns:
            return []
        n_patterns = len(per_cycle_patterns[0])
        inputs = self.netlist.inputs
        words_per_cycle = []
        for cycle, patterns in enumerate(per_cycle_patterns):
            if len(patterns) != n_patterns:
                raise SimulationError(
                    f"cycle {cycle}: expected {n_patterns} traces, got {len(patterns)}"
                )
            words_per_cycle.append(pack_patterns(patterns, inputs))
        output_words, _ = self.run(words_per_cycle, n_patterns,
                                   initial_state=initial_state)
        outputs = self.netlist.outputs
        return [
            unpack_patterns(dict(zip(outputs, cycle_words)), outputs, n_patterns)
            for cycle_words in output_words
        ]
