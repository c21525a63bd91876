"""Bit-parallel combinational evaluation.

:class:`CombSimulator` compiles a netlist once into a program of word
operations and then evaluates any number of pattern-packed stimulus words
against it. Flop Q nets are treated as additional sources, so the same
engine serves purely combinational circuits, unrolled circuits, and one
clock phase of the sequential simulator.

* **Program order.** Gates are emitted in
  :meth:`~repro.netlist.netlist.Netlist.gate_order`: insertion order,
  with any fan-in not yet emitted placed first. The generator,
  :class:`~repro.netlist.builder.LogicBuilder` and the locker mostly add
  a gate after its fan-in, and then that order is the gate table
  itself. Only a forward reference (a gate reading a net inserted after
  it, as in a ``.bench`` file or after state re-encoding re-points a
  gate) costs a depth-first walk that places each gate's missing fan-in
  just before it. Insertion order keeps each logic region's gates
  together, where a breadth-first topological sort interleaves them all.
* **Slot reuse.** Every value lives in one slot of a flat list. Sources
  (primary inputs and flop Qs), primary outputs and the nets the caller
  names in ``keep`` own their slot; any other net hands its slot to a
  later gate once its last reader has run. So the live set follows the
  circuit's width, not its size: the sequential simulator runs the
  Fig. 7 κs=4, κf=2 lock of the s38584 stand-in in 3,326 slots for its
  22,944 nets. ``keep=None`` keeps every net, which
  :meth:`CombSimulator.evaluate` needs to return them all.
* **Word ops.** A step is ``(opcode, dst, a, b)``: one two-input AND, OR
  or XOR, a complemented one, a NOT, a BUF or a constant. An n-input
  gate is n−1 steps accumulating in its own slot, the last of them
  complementing for NAND/NOR/XNOR. The complement is ``x ^ mask``:
  ``~x & mask`` detours through a negative bigint and costs about five
  times as much on a 4,800-bit word.

Every value is a Python int word (:mod:`repro.sim.bitvec`): bit ``j`` is
pattern ``j``, and ``mask`` is the all-ones word of the run's width.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from repro.errors import SimulationError
from repro.netlist.gates import GateOp
from repro.sim.bitvec import mask_for

#: Step opcodes, in the evaluator's dispatch order (most frequent first).
_OPCODES = range(10)
_AND, _OR, _NAND, _NOR, _NOT, _XOR, _BUF, _XNOR, _CONST0, _CONST1 = _OPCODES

#: Gate op -> (opcode of an n-input gate's leading steps, of its last step).
_STEPS = {
    GateOp.AND: (_AND, _AND), GateOp.NAND: (_AND, _NAND),
    GateOp.OR: (_OR, _OR), GateOp.NOR: (_OR, _NOR),
    GateOp.XOR: (_XOR, _XOR), GateOp.XNOR: (_XOR, _XNOR),
    GateOp.NOT: (_NOT, _NOT), GateOp.BUF: (_BUF, _BUF),
    GateOp.CONST0: (_CONST0, _CONST0), GateOp.CONST1: (_CONST1, _CONST1),
}


def _compile(netlist, sources, keep):
    """``(program, slot_of, n_slots)`` for a validated ``netlist`` whose
    primary inputs then flop Qs are ``sources``.

    ``slot_of`` maps every net to the slot it was written to; a reused
    slot's earlier nets keep stale entries, so callers read only sources
    and pinned nets through it.
    """
    gates = netlist.gates
    slot_of = {net: slot for slot, net in enumerate(sources)}
    pinned = set(slot_of).union(netlist.outputs,
                                gates if keep is None else keep)
    # Reads left per net; a plain dict, whose item access in the loop
    # below is faster than a Counter's.
    reads = dict(Counter(chain.from_iterable(gate.inputs
                                             for gate in gates.values())))
    dead = gates.keys() - reads.keys() - pinned
    free, program, n_slots = [], [], len(slot_of)
    for net in netlist.gate_order():
        gate = gates[net]
        # The gate's slot is taken before its inputs free theirs: its
        # later steps still read them, so none may share it.
        if free:
            dst = free.pop()
        else:
            dst, n_slots = n_slots, n_slots + 1
        ins = []
        for src in gate.inputs:
            slot = slot_of[src]
            ins.append(slot)
            left = reads[src] - 1
            reads[src] = left
            if not left and src not in pinned:  # its last read
                free.append(slot)
        first, last = _STEPS[gate.op]
        acc = ins[0] if ins else 0
        for src in ins[1:-1]:
            program.append((first, dst, acc, src))
            acc = dst
        program.append((last, dst, acc, ins[-1] if len(ins) > 1 else 0))
        slot_of[net] = dst
        if dead and net in dead:
            free.append(dst)
    return program, slot_of, n_slots


class CombSimulator:
    """Single-pass evaluator over a fixed netlist.

    Sources and primary outputs are always readable after a run; ``keep``
    names the other nets the caller reads (``None``: every net).
    """

    def __init__(self, netlist, keep=None):
        netlist.validate()
        self.netlist = netlist
        self._sources = [*netlist.inputs, *netlist.flops]
        self._program, slot_of, self._n_slots = _compile(
            netlist, self._sources, keep)
        if keep is not None:  # drop the stale entries of reused slots
            try:
                slot_of = {net: slot_of[net] for net in
                           [*self._sources, *netlist.outputs, *keep]}
            except KeyError as exc:
                raise SimulationError(
                    f"kept net {exc.args[0]!r} is not driven") from None
        self._slot_of = slot_of
        self._source_slots = [slot_of[net] for net in self._sources]
        self._output_slots = [slot_of[net] for net in netlist.outputs]

    @property
    def sources(self):
        """Nets that must be supplied: primary inputs then flop Qs."""
        return tuple(self._sources)

    @property
    def n_slots(self):
        """Length of the value list (the program's live set)."""
        return self._n_slots

    def slot(self, net):
        """Value-list index of a source, output or kept ``net``."""
        try:
            return self._slot_of[net]
        except KeyError:
            raise SimulationError(
                f"net {net!r} is not a source, an output or a kept net")

    def make_slots(self):
        """Fresh value list sized for :meth:`evaluate_slots`."""
        return [0] * self._n_slots

    def evaluate_slots(self, slots, mask):
        """Run the compiled program over the words in ``slots``.

        ``mask`` is the all-ones ``n_patterns``-bit word. Source slots
        must already hold their words, masked; the other slots are
        overwritten. Returns ``slots``.
        """
        # Locals load faster than the module's globals in the loop.
        AND, OR, NAND, NOR, NOT, XOR, BUF, XNOR, CONST0, _ = _OPCODES
        for op, dst, a, b in self._program:
            if op == AND:
                slots[dst] = slots[a] & slots[b]
            elif op == OR:
                slots[dst] = slots[a] | slots[b]
            elif op == NAND:
                slots[dst] = slots[a] & slots[b] ^ mask
            elif op == NOR:
                slots[dst] = (slots[a] | slots[b]) ^ mask
            elif op == NOT:
                slots[dst] = slots[a] ^ mask
            elif op == XOR:
                slots[dst] = slots[a] ^ slots[b]
            elif op == BUF:
                slots[dst] = slots[a]
            elif op == XNOR:
                slots[dst] = slots[a] ^ slots[b] ^ mask
            elif op == CONST0:
                slots[dst] = 0
            else:  # CONST1
                slots[dst] = mask
        return slots

    def _run(self, source_words, n_patterns):
        mask = mask_for(n_patterns)
        slots = self.make_slots()
        for net, slot in zip(self._sources, self._source_slots):
            try:
                slots[slot] = source_words[net] & mask
            except KeyError:
                raise SimulationError(f"missing stimulus for source net {net!r}")
        return self.evaluate_slots(slots, mask)

    def evaluate(self, source_words, n_patterns):
        """Evaluate all gates; returns ``{net: word}`` for every readable
        net (every driven net unless ``keep`` was given).

        ``source_words`` must assign a word to every primary input and flop
        Q net. Bits above ``n_patterns`` are ignored (masked).
        """
        slots = self._run(source_words, n_patterns)
        return {net: slots[slot] for net, slot in self._slot_of.items()}

    def evaluate_outputs(self, source_words, n_patterns):
        """Words for the primary outputs only, in declaration order."""
        slots = self._run(source_words, n_patterns)
        return [slots[slot] for slot in self._output_slots]

    def evaluate_pattern(self, assignment):
        """Single-pattern convenience: ``{net: bool} -> {net: bool}``."""
        words = {net: (1 if value else 0) for net, value in assignment.items()}
        values = self.evaluate(words, 1)
        return {net: bool(word) for net, word in values.items()}
