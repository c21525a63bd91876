"""Bounded model checking for sequential equivalence.

Used by the sequential SAT attack to verify a candidate key beyond the
current unrolling depth, by the ``bmc`` and removal attacks, and by tests
to prove functional preservation of the locking/re-encoding transforms up
to a bound.

The check runs in up to five steps. Every circuit is folded through a
:class:`~repro.netlist.builder.LogicBuilder`, which folds constants and
shares structurally identical gates, so two nets it returns as one are
equal by construction.

1. **Prefix.** The device under test replays the fixed stimulus prefix
   (e.g. the key sequence) as builder constants on one combinational
   problem netlist, so the prefix and all the state it determines fold
   away: each of its flops holds a constant after it.
2. **Induction.** This step applies when every reference flop has a
   dut flop of the same Q name that holds the reference flop's reset
   value after the prefix. One symbolic cycle is folded on a separate
   small netlist, with one free net per primary input and per dut flop:
   the reference's flops read their namesakes' nets, and the dut's other
   flops that the prefix left constant are *held* at their constants. A
   held flop whose next state is not its constant is freed and the dut
   folded again, until none is freed. If then every output pair and
   every shared flop's next-state pair land on one net, the circuits are
   equal at every depth, and the check answers ``equivalent`` without
   the window fold or a solver. A pair left apart ends the step (later
   rounds only hold fewer constants). This is induction over a register
   correspondence (van Eijk, "Sequential equivalence checking based on
   structural similarities", IEEE TCAD 2000):

   - *Relation R*: the shared flops equal the reference's flops, and the
     held flops equal their constants.
   - *Base*: R holds after the prefix, with the reference at reset.
   - *Step*: structural hashing shows that one cycle keeps R and gives
     equal outputs, for all inputs and all values of the free flops.

   An S=0 TriLock circuit under its correct key holds the original
   registers at reset through the key cycles and its lock registers at
   constants after them, so one cycle proves it. A re-encoded (S>0) lock
   replaces the registers it re-encodes, so it fails the name check
   before any fold.
3. **Window.** Otherwise the dut goes on over the compared window, then
   the reference from reset; both read the same free input nets, one per
   primary input and cycle. Output pairs that compute the same logic of
   the window inputs land on the same net and are equal by construction;
   if all do, the answer is ``equivalent`` without a solver call.
4. **Cut hash.** Otherwise, unless 64 random patterns already tell a
   pair apart, the swept residual (the fanin cone of the differing
   pairs) is folded once more, through a
   :class:`~repro.netlist.builder.CutBuilder`, which also merges gates
   equal in function over a cut of at most four nets. State re-encoding
   (Algorithm 1) leaves such pairs under the correct key: the decoder
   reads the encoder, so ``dec(enc(s1, s2))`` is ``s1`` in function but
   not in structure, and all of it lies over the cut ``{s1, s2}``. When
   every pair lands on one net, the answer is ``equivalent`` without a
   solver call. This is sound because a cut's truth table computes its
   net from the cut's nets under every input assignment: two nets with
   the same table over the same cut are equal, and a net whose table is
   a constant, a cut net or its complement is that function.
5. **Residual solve.** Otherwise the structurally hashed residual, not
   step 4's re-fold, is encoded under a "some pair differs" miter and
   solved, so the verdict and the counterexample are those of a check
   without steps 2 and 4; a model, read back off the window inputs, is
   the counterexample.

Steps 3-5 build the same problem netlist whether or not step 2 ran.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._naming import unrolled_name
from repro.cnf import encode, miter_different_outputs
from repro.errors import AttackError
from repro.netlist import LogicBuilder, Netlist
from repro.netlist.builder import CutBuilder
from repro.netlist.transform import (InputSpecializer, _fold,
                                     sweep_dead_gates)
from repro.sat import Solver
from repro.sim import CombSimulator, make_rng, random_input_words

#: Patterns simulated on a residual before its cut re-fold.
_SIM_PATTERNS = 64


@dataclass
class BmcResult:
    """Outcome of a bounded equivalence check."""

    equivalent: bool
    depth: int
    counterexample: list | None  # per-cycle input bit tuples (shared window)
    solver_stats: dict

    def __bool__(self):
        return self.equivalent


def bounded_equivalence(reference, dut, depth, prefix_vectors=(), solver=None):
    """Check ``dut`` (after a fixed stimulus prefix) against ``reference``.

    ``prefix_vectors`` is a sequence of input bit-tuples applied to ``dut``
    for its first cycles (the key sequence, for a locked circuit); after
    the prefix, both circuits read the same inputs and must produce the
    same outputs for ``depth`` cycles. Both circuits must expose identical
    primary-input name lists and equally many outputs. ``solver`` is only
    used when some output pair meets neither by induction, structurally,
    nor by cuts.
    """
    if reference.inputs != dut.inputs:
        raise AttackError("reference and dut must share primary input names")
    if len(reference.outputs) != len(dut.outputs):
        raise AttackError("reference and dut must have equally many outputs")
    if depth <= 0:
        raise AttackError(f"depth must be positive, got {depth}")
    width = len(dut.inputs)
    for cycle, vector in enumerate(prefix_vectors):
        if len(vector) != width:
            raise AttackError(
                f"prefix vector {cycle} has width {len(vector)}, expected {width}"
            )

    problem = Netlist("bmc_problem")
    window = [[problem.add_input(unrolled_name(net, cycle)) for net in dut.inputs]
              for cycle in range(depth)]
    builder = LogicBuilder(problem, prefix="bmc")
    prefix = [[builder.const(bit) for bit in vector] for vector in prefix_vectors]
    dut_side, ref_side = _Side(dut), _Side(reference)
    _, state = dut_side.unroll(builder, dut_side.reset(builder), prefix)

    solver = solver if solver is not None else Solver()
    if _proved_by_induction(ref_side, dut_side, builder, state):
        return BmcResult(True, depth, None, solver.stats())

    dut_outputs, _ = dut_side.unroll(builder, state, window)
    ref_outputs, _ = ref_side.unroll(builder, ref_side.reset(builder), window)
    differing = [
        (dut_net, ref_net)
        for dut_cycle, ref_cycle in zip(dut_outputs, ref_outputs)
        for dut_net, ref_net in zip(dut_cycle, ref_cycle)
        if dut_net != ref_net
    ]
    if not differing:
        return BmcResult(True, depth, None, solver.stats())

    dut_nets, ref_nets = zip(*differing)
    for net in dut_nets + ref_nets:
        problem.add_output(net)
    residual = sweep_dead_gates(problem)
    if not _cut_residue(residual, differing):
        return BmcResult(True, depth, None, solver.stats())
    circuit = encode(residual)
    miter_different_outputs(circuit, dut_nets, ref_nets)
    if not solver.add_cnf(circuit.cnf) or not solver.solve():
        return BmcResult(True, depth, None, solver.stats())

    counterexample = [
        tuple(solver.model_value(circuit.var_of[net]) for net in nets)
        for nets in window
    ]
    return BmcResult(False, depth, counterexample, solver.stats())


class _Side:
    """One circuit of a check: its fold and its flop table, each built
    once and shared by the induction step and the window."""

    def __init__(self, netlist):
        self.netlist = netlist
        self.folder = InputSpecializer(netlist)
        self.flops = netlist.flops

    def reset(self, builder):
        """The reset state: flop Q -> constant net of ``builder``."""
        return {q: builder.const(flop.init) for q, flop in self.flops.items()}

    def cycle(self, builder, inputs, state):
        """Fold one cycle from ``state`` (flop Q -> net) on the input nets
        ``inputs``; returns ``(output nets, next state)``."""
        mapping = dict(zip(self.netlist.inputs, inputs))
        mapping.update(state)
        self.folder.fold(builder, mapping)
        return ([mapping[net] for net in self.netlist.outputs],
                {q: mapping[flop.d] for q, flop in self.flops.items()})

    def unroll(self, builder, state, stimulus):
        """Fold one cycle per entry of ``stimulus`` (a list of input
        nets) from ``state``; returns ``(each cycle's output nets, the
        final state)``."""
        outputs = []
        for nets in stimulus:
            cycle_outputs, state = self.cycle(builder, nets, state)
            outputs.append(cycle_outputs)
        return outputs, state


def _proved_by_induction(reference, dut, builder, state):
    """True when one symbolic cycle proves ``dut``, from ``state`` (its
    flops' nets in ``builder`` after the prefix), equal to ``reference``,
    from reset, at every depth (step 2 of the module docstring)."""
    constants = {q: value for q, net in state.items()
                 for value in (False, True) if builder.is_const(net, value)}
    if any(constants.get(q) != flop.init
           for q, flop in reference.flops.items()):
        return False
    held = {q: value for q, value in constants.items()
            if q not in reference.flops}

    step = Netlist("bmc_step")
    inputs = [step.add_input(net) for net in dut.netlist.inputs]
    free = {q: step.add_input(q) for q in state}
    step_builder = LogicBuilder(step, prefix="step")
    outputs, next_state = reference.cycle(
        step_builder, inputs, {q: free[q] for q in reference.flops})
    expected = outputs + list(next_state.values())
    while True:
        frozen = {**free, **{q: step_builder.const(value)
                             for q, value in held.items()}}
        outputs, next_state = dut.cycle(step_builder, inputs, frozen)
        if outputs + [next_state[q] for q in reference.flops] != expected:
            return False
        kept = {q: value for q, value in held.items()
                if step_builder.is_const(next_state[q], value)}
        if len(kept) == len(held):
            return True
        held = kept


def _cut_residue(residual, pairs):
    """The net pairs of ``residual`` that re-folding it through a
    :class:`CutBuilder` leaves on two different nets.

    Pairs that random patterns tell apart cannot meet, so when there are
    any (as under a wrong key) they are returned without the re-fold.
    Every gate of the swept residual is needed, and it is re-folded in
    :meth:`~repro.netlist.netlist.Netlist.gate_order`, with no fan-in
    walk or topological sort.
    """
    words = random_input_words(make_rng("bmc-residual"), residual.inputs,
                               _SIM_PATTERNS)
    values = CombSimulator(residual, keep=()).evaluate(words, _SIM_PATTERNS)
    split = [(dut_net, ref_net) for dut_net, ref_net in pairs
             if values[dut_net] != values[ref_net]]
    if split:
        return split
    refold = Netlist("bmc_cuts")
    mapping = {net: refold.add_input(net) for net in residual.inputs}
    gates = residual.gates
    _fold([(net, gates[net]) for net in residual.gate_order()],
          CutBuilder(refold, prefix="cut"), mapping)
    return [(dut_net, ref_net) for dut_net, ref_net in pairs
            if mapping[dut_net] != mapping[ref_net]]
