"""Bounded model checking for sequential equivalence.

Used by the sequential SAT attack to verify a candidate key beyond the
current unrolling depth, by the ``bmc`` and removal attacks, and by tests
to prove functional preservation of the locking/re-encoding transforms up
to a bound.

The check runs in four steps on one combinational problem netlist:

1. **Fold.** Both circuits are unrolled cycle by cycle through one
   :class:`~repro.netlist.builder.LogicBuilder`. The device under test
   first replays the fixed stimulus prefix (e.g. the key sequence) as
   builder constants, so the prefix and all the state it determines fold
   away; over the compared window both circuits then read the same free
   input nets, one per primary input and cycle.
2. **Hash.** The builder shares structurally identical gates, so output
   pairs that compute the same logic of the window inputs land on the
   same net and are equal by construction. A TriLock circuit under its
   correct key holds the original registers at reset through the key
   cycles, so its post-key logic is the original's gate for gate: every
   pair hashes together and the check answers ``equivalent`` without a
   solver call.
3. **Cut hash.** Otherwise, unless 64 random patterns already tell a
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
4. **Residual solve.** Otherwise the structurally hashed residual, not
   step 3's re-fold, is encoded under a "some pair differs" miter and
   solved, so the verdict and the counterexample are those of a check
   without step 3; a model, read back off the window inputs, is the
   counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._naming import unrolled_name
from repro.cnf import encode, miter_different_outputs
from repro.errors import AttackError
from repro.netlist import LogicBuilder, Netlist
from repro.netlist.builder import CutBuilder
from repro.netlist.transform import InputSpecializer, sweep_dead_gates
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
    used when some output pair meets neither structurally nor by cuts.
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
    dut_outputs = list(_unrolled_outputs(dut, builder, prefix + window))
    ref_outputs = _unrolled_outputs(reference, builder, window)
    differing = [
        (dut_net, ref_net)
        for dut_cycle, ref_cycle in zip(dut_outputs[len(prefix):], ref_outputs)
        for dut_net, ref_net in zip(dut_cycle, ref_cycle)
        if dut_net != ref_net
    ]

    solver = solver if solver is not None else Solver()
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


def _cut_residue(residual, pairs):
    """The net pairs of ``residual`` that re-folding it through a
    :class:`CutBuilder` leaves on two different nets.

    Pairs that random patterns tell apart cannot meet, so when there are
    any (as under a wrong key) they are returned without the re-fold.
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
    InputSpecializer(residual).fold(CutBuilder(refold, prefix="cut"), mapping)
    return [(dut_net, ref_net) for dut_net, ref_net in pairs
            if mapping[dut_net] != mapping[ref_net]]


def _unrolled_outputs(netlist, builder, stimulus):
    """Replay ``netlist`` from reset through ``builder``, one cycle per
    entry of ``stimulus`` (a list of input nets); yields each cycle's
    output nets."""
    folder = InputSpecializer(netlist)
    flops = list(netlist.flops.items())
    state = {q: builder.const(flop.init) for q, flop in flops}
    for nets in stimulus:
        mapping = dict(zip(netlist.inputs, nets))
        mapping.update(state)
        folder.fold(builder, mapping)
        state = {q: mapping[flop.d] for q, flop in flops}
        yield [mapping[net] for net in netlist.outputs]
