"""Tests for bit-parallel simulation: packing, comb engine, sequential."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.bench.iscas import load_embedded
from repro.netlist import GateOp, Netlist
from repro.sim import (
    CombSimulator,
    SequentialSimulator,
    bit_at,
    bits_to_int,
    int_to_bits,
    make_rng,
    mask_for,
    pack_column,
    pack_patterns,
    popcount,
    random_sequence_words,
    random_vectors,
    unpack_column,
    unpack_patterns,
)

from tests.util import (
    all_assignments,
    random_comb_netlist,
    random_seq_netlist,
    reference_eval,
    reference_outputs,
    reference_sequential_run,
)

pytestmark = pytest.mark.smoke


class TestBitvec:
    def test_pack_unpack_roundtrip(self):
        values = [True, False, False, True, True]
        assert unpack_column(pack_column(values), 5) == values

    def test_mask_and_popcount(self):
        assert mask_for(5) == 0b11111
        assert popcount(0b10110) == 3
        with pytest.raises(SimulationError):
            mask_for(0)

    def test_bit_at(self):
        word = pack_column([False, True, True])
        assert not bit_at(word, 0)
        assert bit_at(word, 2)

    def test_pack_patterns_transposes(self):
        words = pack_patterns([(1, 0), (1, 1), (0, 1)], ["a", "b"])
        assert unpack_column(words["a"], 3) == [True, True, False]
        assert unpack_column(words["b"], 3) == [False, True, True]

    def test_pack_patterns_width_check(self):
        with pytest.raises(SimulationError):
            pack_patterns([(1, 0, 1)], ["a", "b"])

    def test_unpack_patterns_inverse(self):
        patterns = [(True, False), (False, False), (True, True)]
        words = pack_patterns(patterns, ["a", "b"])
        assert unpack_patterns(words, ["a", "b"], 3) == patterns

    @given(value=st.integers(0, 255))
    @settings(max_examples=32, deadline=None)
    def test_int_bits_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 8)) == value


class TestCombSimulator:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_on_all_patterns(self, seed):
        netlist = random_comb_netlist(seed)
        sim = CombSimulator(netlist)
        assignments = list(all_assignments(netlist.inputs))
        patterns = [tuple(a[net] for net in netlist.inputs) for a in assignments]
        words = pack_patterns(patterns, netlist.inputs)
        outputs = sim.evaluate_outputs(words, len(patterns))
        for index, assignment in enumerate(assignments):
            expected = reference_outputs(netlist, assignment)
            got = tuple(bit_at(word, index) for word in outputs)
            assert got == expected

    def test_missing_source_raises(self):
        netlist = random_comb_netlist(0)
        sim = CombSimulator(netlist)
        with pytest.raises(SimulationError, match="missing stimulus"):
            sim.evaluate({}, 1)

    def test_evaluate_pattern_convenience(self):
        netlist = random_comb_netlist(1)
        sim = CombSimulator(netlist)
        assignment = dict.fromkeys(netlist.inputs, True)
        values = sim.evaluate_pattern(assignment)
        reference = reference_outputs(netlist, assignment)
        assert tuple(values[net] for net in netlist.outputs) == reference

    def test_flop_qs_are_sources(self):
        netlist = random_seq_netlist(2)
        sim = CombSimulator(netlist)
        assert set(sim.sources) == set(netlist.inputs) | set(netlist.flops)


class TestSequentialSimulator:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_trace(self, seed):
        netlist = random_seq_netlist(seed)
        sim = SequentialSimulator(netlist)
        vectors = random_vectors(make_rng(seed + 100), len(netlist.inputs), 10)
        assert sim.run_vectors(vectors) == reference_sequential_run(netlist, vectors)

    def test_bit_parallel_traces_match_scalar_runs(self):
        netlist = random_seq_netlist(4)
        sim = SequentialSimulator(netlist)
        rng = make_rng(99)
        n_traces, n_cycles = 17, 6
        traces = [random_vectors(rng, len(netlist.inputs), n_cycles)
                  for _ in range(n_traces)]
        per_cycle = [[traces[j][c] for j in range(n_traces)]
                     for c in range(n_cycles)]
        packed = sim.run_pattern_matrix(per_cycle)
        for j in range(n_traces):
            scalar = sim.run_vectors(traces[j])
            packed_trace = [packed[c][j] for c in range(n_cycles)]
            assert packed_trace == scalar

    def test_s27_known_prefix(self):
        netlist = load_embedded("s27")
        sim = SequentialSimulator(netlist)
        zeros = [(False,) * 4] * 3
        trace = sim.run_vectors(zeros)
        # From all-zero state and all-zero inputs: G11=NOR(G5,G9); reference
        # computed with the naive evaluator to pin the golden.
        assert trace == reference_sequential_run(netlist, zeros)

    def test_initial_state_override(self):
        netlist = random_seq_netlist(1)
        sim = SequentialSimulator(netlist)
        state = dict.fromkeys(netlist.flops, True)
        vectors = random_vectors(make_rng(5), len(netlist.inputs), 4)
        got = sim.run_vectors(vectors, initial_state=state)
        # reference with forced initial state
        reference_netlist = netlist.copy()
        trace = []
        current = dict(state)
        from tests.util import reference_eval
        for vector in vectors:
            assignment = dict(zip(reference_netlist.inputs, vector))
            assignment.update(current)
            values = reference_eval(reference_netlist, assignment)
            trace.append(tuple(values[n] for n in reference_netlist.outputs))
            current = {q: values[f.d] for q, f in reference_netlist.flops.items()}
        assert got == trace

    def test_wrong_state_keys_raise(self):
        netlist = random_seq_netlist(3)
        sim = SequentialSimulator(netlist)
        with pytest.raises(SimulationError):
            sim.run([{net: 0 for net in netlist.inputs}], 1, initial_state={"bogus": 0})

    def test_missing_input_raises(self):
        netlist = random_seq_netlist(3)
        sim = SequentialSimulator(netlist)
        with pytest.raises(SimulationError, match="missing stimulus"):
            sim.run([{}], 1)

    @pytest.mark.parametrize("n_patterns", [64, 1 << 16])
    def test_unmasked_initial_state_is_masked(self, n_patterns):
        """A state word with bits at or above ``n_patterns`` (``-1``, or
        bit ``n``) runs like its masked self, at any width."""
        netlist = load_embedded("s27")
        sim = SequentialSimulator(netlist)
        mask = mask_for(n_patterns)
        stimulus = random_sequence_words(make_rng("s27-state"),
                                         netlist.inputs, 3, n_patterns)
        pattern = make_rng("s27-q").getrandbits(n_patterns)
        for raw in (dict.fromkeys(netlist.flops, -1),
                    dict.fromkeys(netlist.flops, pattern | 1 << n_patterns)):
            masked = {q: word & mask for q, word in raw.items()}
            assert (sim.run(stimulus, n_patterns, initial_state=raw)
                    == sim.run(stimulus, n_patterns, initial_state=masked))


# ----------------------------------------------------------------------
# Differential: the compiled program against the naive evaluator
# ----------------------------------------------------------------------
_OPS = list(GateOp)
_UNARY = {GateOp.NOT, GateOp.BUF}
_CONSTS = {GateOp.CONST0, GateOp.CONST1}


@st.composite
def sequential_netlists(draw):
    """Random sequential netlists over every compile case: n-ary AND/OR/
    XOR families up to 6 inputs, repeated inputs, constants and BUF
    chains; gates inserted before their fan-in and dead gates; outputs
    on PIs, flop Qs, gates or repeated; flop Ds on PIs and other Qs."""
    inputs = [f"pi{i}" for i in range(draw(st.integers(1, 3)))]
    qs = [f"q{i}" for i in range(draw(st.integers(0, 3)))]
    pool = inputs + qs
    gates = []
    for index in range(draw(st.integers(0, 12))):
        op = draw(st.sampled_from(_OPS))
        arity = (0 if op in _CONSTS else 1 if op in _UNARY
                 else draw(st.integers(2, 6)))
        srcs = draw(st.lists(st.sampled_from(pool), min_size=arity,
                             max_size=arity))
        gates.append((f"g{index}", op, srcs))
        pool.append(f"g{index}")
    netlist = Netlist("differential")
    for net in inputs:
        netlist.add_input(net)
    for net, op, srcs in draw(st.permutations(gates)):  # insertion order
        netlist.add_gate(net, op, srcs)
    for q in qs:
        netlist.add_flop(q, draw(st.sampled_from(pool)), draw(st.booleans()))
    for net in draw(st.lists(st.sampled_from(pool), min_size=1,
                             max_size=4)):
        netlist.add_output(net)
    return netlist.validate()


def _every_case_netlist():
    """One netlist that hits every compile case at once."""
    netlist = Netlist("every_case")
    a, b = netlist.add_input("a"), netlist.add_input("b")
    netlist.add_gate("fwd", GateOp.NAND, ["late", "a", "q0"])  # forward ref
    netlist.add_gate("late", GateOp.XNOR, ["a", "b", "q1", "a", "b", "q0"])
    netlist.add_gate("twice", GateOp.AND, [a, a])
    netlist.add_gate("zero", GateOp.CONST0)
    netlist.add_gate("one", GateOp.CONST1)
    netlist.add_gate("buf1", GateOp.BUF, ["fwd"])
    netlist.add_gate("buf2", GateOp.BUF, ["buf1"])
    netlist.add_gate("nor", GateOp.NOR, ["buf2", "zero", "twice", "one"])
    netlist.add_gate("dead", GateOp.OR, ["nor", "b"])
    netlist.add_gate("xor", GateOp.XOR, ["nor", "q2", "late"])
    netlist.add_flop("q0", "xor")
    netlist.add_flop("q1", "b", init=True)  # D on a PI
    netlist.add_flop("q2", "q0")            # D on another Q
    for net in ("a", "q1", "nor", "xor", "nor", "buf2"):
        netlist.add_output(net)
    return netlist.validate()


def _reference_words(netlist, width, rng, n_cycles=3):
    """``(stimulus, outputs, final_state)`` of a ``width``-pattern run,
    the expectations from :func:`reference_sequential_run`.

    A few random traces are spread over the ``width`` bit positions (the
    first positions take one trace each), so the naive evaluator runs
    once per trace, not once per bit.
    """
    n_traces = min(width, 4)
    owner = list(range(n_traces)) + [rng.randrange(n_traces)
                                     for _ in range(width - n_traces)]
    bits = [0] * n_traces
    for position, trace in enumerate(owner):
        bits[trace] |= 1 << position

    def pack(rows, column):
        word = 0
        for trace, row in enumerate(rows):
            if row[column]:
                word |= bits[trace]
        return word

    traces = [random_vectors(rng, len(netlist.inputs), n_cycles)
              for _ in range(n_traces)]
    stimulus = [{net: pack([trace[cycle] for trace in traces], column)
                 for column, net in enumerate(netlist.inputs)}
                for cycle in range(n_cycles)]
    # The final state is what the flop Qs show one cycle later.
    probe = netlist.copy()
    for q in netlist.flops:
        probe.add_output(q)
    runs = [reference_sequential_run(probe, trace + trace[-1:])
            for trace in traces]
    n_out = len(netlist.outputs)
    outputs = [[pack([run[cycle] for run in runs], column)
                for column in range(n_out)]
               for cycle in range(n_cycles)]
    state = {q: pack([run[n_cycles] for run in runs], n_out + column)
             for column, q in enumerate(netlist.flops)}
    return stimulus, outputs, state


class TestCompiledProgramDifferential:
    @settings(max_examples=60, deadline=None)
    @given(netlist=sequential_netlists(), seed=st.integers(0, 2**32 - 1))
    @example(netlist=_every_case_netlist(), seed=0)
    def test_sequential_run_matches_reference(self, netlist, seed):
        rng = random.Random(seed)
        sim = SequentialSimulator(netlist)
        for width in (1, 64, 65, 4800):
            stimulus, outputs, state = _reference_words(netlist, width, rng)
            assert sim.run(stimulus, width) == (outputs, state)

    @settings(max_examples=60, deadline=None)
    @given(netlist=sequential_netlists(), seed=st.integers(0, 2**32 - 1))
    @example(netlist=_every_case_netlist(), seed=0)
    def test_evaluate_returns_every_net(self, netlist, seed):
        rng = random.Random(seed)
        assignment = {net: rng.random() < 0.5
                      for net in (*netlist.inputs, *netlist.flops)}
        values = CombSimulator(netlist).evaluate_pattern(assignment)
        assert values == reference_eval(netlist, assignment)
        assert set(values) == set(netlist.nets())


def test_numpy_is_never_imported():
    """Every simulation word is a Python int: importing the API and the
    Fig. 3, Fig. 7 and Table II experiments, then building a Fig. 3
    panel and an FC estimate, loads no numpy."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys, repro.api\n"
            "from repro.experiments import fig3_error_tables, fig7_fc, "
            "table2_removal\n"
            "from repro.metrics import simulate_fc\n"
            "fig3_error_tables.panel_cell('(b) E^SF', alpha=0.6)\n"
            "locked = repro.api.SCHEMES.get('trilock').lock(\n"
            "    repro.api.load_circuit('s27'), seed=0)\n"
            "simulate_fc(locked, 2, n_samples=64, seed=0)\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(repo_root, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=repo_root, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"
