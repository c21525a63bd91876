"""Input/output oracle.

The SAT-attack threat model grants the attacker black-box access to an
activated chip: apply any input sequence from reset, observe the output
sequence. :class:`SimulationOracle` provides exactly that interface on top
of the original netlist and counts queries for reporting.

The DIP loop asks through the callable :meth:`SimulationOracle.flat_window`
builds: one word-parallel :meth:`~SimulationOracle.query_batch` call per
miter round, however many DIPs the round extracted (a single DIP is a
batch of one). :meth:`~SimulationOracle.query` answers one sequence at a
time and is the serial reference the batch path is tested against.

Accounting distinguishes *calls* from *patterns*: ``query_count`` is the
number of oracle invocations (tester sessions), ``pattern_count`` the
number of input sequences simulated.  A batch counts as one call and as
many patterns as it holds sequences, so ``pattern_count`` is the number
that does not depend on how the sequences were batched.
"""

from __future__ import annotations

from repro.errors import AttackError
from repro.sim.seq import SequentialSimulator


class SimulationOracle:
    """Black-box functional oracle over the original circuit."""

    def __init__(self, original_netlist):
        self._netlist = original_netlist
        self._sim = SequentialSimulator(original_netlist)
        self.query_count = 0
        self.pattern_count = 0

    @property
    def input_width(self):
        return len(self._netlist.inputs)

    @property
    def output_width(self):
        return len(self._netlist.outputs)

    def _check_widths(self, vectors):
        """Validate stimulus widths in one pass over a whole batch."""
        if all(len(vector) == self.input_width for vector in vectors):
            return
        for cycle, vector in enumerate(vectors):
            if len(vector) != self.input_width:
                raise AttackError(
                    f"cycle {cycle}: oracle stimulus width {len(vector)} "
                    f"!= {self.input_width}"
                )

    def query(self, input_vectors):
        """Run one sequence from reset; returns per-cycle output tuples."""
        input_vectors = list(input_vectors)
        self._check_widths(input_vectors)
        self.query_count += 1
        self.pattern_count += 1
        return self._sim.run_vectors(input_vectors)

    def query_batch(self, sequences):
        """Run many same-length sequences from reset in one simulation.

        ``sequences`` is a list of input sequences (each a list of
        per-cycle vectors, all the same cycle count).  Returns one trace
        per sequence, each bit-for-bit what :meth:`query` would return —
        the batch is packed into machine words and run through the
        word-parallel :meth:`SequentialSimulator.run_pattern_matrix`
        path, so the whole batch costs roughly one serial query.
        Counts as ONE ``query_count`` call and ``len(sequences)``
        ``pattern_count`` patterns.
        """
        sequences = [list(seq) for seq in sequences]
        if not sequences:
            return []
        lengths = {len(seq) for seq in sequences}
        if len(lengths) != 1:
            raise AttackError(
                f"query_batch needs same-length sequences, got cycle "
                f"counts {sorted(lengths)}")
        for seq in sequences:
            self._check_widths(seq)
        self.query_count += 1
        self.pattern_count += len(sequences)
        n_cycles = lengths.pop()
        per_cycle = [[seq[cycle] for seq in sequences]
                     for cycle in range(n_cycles)]
        matrix = self._sim.run_pattern_matrix(per_cycle)
        return [[matrix[cycle][j] for cycle in range(n_cycles)]
                for j in range(len(sequences))]

    def query_flat(self, input_vectors):
        """Like :meth:`query` but flattened cycle-major into one tuple."""
        trace = self.query(input_vectors)
        return tuple(bit for cycle in trace for bit in cycle)

    def query_batch_flat(self, sequences):
        """Like :meth:`query_batch` but each trace flattened cycle-major."""
        return [tuple(bit for cycle in trace for bit in cycle)
                for trace in self.query_batch(sequences)]

    def flat_window(self, cycles):
        """The DIP loop's oracle for a window of ``cycles`` cycles.

        Returns a callable mapping a list of flattened stimuli (each the
        window's input vectors concatenated cycle-major) to their
        flattened traces, in one :meth:`query_batch_flat` call.
        """
        width = self.input_width

        def ask(flat_stimuli):
            return self.query_batch_flat(
                [_unflatten(flat, width, cycles) for flat in flat_stimuli])

        return ask


def _unflatten(flat_bits, width, cycles):
    """Split a cycle-major flattened stimulus into per-cycle vectors."""
    if len(flat_bits) != width * cycles:
        raise AttackError("flattened stimulus has the wrong width")
    return [tuple(flat_bits[c * width:(c + 1) * width]) for c in range(cycles)]
