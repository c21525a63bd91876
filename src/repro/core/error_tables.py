"""Error tables (Fig. 3): exhaustive input x key error maps.

Two producers share one table type:

* :func:`spec_error_table` evaluates the closed-form error functions;
* :func:`measured_error_table` exhaustively simulates a gate-level locked
  circuit against its oracle.

Their equality on small instances is the central correctness check that
the hardware implements ``E^SF`` exactly.

The measured table is one word-parallel run per netlist over every
(input, key) pair. Pattern ``j = i·n_keys + k`` holds input sequence
``i`` and key sequence ``k``, so every stimulus word is a single bit of
``j`` across all patterns: a square wave built by doubling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.error_function import e_n
from repro.errors import LockingError
from repro.sim.seq import SequentialSimulator

#: Hard cap on exhaustive enumeration: 2^(κ+b)|I| simulated pairs.
_MAX_TABLE_BITS = 20


@dataclass
class ErrorTable:
    """``rows[i][k]`` is True iff input sequence ``i`` under key sequence
    ``k`` produces at least one output error within the unrolling window."""

    width: int
    kappa: int
    depth: int
    rows: list

    @property
    def n_inputs(self):
        return len(self.rows)

    @property
    def n_keys(self):
        return len(self.rows[0]) if self.rows else 0

    def error_count(self):
        return sum(sum(1 for cell in row if cell) for row in self.rows)

    def fc(self):
        """Exact functional corruptibility of the table (Eq. 1)."""
        total = self.n_inputs * self.n_keys
        return self.error_count() / total if total else 0.0

    def errors_for_key(self, key_value):
        """Number of inputs that detect ``key_value``."""
        return sum(1 for row in self.rows if row[key_value])

    def render(self, on="#", off="."):
        """ASCII rendering (inputs as rows, keys as columns), Fig. 3 style."""
        header = f"i\\k  ({self.n_inputs}x{self.n_keys})"
        lines = [header]
        for i, row in enumerate(self.rows):
            cells = "".join(on if cell else off for cell in row)
            lines.append(f"{i:>4} {cells}")
        return "\n".join(lines)

    def __eq__(self, other):
        if not isinstance(other, ErrorTable):
            return NotImplemented
        return (self.width, self.kappa, self.depth, self.rows) == \
            (other.width, other.kappa, other.depth, other.rows)


def _check_size(width, kappa, depth):
    if depth < 1:
        raise LockingError(f"error table depth must be >= 1, got {depth}")
    bits = (kappa + depth) * width
    if bits > _MAX_TABLE_BITS:
        raise LockingError(
            f"error table of 2^{bits} entries exceeds the exhaustive cap "
            f"(2^{_MAX_TABLE_BITS})"
        )


def spec_error_table(spec, depth):
    """Exhaustive table of ``E^SF`` (Eq. 16) for a ``depth``-unrolling."""
    _check_size(spec.width, spec.kappa, depth)
    n_inputs = 1 << (depth * spec.width)
    n_keys = 1 << (spec.kappa * spec.width)
    rows = []
    for input_value in range(n_inputs):
        row = [
            spec.e_sf(input_value, depth, key_value)
            for key_value in range(n_keys)
        ]
        rows.append(row)
    return ErrorTable(spec.width, spec.kappa, depth, rows)


def naive_error_table(kappa, width, key_star, depth):
    """Exhaustive table of ``E^N`` (Eq. 3, Fig. 3(a))."""
    _check_size(width, kappa, depth)
    n_inputs = 1 << (depth * width)
    n_keys = 1 << (kappa * width)
    rows = []
    for input_value in range(n_inputs):
        rows.append([
            e_n(input_value, depth, key_value, kappa, width, key_star)
            for key_value in range(n_keys)
        ])
    return ErrorTable(width, kappa, depth, rows)


def _bit_word(bit, n_pairs):
    """Word whose pattern ``j`` is bit ``bit`` of ``j``, for ``j`` below
    ``n_pairs`` (a power of two, at least ``2^(bit+1)``): ``2^bit``
    zeros, then ``2^bit`` ones, repeated."""
    run = 1 << bit
    word = ((1 << run) - 1) << run
    period = run << 1
    while period < n_pairs:
        word |= word << period
        period <<= 1
    return word


def _pair_words(inputs, width, kappa, depth):
    """Per-cycle ``{input: word}`` over all ``2^{(κ+b)|I|}`` pairs.

    Pattern ``j = i·n_keys + k`` is ``k`` in its low ``κ|I|`` bits and
    ``i`` above them, each MSB-first by cycle: key cycle ``c < κ`` reads
    ``|I|``-bit block ``κ−1−c`` of ``j``, input cycle ``c ≥ κ`` block
    ``2κ+b−1−c``, and input ``p`` of a cycle bit ``|I|−1−p`` of its
    block.
    """
    n_pairs = 1 << ((kappa + depth) * width)
    words_per_cycle = []
    for cycle in range(kappa + depth):
        block = (kappa - 1 - cycle if cycle < kappa
                 else 2 * kappa + depth - 1 - cycle)
        words_per_cycle.append({
            net: _bit_word(block * width + width - 1 - position, n_pairs)
            for position, net in enumerate(inputs)})
    return words_per_cycle


def measured_error_table(locked, depth):
    """Exhaustive gate-level table of a :class:`LockedCircuit`.

    All ``2^{(κ+b)|I|}`` (input, key) pairs are packed into one
    bit-parallel sequential run of the locked netlist. The oracle runs
    on the same words without the ``κ`` key cycles, so its pattern ``j``
    answers input sequence ``i`` in the same bit as the locked run, and
    the rows are the bits of the mismatch word.
    """
    spec = locked.spec
    width = spec.width
    kappa = spec.kappa
    _check_size(width, kappa, depth)
    n_keys = 1 << (kappa * width)
    n_pairs = n_keys << (depth * width)

    words_per_cycle = _pair_words(locked.netlist.inputs, width, kappa, depth)
    locked_outputs, _ = SequentialSimulator(locked.netlist).run(
        words_per_cycle, n_pairs)
    oracle_outputs, _ = SequentialSimulator(locked.original).run(
        words_per_cycle[kappa:], n_pairs)

    mismatch = 0
    for locked_cycle, oracle_cycle in zip(locked_outputs[kappa:],
                                          oracle_outputs):
        for locked_word, oracle_word in zip(locked_cycle, oracle_cycle):
            mismatch |= locked_word ^ oracle_word

    # Bit j of the word is the string's character n_pairs−1−j.
    bits = list(map("1".__eq__, f"{mismatch:0{n_pairs}b}"[::-1]))
    rows = [bits[start:start + n_keys]
            for start in range(0, n_pairs, n_keys)]
    return ErrorTable(width, kappa, depth, rows)
