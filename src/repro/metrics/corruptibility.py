"""Functional corruptibility (FC) measurement — Eq. (1).

The paper simulates FC with 800 random input/key samples in VCS; here the
same estimator runs bit-parallel.  A Fig. 7 cell averages FC over several
unrolling depths, and all of its depth windows share one word-parallel
run: each window's samples occupy their own bit slice of every input
word, so the cell costs one sequential run of the locked netlist plus one
run of the oracle, however many depths it averages.
"""

from __future__ import annotations

from statistics import mean

from repro.core.error_tables import measured_error_table
from repro.errors import SimulationError
from repro.sim.bitvec import mask_for
from repro.sim.random_vectors import (
    derive_seed,
    make_rng,
    random_input_words,
)
from repro.sim.seq import SequentialSimulator

#: The paper's sample count ("FC is simulated with 800 random inputs and
#: keys using Synopsys VCS").
PAPER_FC_SAMPLES = 800


def simulate_fc(locked, depth, n_samples=PAPER_FC_SAMPLES, seed=0):
    """Sampled ``FC_b``: fraction of random (input, key) pairs that corrupt
    at least one output in the ``depth``-cycle post-key window (the
    one-window case of :func:`average_simulated_fc`'s packed run)."""
    return _packed_fcs(locked, [(depth, seed)], n_samples)[0]


def average_simulated_fc(locked, depths, n_samples=PAPER_FC_SAMPLES, seed=0):
    """Mean sampled FC over several unrolling depths (Fig. 7 aggregates
    ``b ∈ [κs, κs+5]``).

    Per-depth seeds are derived with tuple mixing rather than ``seed +
    index``: arithmetic derivation made neighbouring user seeds (0, 1,
    ...) share most of their per-depth sample streams, correlating
    points that Fig. 7 treats as independent estimates.  Every depth is
    one window of the same packed run, so each per-depth fraction is
    bit-identical to :func:`simulate_fc` at that depth and derived seed.
    """
    depths = list(depths)
    if not depths:
        raise SimulationError("FC needs at least one depth")
    return mean(_packed_fcs(
        locked, [(depth, derive_seed("fc", seed, depth)) for depth in depths],
        n_samples))


def _packed_fcs(locked, windows, n_samples):
    """Sampled FC of each ``(depth, seed)`` window, from one packed run of
    the locked netlist and one of the oracle.

    Window ``j`` draws its stimulus from ``make_rng(("fc", seed))`` over
    ``κ + depth`` cycles and occupies bits ``[j·n, (j+1)·n)`` of every
    input word, with zero stimulus after its last cycle.  Gates never mix
    bit positions, so each window's mismatches, read from its own slice
    over its own cycles, are exactly those of a run of that window alone.
    """
    for depth, _seed in windows:
        if depth < 1:
            raise SimulationError("FC depth must be >= 1")
    kappa = locked.config.kappa
    inputs = locked.netlist.inputs
    longest = max(depth for depth, _seed in windows)

    # Uniform (i, k) sampling == uniform stimulus over κ+depth cycles.
    stimulus = [dict.fromkeys(inputs, 0) for _ in range(kappa + longest)]
    for j, (depth, seed) in enumerate(windows):
        rng = make_rng(("fc", seed))
        for packed in stimulus[:kappa + depth]:
            for net, word in random_input_words(rng, inputs,
                                                n_samples).items():
                packed[net] |= word << (j * n_samples)
    width = n_samples * len(windows)
    locked_outputs, _ = SequentialSimulator(locked.netlist).run(
        stimulus, width)
    oracle_outputs, _ = SequentialSimulator(locked.original).run(
        stimulus[kappa:], width)

    samples = mask_for(n_samples)
    mismatch = 0
    for cycle in range(longest):
        live = 0
        for j, (depth, _seed) in enumerate(windows):
            if cycle < depth:
                live |= samples << (j * n_samples)
        for locked_word, oracle_word in zip(
                locked_outputs[kappa + cycle], oracle_outputs[cycle]):
            mismatch |= (locked_word ^ oracle_word) & live
    return [((mismatch >> (j * n_samples)) & samples).bit_count() / n_samples
            for j in range(len(windows))]


def paper_depth_range(kappa_s, span=5):
    """Fig. 7's depth sweep: ``b`` from ``κs`` to ``κs + span``."""
    return list(range(kappa_s, kappa_s + span + 1))


def exhaustive_fc(locked, depth):
    """Exact FC by exhaustive error-table enumeration (small circuits)."""
    return measured_error_table(locked, depth).fc()
