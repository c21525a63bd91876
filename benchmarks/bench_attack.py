"""End-to-end attack-loop benchmarks: an oracle-dominated seq-sat cell
and a pin-heavy DIP loop.

The oracle-dominated cell checks its oracle accounting exactly: every
miter round is one batched oracle call, and the black-box key check is
one more, so its call and pattern counts follow from the DIP count
alone.  Both cells record their phase rows; the serial-oracle and
copy-per-pin paths they were once compared against are recorded rows in
the README's "Making it fast" section.

Everything lands in ``BENCH_attack.json`` via ``bench_json_merge``; the
text artifacts carry the same numbers human-readable.
"""

import time

from repro.attacks import (
    SimulationOracle,
    comb_sat_attack,
    sequential_sat_attack,
    unrolled_attack_view,
)
from repro.attacks.seq_sat import _with_folded_constants
from repro.bench.synth import generate_circuit
from repro.core import TriLockConfig, lock, ndip_trilock
from repro.core.rivals import lock_sarlock

#: Interleaved timing repetitions (min-of-N kills one-off timer noise).
_REPEATS = 2

# ----------------------------------------------------------------------
# The oracle-dominated cell: a wide synth host with easy miter solves,
# verified black-box, so the oracle simulates the whole 3000-gate
# circuit for 320 patterns (64 DIP responses + 256 check rounds).
# ----------------------------------------------------------------------
def _oracle_dominated_cell():
    circuit = generate_circuit("attackbench", n_inputs=6, n_outputs=4,
                               n_flops=24, n_gates=3000, seed=5)
    return lock(circuit, TriLockConfig(kappa_s=1, kappa_f=1, alpha=0.6,
                                       s_pairs=0, seed=11))


def _run_seq(locked, check_rounds=256):
    """One end-to-end black-box seq-sat run; returns (wall, result)."""
    oracle = SimulationOracle(locked.original)
    start = time.perf_counter()
    result = sequential_sat_attack(
        locked.netlist, locked.config.kappa, oracle,
        known_depth=locked.config.kappa_s, dip_batch=16,
        check_rounds=check_rounds)
    wall = time.perf_counter() - start
    assert result.success
    return wall, result


def _phase_row(wall, result):
    return {
        "wall_seconds": wall,
        "solve_seconds": result.solve_seconds,
        "oracle_seconds": result.oracle_seconds,
        "encode_seconds": result.encode_seconds,
        "oracle_share": result.oracle_seconds / wall,
        # CombSatResult carries no oracle counters (the callable owns
        # the oracle there); the seq-sat rows fill these in.
        "oracle_patterns": getattr(result, "oracle_queries", None),
        "oracle_calls": getattr(result, "oracle_calls", None),
        "n_dips": result.n_dips,
    }


def test_seq_sat_oracle_dominated_phase_row(artifact_sink,
                                            bench_json_merge):
    """Exact oracle accounting on the oracle-dominated cell, plus the
    phase row of the fastest run.

    Theorem 1 fixes the DIP count at 2^(κs·|I|) = 64, and with it the
    oracle's: 4 rounds of 16 DIPs plus one call for the 256 black-box
    check rounds is 5 calls and 64 + 256 = 320 patterns.
    """
    locked = _oracle_dominated_cell()
    wall, result = min((_run_seq(locked) for _ in range(_REPEATS)),
                       key=lambda timed: timed[0])
    assert result.n_dips == ndip_trilock(1, locked.width) == 64
    assert (result.oracle_calls, result.oracle_queries) == (5, 320)

    row = _phase_row(wall, result)
    bench_json_merge("attack", {
        "seq_sat_oracle_dominated": {
            "instance": "trilock ks=1 on synth 3000 gates / 6 PIs, "
                        "dip_batch=16, check_rounds=256 (black-box)",
            "batched": row,
        },
    })
    artifact_sink(
        "attack_oracle_dominated",
        "seq-sat, trilock ks=1, synth 3000 gates / 6 PIs, dip_batch=16, "
        "check_rounds=256 (black-box verify)\n"
        f"solve {row['solve_seconds']:.2f}s, "
        f"oracle {row['oracle_seconds']:.2f}s, "
        f"encode {row['encode_seconds']:.2f}s, wall {wall:.2f}s "
        f"(oracle share {row['oracle_share']:.0%})\n"
        f"{result.n_dips} DIPs; {result.oracle_queries} patterns in "
        f"{result.oracle_calls} oracle calls\n")


# ----------------------------------------------------------------------
# The pin-heavy comb_sat cell: sarlock's point function forces one pin
# per input minterm, so the constraint-pinning path gets exercised
# hundreds of times.
# ----------------------------------------------------------------------
def _pin_heavy_view():
    circuit = generate_circuit("pinbench", n_inputs=6, n_outputs=4,
                               n_flops=10, n_gates=220, seed=5)
    locked = lock_sarlock(circuit, kappa=1, g=1, seed=3)
    kappa, depth = locked.config.kappa, 2
    view, key_inputs, _ = unrolled_attack_view(locked.netlist, kappa, depth)
    view = _with_folded_constants(view)
    return locked, view, key_inputs, depth


def test_comb_sat_pin_heavy_phase_row(artifact_sink, bench_json_merge):
    """Record the phase row of a pin-per-minterm DIP loop (the fastest
    of ``_REPEATS`` runs): the solve and encode (pinning) phases it
    isolates."""
    locked, view, key_inputs, depth = _pin_heavy_view()

    def run():
        oracle = SimulationOracle(locked.original)
        start = time.perf_counter()
        result = comb_sat_attack(view, key_inputs,
                                 oracle.flat_window(depth), dip_batch=8)
        wall = time.perf_counter() - start
        assert result.success
        return wall, result

    wall, result = min((run() for _ in range(_REPEATS)),
                       key=lambda timed: timed[0])
    row = _phase_row(wall, result)
    bench_json_merge("attack", {
        "comb_sat_pin_heavy": {
            "instance": "sarlock g=1 on synth 220 gates / 6 PIs, "
                        "depth=2, dip_batch=8",
            "fold_and_hash": row,
            "solver_vars": result.solver_stats.get("vars"),
        },
    })
    artifact_sink(
        "attack_pin_heavy",
        "comb-sat, sarlock point function, 220-gate synth host, "
        f"dip_batch=8 ({result.n_dips} DIPs pinned)\n"
        f"solve {row['solve_seconds']:.3f}s, "
        f"encode {row['encode_seconds']:.3f}s, wall {wall:.2f}s, "
        f"{result.solver_stats.get('vars')} solver variables\n")


def test_seq_sat_short_check_accounting(bench_json_merge):
    """The oracle-dominated cell with 64 black-box check rounds: the
    check is still one batched call, so the counts stay exact."""
    locked = _oracle_dominated_cell()
    wall, result = _run_seq(locked, check_rounds=64)
    # 64 DIPs in 4 calls, then 64 check rounds in one: 5 calls, 128
    # patterns.
    assert result.n_dips == 64
    assert (result.oracle_calls, result.oracle_queries) == (5, 128)
    bench_json_merge("attack", {
        "seq_sat_check_rounds_64": {
            "instance": "oracle-dominated cell, check_rounds=64",
            "wall_seconds": wall,
        },
    })
