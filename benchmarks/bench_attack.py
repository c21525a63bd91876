"""End-to-end attack-loop benchmarks: an oracle-dominated seq-sat cell,
a pin-heavy DIP loop, and the per-block cost of the b12 Table I cells.

The oracle-dominated cell checks its oracle accounting exactly: every
miter round is one batched oracle call, and the black-box key check is
one more, so its call and pattern counts follow from the DIP count
alone.  Both cells record their phase rows; the serial-oracle and
copy-per-pin paths they were once compared against are recorded rows in
the README's "Making it fast" section.

The b12 block rows count what each block of pinned DIPs costs the
solver (propagations, variables, clauses): the last block may propagate
at most 1.25x what the first did, so a per-DIP cost that grows with the
DIPs pinned, as it did while every pin gate stayed a solver variable,
fails them.

Everything lands in ``BENCH_attack.json`` via ``bench_json_merge``; the
text artifacts carry the same numbers human-readable.
"""

import time

from repro.api.cells import resolve_scheme_spec
from repro.api.circuits import load_circuit
from repro.attacks import (
    SimulationOracle,
    comb_sat_attack,
    sequential_sat_attack,
    unrolled_attack_view,
)
from repro.attacks.comb_sat import DipEngine
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


# ----------------------------------------------------------------------
# The b12 Table I cells (S=10), block by block: the DIP loop of the
# seq-sat attack at the paper's depth (dip_batch=1), driven through the
# DipEngine so each block's solver counters can be read off.
# ----------------------------------------------------------------------
_B12 = "suite:b12?scale=0.08&seed=0"
_GROWTH_BOUND = 1.25


def _dip_blocks(kappa_s, block, max_dips=None):
    """Pin the b12 kappa_s cell's DIPs; one row per ``block`` DIPs."""
    scheme, params = resolve_scheme_spec(
        f"trilock?kappa_s={kappa_s}&kappa_f=1&alpha=0.6&s_pairs=10")
    locked = scheme.lock(load_circuit(_B12), seed=0, **params)
    view, key_inputs, _ = unrolled_attack_view(
        locked.netlist, locked.config.kappa, kappa_s)
    engine = DipEngine(_with_folded_constants(view), key_inputs)
    oracle = SimulationOracle(locked.original).flat_window(kappa_s)
    rows = [{"miter_vars": engine.solver.num_vars}]
    before = engine.solver.stats()
    start = time.perf_counter()
    while max_dips is None or engine.n_pinned < max_dips:
        batch = engine.find_dip_batch()
        if not batch:
            break
        engine.pin_batch(zip(batch, oracle(batch)))
        if engine.n_pinned % block == 0:
            stats = engine.solver.stats()
            rows.append({
                "dips": engine.n_pinned,
                "propagations": stats["propagations"]
                - before["propagations"],
                "solver_vars": stats["vars"],
                "solver_clauses": stats["clauses"],
                "wall_seconds": time.perf_counter() - start,
            })
            before, start = stats, time.perf_counter()
    return engine.n_pinned, rows


def _growth(rows):
    return rows[-1]["propagations"] / rows[1]["propagations"]


def test_b12_ks2_blocks_stay_level(bench_json_merge):
    """All 1,024 DIPs of the Table I b12 kappa_s=2 cell in 256-DIP
    blocks: the solver ends within 1,000 variables, and the last block
    propagates at most 1.25x the first (2.73x while every pin gate
    stayed a variable)."""
    n_dips, rows = _dip_blocks(2, block=256)
    assert n_dips == 1024
    assert rows[-1]["solver_vars"] <= 1000
    assert _growth(rows) <= _GROWTH_BOUND
    bench_json_merge("attack", {
        "b12_ks2_pin_blocks": {
            "instance": "table1 b12 ks=2 S=10, dip_batch=1, 256-DIP "
                        "blocks",
            "miter_vars": rows[0]["miter_vars"],
            "blocks": rows[1:],
            "propagation_growth": _growth(rows),
        },
    })


def test_b12_ks3_first_blocks_stay_level(bench_json_merge):
    """The first 2,048 of the b12 kappa_s=3 cell's 32,768 DIPs in
    1,024-DIP blocks: the second block propagates at most 1.25x the
    first (2.03x while every pin gate stayed a variable)."""
    n_dips, rows = _dip_blocks(3, block=1024, max_dips=2048)
    assert n_dips == 2048
    assert _growth(rows) <= _GROWTH_BOUND
    bench_json_merge("attack", {
        "b12_ks3_pin_blocks": {
            "instance": "table1 b12 ks=3 S=10, dip_batch=1, first 2048 "
                        "DIPs in 1024-DIP blocks",
            "miter_vars": rows[0]["miter_vars"],
            "blocks": rows[1:],
            "propagation_growth": _growth(rows),
        },
    })
