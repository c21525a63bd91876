"""End-to-end attack-loop benchmarks: the batched word-parallel oracle
against the serial-oracle loop, and a pin-heavy DIP loop.

Acceptance bar: on an oracle-dominated synth cell the batched attack
must be >= 1.5x the serial baseline end-to-end, with the per-phase
timers showing the oracle share shrinking — and the recovered key, DIP
walk, and oracle pattern count must be bit-identical (only the *call*
count may drop).

Baseline semantics: ``oracle_batch=False`` restores the
one-``query()``-per-DIP loop at the same ``dip_batch`` and with the same
pinning, so the miter/solver work is held constant and the delta is
exactly the batched oracle.  The pin-heavy cell records its phase row
only; the pinning paths it was once compared against are recorded rows
in the README's "Making it fast" section.

Everything lands in ``BENCH_attack.json`` via ``bench_json_sink``; the
text artifacts carry the same numbers human-readable (the README's
"Making it fast" table quotes them).
"""

import os
import time

from repro.attacks import (
    SimulationOracle,
    comb_sat_attack,
    sequential_sat_attack,
    unrolled_attack_view,
)
from repro.attacks.seq_sat import _unflatten, _with_folded_constants
from repro.bench.synth import generate_circuit
from repro.core import TriLockConfig, lock
from repro.core.rivals import lock_sarlock

#: Interleaved timing repetitions (min-of-N kills one-off timer noise).
_REPEATS = 2


# ----------------------------------------------------------------------
# The oracle-dominated cell: a wide synth host where black-box
# simulation (DIP responses + candidate verification) is the bulk of the
# attack and the miter solves are easy.
# ----------------------------------------------------------------------
def _oracle_dominated_cell():
    circuit = generate_circuit("attackbench", n_inputs=6, n_outputs=4,
                               n_flops=24, n_gates=3000, seed=5)
    return lock(circuit, TriLockConfig(kappa_s=1, kappa_f=1, alpha=0.6,
                                       s_pairs=0, seed=11))


def _run_seq(locked, batched, check_rounds=256, dip_batch=16):
    """One end-to-end black-box seq-sat run; returns (wall, result)."""
    oracle = SimulationOracle(locked.original)
    start = time.perf_counter()
    result = sequential_sat_attack(
        locked.netlist, locked.config.kappa, oracle,
        known_depth=locked.config.kappa_s, dip_batch=dip_batch,
        oracle_batch=batched, check_rounds=check_rounds)
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
        # CombSatResult carries no oracle counters (the closures own the
        # oracle there); the seq-sat rows fill these in.
        "oracle_patterns": getattr(result, "oracle_queries", None),
        "oracle_calls": getattr(result, "oracle_calls", None),
        "n_dips": result.n_dips,
    }


def test_seq_sat_oracle_dominated_wall_clock(artifact_sink,
                                             bench_json_sink):
    """The headline gate: the batched oracle >= 1.5x the serial baseline
    on the oracle-dominated cell, identical results."""
    locked = _oracle_dominated_cell()
    walls = {"serial": float("inf"), "batched": float("inf")}
    results = {}
    for _ in range(_REPEATS):
        for mode, batched in (("serial", False), ("batched", True)):
            wall, result = _run_seq(locked, batched)
            if wall < walls[mode]:
                walls[mode] = wall
            results[mode] = result

    serial, batched = results["serial"], results["batched"]
    # Bit-identical attack: same key, same DIP walk, same patterns
    # through the oracle — only the call count collapses.
    assert batched.key == serial.key
    assert batched.n_dips == serial.n_dips
    assert batched.dips_per_depth == serial.dips_per_depth
    assert batched.oracle_queries == serial.oracle_queries
    assert batched.oracle_calls < serial.oracle_calls

    speedup = walls["serial"] / walls["batched"]
    before = _phase_row(walls["serial"], serial)
    after = _phase_row(walls["batched"], batched)
    assert speedup >= 1.5, (
        f"oracle-dominated attack only {speedup:.2f}x the serial loop")
    assert after["oracle_share"] < before["oracle_share"], (
        "oracle share did not shrink")

    _merge_bench_json(bench_json_sink, {
        "seq_sat_oracle_dominated": {
            "instance": "trilock ks=1 on synth 3000 gates / 6 PIs, "
                        "dip_batch=16, check_rounds=256 (black-box)",
            "serial": before,
            "batched": after,
            "wall_speedup": speedup,
        },
    })
    artifact_sink(
        "attack_oracle_dominated",
        "seq-sat, trilock ks=1, synth 3000 gates / 6 PIs, dip_batch=16, "
        "check_rounds=256 (black-box verify)\n"
        f"{'phase':<8}{'serial':>10}{'batched':>10}\n"
        f"{'solve':<8}{before['solve_seconds']:>9.2f}s"
        f"{after['solve_seconds']:>9.2f}s\n"
        f"{'oracle':<8}{before['oracle_seconds']:>9.2f}s"
        f"{after['oracle_seconds']:>9.2f}s\n"
        f"{'encode':<8}{before['encode_seconds']:>9.2f}s"
        f"{after['encode_seconds']:>9.2f}s\n"
        f"{'wall':<8}{before['wall_seconds']:>9.2f}s"
        f"{after['wall_seconds']:>9.2f}s\n"
        f"oracle calls: {serial.oracle_calls} -> {batched.oracle_calls} "
        f"(same {serial.oracle_queries} patterns)\n"
        f"end-to-end speedup: {speedup:.2f}x "
        f"(oracle share {before['oracle_share']:.0%} -> "
        f"{after['oracle_share']:.0%})\n")


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
    width = len(locked.netlist.inputs)
    return locked, view, key_inputs, width, depth


def test_comb_sat_pin_heavy_phase_row(artifact_sink, bench_json_sink):
    """Record the phase row of a pin-per-minterm DIP loop (the fastest
    of ``_REPEATS`` runs): the solve and encode (pinning) phases it
    isolates."""
    locked, view, key_inputs, width, depth = _pin_heavy_view()

    def run():
        oracle = SimulationOracle(locked.original)

        def oracle_fn(flat_data):
            vectors = _unflatten(flat_data, width, depth)
            trace = oracle.query(vectors)
            return tuple(bit for cycle in trace for bit in cycle)

        def oracle_batch_fn(flat_batch):
            return oracle.query_batch_flat(
                [_unflatten(flat, width, depth) for flat in flat_batch])

        start = time.perf_counter()
        result = comb_sat_attack(view, key_inputs, oracle_fn, dip_batch=8,
                                 oracle_batch_fn=oracle_batch_fn)
        wall = time.perf_counter() - start
        assert result.success
        return wall, result

    wall, result = min((run() for _ in range(_REPEATS)),
                       key=lambda timed: timed[0])
    row = _phase_row(wall, result)
    _merge_bench_json(bench_json_sink, {
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


def test_fallback_no_numpy_identical(bench_json_sink, monkeypatch):
    """The pure-Python bigint fallback must produce the identical attack
    (same key, DIP walk, pattern count) and still clear the gate bar —
    recorded so CI's numpy-less job has a machine-readable pass."""
    locked = _oracle_dominated_cell()
    _, with_numpy = _run_seq(locked, batched=True, check_rounds=64)
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    wall, fallback = _run_seq(locked, batched=True, check_rounds=64)
    monkeypatch.delenv("REPRO_NO_NUMPY")
    serial_wall, _ = _run_seq(locked, batched=False, check_rounds=64)

    assert fallback.key == with_numpy.key
    assert fallback.n_dips == with_numpy.n_dips
    assert fallback.oracle_queries == with_numpy.oracle_queries
    assert fallback.oracle_calls == with_numpy.oracle_calls
    speedup = serial_wall / wall
    _merge_bench_json(bench_json_sink, {
        "no_numpy_fallback": {
            "instance": "oracle-dominated cell, check_rounds=64, "
                        "REPRO_NO_NUMPY=1",
            "identical_to_numpy_path": True,
            "wall_seconds": wall,
            "speedup_vs_serial": speedup,
        },
    })


def _merge_bench_json(bench_json_sink, fragment):
    """Accumulate sections into one BENCH_attack.json across tests."""
    import json
    from conftest import artifact_dir

    path = os.path.join(artifact_dir(), "BENCH_attack.json")
    payload = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload.update(fragment)
    bench_json_sink("attack", payload)
