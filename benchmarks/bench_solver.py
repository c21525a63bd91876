"""Attack hot-path benchmarks: the arena CDCL core's conflict rate,
word-packed sweeps vs the per-vector loops, and the end-to-end
``comb_sat`` attack with its phase breakdown.

Acceptance bars:

* the arena core answers PHP(8,7) UNSAT (its conflicts/sec and
  propagations/sec are recorded; the pre-arena core it was once raced
  against is a recorded row in the README's "Making it fast" section);
* the fig3 error table's closed-form stimulus >= 3x the per-pair loops,
  and packed fig7 FC >= 3x the per-vector loop;
* a Fig. 7 cell's depth windows in one packed run >= 2x one run per
  depth;
* the Fig. 7 κs=4, κf=2 cell's two s38584 programs each hold at most a
  third of their netlist's nets in slots, with the outputs of the
  program that keeps every net (compile time, ns per gate per cycle and
  slot counts are recorded);
* the BMC window fold of the ``bmc-verify`` cell under its correct key
  (the induction step turned off) needs no solver and emits exactly
  15,671 new gates with 17,070 CSE hits (ns per folded gate is
  recorded);
* the same check, induction on, is proved in 5 folds with no solver
  call (seconds are recorded);
* the correct key of Table I's s38584 κs=1 S=10 lock leaves 1,274
  structurally differing output pairs, the cut re-fold meets all of
  them, and the proof makes no solver call (seconds are recorded);
* Table II's S=30 lock of the full-scale s38584 stand-in applies 29
  pairs with exactly one full SCC decomposition;
* the 48-gate ``comb_sat`` cell recovers a key after exactly
  2^(κs·|I|) = 256 DIPs.

Everything lands in ``BENCH_solver.json`` via ``bench_json_merge`` so
runs can be diffed; the text artifact carries the same numbers
human-readable.
"""

import time
from statistics import mean

from repro.api import SCHEMES, load_circuit
from repro.attacks import (
    SimulationOracle,
    bmc,
    bounded_equivalence,
    comb_sat_attack,
    unrolled_attack_view,
)
from repro.attacks.seq_sat import _with_folded_constants
from repro.bench.synth import generate_circuit
from repro.core import RegisterGraph, TriLockConfig, lock
from repro.core.error_tables import measured_error_table
from repro.netlist import LogicBuilder
from repro.netlist.transform import InputSpecializer
from repro.metrics import (
    PAPER_FC_SAMPLES,
    average_simulated_fc,
    paper_depth_range,
    simulate_fc,
)
from repro.sat import Solver
from repro.sim import (
    CombSimulator,
    SequentialSimulator,
    derive_seed,
    make_rng,
    mask_for,
)
from repro.sim.random_vectors import random_input_words, random_sequence_words

from conftest import run_once
from tests.test_error_tables import per_pair_error_table

#: Interleaved timing repetitions (min-of-N kills one-off timer noise).
_REPEATS = 3


# ----------------------------------------------------------------------
# Structured conflict-dense instances (the shape circuit CNF takes:
# binary-implication-heavy, highly structured).
# ----------------------------------------------------------------------
def php_instance(pigeons, holes):
    """Pigeonhole principle CNF: UNSAT iff pigeons > holes."""
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def _timed_solve(n_vars, clauses):
    solver = Solver()
    solver.ensure_vars(n_vars)
    ok = True
    for clause in clauses:
        if not solver.add_clause(clause):
            ok = False
            break
    start = time.process_time()
    result = solver.solve() if ok else False
    seconds = time.process_time() - start
    return result, seconds, solver.stats()


def test_arena_solver_conflict_rate(benchmark, artifact_sink,
                                    bench_json_merge):
    """Arena CDCL on a conflict-dense instance: the fastest of
    ``_REPEATS`` deterministic runs, with its conflicts/sec and
    propagations/sec.  The answer must be UNSAT."""
    n_vars, clauses = php_instance(8, 7)
    seconds = float("inf")
    for repeat in range(_REPEATS):
        if repeat == _REPEATS - 1:
            # Last run goes through pytest-benchmark so the workload
            # shows up in its table too.
            result, elapsed, stats = run_once(
                benchmark, _timed_solve, n_vars, clauses)
        else:
            result, elapsed, stats = _timed_solve(n_vars, clauses)
        assert result is False
        seconds = min(seconds, elapsed)

    rate = stats["conflicts"] / seconds
    prop_rate = stats["propagations"] / seconds
    artifact_sink(
        "solver_conflict_rate",
        "instance: PHP(8,7) (UNSAT, structured, binary-heavy)\n"
        f"arena: {seconds:.3f}s, {stats['conflicts']} conflicts, "
        f"{rate:,.0f} conflicts/s, {prop_rate:,.0f} props/s\n")
    bench_json_merge("solver", {
        "cdcl_conflict_rate": {
            "instance": "php(8,7)",
            "arena_seconds": seconds,
            "arena_conflicts_per_sec": rate,
            "arena_propagations_per_sec": prop_rate,
        },
    })


# ----------------------------------------------------------------------
# Word-packed sweeps vs the per-vector loops
# ----------------------------------------------------------------------
def _fig3_locked(kappa_s):
    host = generate_circuit("fig3_host", n_inputs=2, n_outputs=2,
                            n_flops=3, n_gates=14, seed=1)
    return SCHEMES.get("trilock").lock(
        host, seed=2, kappa_s=kappa_s, kappa_f=1, alpha=0.6)


def test_fig3_sweep_vectorized(artifact_sink, bench_json_merge):
    """Exhaustive error table (fig3 cell shape, one size up): the
    closed-form stimulus and one-string row read vs the per-pair packing,
    oracle expansion and per-bit row loops.  Bar: >= 3x, identical
    tables."""
    locked = _fig3_locked(kappa_s=3)
    depth = 3  # 2^12 (input, key) pairs

    start = time.process_time()
    slow_table = per_pair_error_table(locked, depth)
    slow_seconds = time.process_time() - start

    fast_seconds = float("inf")
    for _ in range(_REPEATS):
        start = time.process_time()
        fast_table = measured_error_table(locked, depth)
        fast_seconds = min(fast_seconds, time.process_time() - start)

    assert fast_table == slow_table
    speedup = slow_seconds / fast_seconds
    assert speedup >= 3.0, f"fig3 sweep only {speedup:.2f}x"
    bench_json_merge("solver", {
        "fig3_sweep": {
            "instance": "fig3 host, ks=3, depth=3 (2^12 pairs)",
            "per_pair_seconds": slow_seconds,
            "closed_form_seconds": fast_seconds,
            "speedup": speedup,
        },
    })
    artifact_sink(
        "solver_fig3_sweep",
        "fig3 exhaustive table, ks=3 depth=3 (2^12 pairs)\n"
        f"per-pair loops: {slow_seconds * 1000:.1f}ms\n"
        f"closed form:    {fast_seconds * 1000:.1f}ms\n"
        f"speedup: {speedup:.1f}x (tables identical)\n")


def _fc_per_vector(locked, depth, n_samples, seed):
    """Per-vector FC reference: the same estimator evaluated one sample
    at a time (what a VCS-style per-vector flow does)."""
    rng = make_rng(("fc", seed))
    kappa = locked.config.kappa
    inputs = locked.netlist.inputs
    stimulus = [random_input_words(rng, inputs, n_samples)
                for _ in range(kappa + depth)]
    locked_sim = SequentialSimulator(locked.netlist)
    oracle_sim = SequentialSimulator(locked.original)
    errors = 0
    for j in range(n_samples):
        per_cycle = [{net: (words[net] >> j) & 1 for net in inputs}
                     for words in stimulus]
        locked_out, _ = locked_sim.run(per_cycle, 1)
        oracle_out, _ = oracle_sim.run(per_cycle[kappa:], 1)
        corrupted = any(
            (l_word ^ o_word) & 1
            for cycle in range(depth)
            for l_word, o_word in zip(locked_out[kappa + cycle],
                                      oracle_out[cycle])
        )
        errors += bool(corrupted)
    return errors / n_samples


def _fc_bench_locked():
    circuit = generate_circuit("fc_bench", n_inputs=5, n_outputs=4,
                               n_flops=10, n_gates=120, seed=7)
    return lock(circuit, TriLockConfig(kappa_s=2, kappa_f=1, alpha=0.6,
                                       s_pairs=0, seed=11))


def test_fig7_fc_sweep_packed(artifact_sink, bench_json_merge):
    """Fig. 7 FC estimation: packed-word batch vs the per-vector loop.
    Bar: >= 3x, identical estimates."""
    locked = _fc_bench_locked()
    depth, n_samples, seed = 3, 400, 0

    start = time.process_time()
    slow_fc = _fc_per_vector(locked, depth, n_samples, seed)
    slow_seconds = time.process_time() - start

    fast_seconds = float("inf")
    for _ in range(_REPEATS):
        start = time.process_time()
        fast_fc = simulate_fc(locked, depth, n_samples=n_samples, seed=seed)
        fast_seconds = min(fast_seconds, time.process_time() - start)

    assert fast_fc == slow_fc
    speedup = slow_seconds / fast_seconds
    assert speedup >= 3.0, f"fig7 FC sweep only {speedup:.2f}x"
    bench_json_merge("solver", {
        "fig7_fc_sweep": {
            "instance": "fc_bench 120 gates, depth=3, 400 samples",
            "per_vector_seconds": slow_seconds,
            "packed_seconds": fast_seconds,
            "speedup": speedup,
        },
    })
    artifact_sink(
        "solver_fig7_sweep",
        "fig7 FC estimate, 120-gate circuit, depth=3, 400 samples\n"
        f"per-vector loop: {slow_seconds * 1000:.1f}ms\n"
        f"packed batch:    {fast_seconds * 1000:.1f}ms\n"
        f"speedup: {speedup:.1f}x (estimates identical: "
        f"FC={fast_fc:.4f})\n")


def _fc_per_depth(locked, depths, n_samples, seed):
    """A Fig. 7 cell as one :func:`simulate_fc` per depth, each compiling
    both netlists and running its own window."""
    return mean(simulate_fc(locked, depth, n_samples=n_samples,
                            seed=derive_seed("fc", seed, depth))
                for depth in depths)


def test_fig7_fc_window_packed(artifact_sink, bench_json_merge):
    """A Fig. 7 cell's six depth windows: one packed run per netlist vs
    one run per depth. Bar: >= 2x, identical averages."""
    locked = _fc_bench_locked()
    depths, n_samples, seed = paper_depth_range(2), PAPER_FC_SAMPLES, 0

    loop_seconds = packed_seconds = float("inf")
    for _ in range(_REPEATS):
        start = time.process_time()
        loop_fc = _fc_per_depth(locked, depths, n_samples, seed)
        loop_seconds = min(loop_seconds, time.process_time() - start)
        start = time.process_time()
        packed_fc = average_simulated_fc(locked, depths,
                                         n_samples=n_samples, seed=seed)
        packed_seconds = min(packed_seconds, time.process_time() - start)

    assert packed_fc == loop_fc
    speedup = loop_seconds / packed_seconds
    assert speedup >= 2.0, f"fig7 FC window only {speedup:.2f}x"
    bench_json_merge("solver", {
        "fig7_fc_window": {
            "instance": f"fc_bench 120 gates, depths {depths}, "
                        f"{n_samples} samples",
            "per_depth_seconds": loop_seconds,
            "packed_seconds": packed_seconds,
            "speedup": speedup,
        },
    })
    artifact_sink(
        "solver_fig7_window",
        f"fig7 FC cell, 120-gate circuit, depths {depths}, "
        f"{n_samples} samples\n"
        f"one run per depth: {loop_seconds * 1000:.1f}ms\n"
        f"one packed run:    {packed_seconds * 1000:.1f}ms\n"
        f"speedup: {speedup:.1f}x (averages identical: "
        f"FC={packed_fc:.4f})\n")


def _run_keeping_every_net(netlist, stimulus, n_patterns):
    """A sequential run on the program that keeps every net (no slot
    reuse): ``CombSimulator.evaluate`` once per cycle."""
    comb = CombSimulator(netlist)
    state = {q: mask_for(n_patterns) if flop.init else 0
             for q, flop in netlist.flops.items()}
    outputs = []
    for words in stimulus:
        values = comb.evaluate({**words, **state}, n_patterns)
        outputs.append([values[net] for net in netlist.outputs])
        state = {q: values[flop.d] for q, flop in netlist.flops.items()}
    return outputs, state


def test_sim_program(artifact_sink, bench_json_merge):
    """The compiled simulation program on a Fig. 7 cell: the κs=4, κf=2
    lock of the full-scale s38584 stand-in and its original, run over
    the cell's cycles (κ + max b = 15 locked, max b = 9 original) at its
    4,800-bit packed width and at 1 bit. A recorded row, not a race:
    compile time, ns per gate per cycle and slot counts. Bars: each
    program holds at most a third of its netlist's nets in slots, and
    its outputs and final state equal those of the program that keeps
    every net."""
    circuit = load_circuit("suite:s38584?scale=1.0&seed=0")
    locked = SCHEMES.get("trilock").lock(circuit, seed=0, kappa_s=4,
                                         kappa_f=2, alpha=0.9)
    depths = paper_depth_range(4)
    width = PAPER_FC_SAMPLES * len(depths)
    cycles = locked.config.kappa + max(depths)
    rows, lines = {}, []
    for name, netlist, n_cycles in (("locked", locked.netlist, cycles),
                                    ("original", locked.original,
                                     max(depths))):
        stimulus = random_sequence_words(make_rng(("sim_program", name)),
                                         netlist.inputs, n_cycles, width)
        narrow = [{net: word & 1 for net, word in words.items()}
                  for words in stimulus]
        compile_s = run_s = narrow_s = float("inf")
        for _ in range(_REPEATS):
            start = time.process_time()
            sim = SequentialSimulator(netlist)
            compile_s = min(compile_s, time.process_time() - start)
            start = time.process_time()
            result = sim.run(stimulus, width)
            run_s = min(run_s, time.process_time() - start)
            start = time.process_time()
            sim.run(narrow, 1)
            narrow_s = min(narrow_s, time.process_time() - start)
        n_nets = len(netlist.nets())
        assert sim.n_slots * 3 <= n_nets, (name, sim.n_slots, n_nets)
        assert result == _run_keeping_every_net(netlist, stimulus, width)
        gate_cycles = netlist.num_gates() * n_cycles
        rows[name] = {
            "gates": netlist.num_gates(),
            "nets": n_nets,
            "slots": sim.n_slots,
            "cycles": n_cycles,
            "compile_ms": compile_s * 1e3,
            "ns_per_gate_cycle_4800": run_s / gate_cycles * 1e9,
            "ns_per_gate_cycle_1": narrow_s / gate_cycles * 1e9,
        }
        row = rows[name]
        lines.append(
            f"{name}: {row['gates']} gates, {row['slots']}/{n_nets} slots, "
            f"compile {row['compile_ms']:.1f}ms, "
            f"{row['ns_per_gate_cycle_4800']:.0f} ns/gate/cycle at "
            f"{width} bits, {row['ns_per_gate_cycle_1']:.0f} at 1 bit "
            f"({n_cycles} cycles)")
    bench_json_merge("solver", {
        "sim_program": {
            "instance": "fig7 s38584 scale=1.0, ks=4 kf=2 alpha=0.9 seed=0",
            "width": width,
            **rows,
        },
    })
    artifact_sink("solver_sim_program",
                  "fig7 cell simulation program (s38584 stand-in, "
                  "ks=4, kf=2)\n" + "\n".join(lines) + "\n")


def _bmc_verify_lock():
    """The benchmark's ``bmc-verify`` lock: the κs=1, κf=1, α=0.6 lock
    (seed 0) of the 3,000-gate synth host."""
    circuit = load_circuit("synth?gates=3000&ffs=24&pis=6&pos=4&seed=0")
    return SCHEMES.get("trilock").lock(circuit, seed=0, kappa_s=1,
                                       kappa_f=1, alpha=0.6)


def test_fold_per_gate(artifact_sink, bench_json_merge, monkeypatch):
    """The fold behind every DIP pin and BMC window, on the benchmark's
    ``bmc-verify`` cell: ``bounded_equivalence`` of its lock against its
    original, under the correct key at depth 7 (seq-sat's first check
    depth), with the induction step turned off so the check folds the
    whole window, as it does for wrong keys and re-encoded locks. A
    recorded row, not a race: ns per folded gate (one replay of one
    needed gate, best of three). Bars: the proof needs no solver, and
    the builder emits exactly 15,671 new gates and finds 17,070 shared
    ones (its CSE hits)."""
    locked = _bmc_verify_lock()
    prefix, depth = locked.key_vectors(), 7
    monkeypatch.setattr(bmc, "_proved_by_induction", lambda *args: False)

    def needed(netlist):
        roots = [*netlist.outputs,
                 *(flop.d for flop in netlist.flops.values())]
        return len(netlist.combinational_fanin(roots)[0])

    folded = (needed(locked.netlist) * (len(prefix) + depth)
              + needed(locked.original) * depth)
    seconds = float("inf")
    for _ in range(_REPEATS):
        start = time.process_time()
        result = bounded_equivalence(locked.original, locked.netlist, depth,
                                     prefix_vectors=prefix)
        seconds = min(seconds, time.process_time() - start)
        assert result.equivalent and result.solver_stats["solve_calls"] == 0

    counts = {"new_gates": 0, "cse_hits": 0}
    emit = LogicBuilder._emit

    def counted(builder, op, inputs):
        before = len(builder._cse)
        net = emit(builder, op, inputs)
        counts["new_gates" if len(builder._cse) > before
               else "cse_hits"] += 1
        return net

    monkeypatch.setattr(LogicBuilder, "_emit", counted)
    bounded_equivalence(locked.original, locked.netlist, depth,
                        prefix_vectors=prefix)
    monkeypatch.undo()
    assert counts == {"new_gates": 15_671, "cse_hits": 17_070}, counts
    ns_per_gate = seconds / folded * 1e9
    bench_json_merge("solver", {
        "fold_per_gate": {
            "instance": "bmc-verify cell: synth gates=3000 ffs=24 pis=6 "
                        "pos=4, trilock ks=1 kf=1 alpha=0.6 seed=0, "
                        "correct key, depth 7",
            "folded_gates": folded,
            "seconds": seconds,
            "ns_per_folded_gate": ns_per_gate,
            **counts,
        },
    })
    artifact_sink(
        "solver_fold_per_gate",
        f"BMC window fold of the bmc-verify cell under its correct key "
        f"(induction off), depth {depth}\n{folded} gates folded in "
        f"{seconds * 1e3:.1f} ms CPU: "
        f"{ns_per_gate:.0f} ns per folded gate; {counts['new_gates']} new "
        f"gates, {counts['cse_hits']} CSE hits\n")


def test_bmc_induction_proof(artifact_sink, bench_json_merge, monkeypatch):
    """``test_fold_per_gate``'s check with the induction step on: the
    2-cycle key prefix, one symbolic cycle of the original and two of
    the lock (the first frees the lock registers that move) prove the
    key at every depth, where the window fold takes 2 + 7 + 7 folds.
    Bars: equivalent, exactly 5 folds, no solver call. Records the best
    of three process times."""
    locked = _bmc_verify_lock()
    prefix, depth = locked.key_vectors(), 7
    folds = []
    fold = InputSpecializer.fold

    def counted(self, builder, mapping):
        folds.append(self)
        fold(self, builder, mapping)

    monkeypatch.setattr(InputSpecializer, "fold", counted)
    seconds = float("inf")
    for _ in range(_REPEATS):
        folds.clear()
        start = time.process_time()
        result = bounded_equivalence(locked.original, locked.netlist, depth,
                                     prefix_vectors=prefix)
        seconds = min(seconds, time.process_time() - start)
        assert result.equivalent and result.solver_stats["solve_calls"] == 0
        assert len(folds) == 5, len(folds)
    bench_json_merge("solver", {
        "bmc_induction_proof": {
            "instance": "bmc-verify cell: synth gates=3000 ffs=24 pis=6 "
                        "pos=4, trilock ks=1 kf=1 alpha=0.6 seed=0, "
                        "correct key, depth 7",
            "folds": len(folds),
            "solve_calls": 0,
            "seconds": seconds,
        },
    })
    artifact_sink(
        "solver_bmc_induction_proof",
        f"Correct-key BMC of the bmc-verify lock, depth {depth}, by "
        f"induction\n{len(folds)} folds, 0 solver calls: "
        f"{seconds * 1e3:.1f} ms CPU\n")


def test_bmc_cut_proof(artifact_sink, bench_json_merge, monkeypatch):
    """Table I's s38584 κs=1 cell (scale 0.08, S=10, lock seed 0): the
    correct-key BMC check seq-sat makes at depth 7. State re-encoding
    leaves 1,274 output pairs that structural hashing cannot meet; the
    cut re-fold of their 9,000-gate residual meets every one, so no
    solver is called. Records the best of three process times."""
    circuit = load_circuit("suite:s38584?scale=0.08&seed=0")
    locked = SCHEMES.get("trilock").lock(circuit, seed=0, kappa_s=1,
                                         kappa_f=1, alpha=0.6, s_pairs=10)
    prefix, depth = locked.key_vectors(), 7
    residues = []
    residue = bmc._cut_residue

    def counted(residual, pairs):
        left = residue(residual, pairs)
        residues.append((len(pairs), residual.num_gates(), len(left)))
        return left

    monkeypatch.setattr(bmc, "_cut_residue", counted)
    seconds = float("inf")
    for _ in range(_REPEATS):
        residues.clear()
        start = time.process_time()
        result = bounded_equivalence(locked.original, locked.netlist, depth,
                                     prefix_vectors=prefix)
        seconds = min(seconds, time.process_time() - start)
        assert result.equivalent and result.solver_stats["solve_calls"] == 0
        assert residues == [(1274, 9000, 0)], residues
    bench_json_merge("solver", {
        "bmc_cut_proof": {
            "instance": "table1 cell: suite:s38584 scale=0.08, trilock "
                        "ks=1 kf=1 alpha=0.6 S=10 seed=0, correct key, "
                        "depth 7",
            "structural_pairs": 1274,
            "residual_gates": 9000,
            "pairs_after_cuts": 0,
            "solve_calls": 0,
            "seconds": seconds,
        },
    })
    artifact_sink(
        "solver_bmc_cut_proof",
        f"Correct-key BMC of Table I's s38584 ks=1 S=10 lock, depth "
        f"{depth}\n1274 structurally differing pairs over a 9000-gate "
        f"residual, 0 after the cut re-fold, 0 solver calls: "
        f"{seconds:.2f}s CPU\n")


# ----------------------------------------------------------------------
# Removal defence: Algorithm 1's state re-encoding
# ----------------------------------------------------------------------
def test_reencode_s30(artifact_sink, bench_json_merge, monkeypatch):
    """Table II's S=30 cell: lock the full-scale s38584 stand-in with
    κs=3 and 30 re-encoding pairs (29 apply at seed 0). A spy counts
    full SCC decompositions: Algorithm 1 makes one per call and then
    updates only the merged node's SCC."""
    circuit = load_circuit("suite:s38584?scale=1.0&seed=0")
    config = TriLockConfig(kappa_s=3, kappa_f=1, alpha=0.6, s_pairs=30,
                           seed=0)
    decompositions = []
    full_sccs = RegisterGraph.sccs

    def counted(graph):
        decompositions.append(graph)
        return full_sccs(graph)

    monkeypatch.setattr(RegisterGraph, "sccs", counted)
    seconds = float("inf")
    for _ in range(_REPEATS):
        decompositions.clear()
        start = time.process_time()
        locked = lock(circuit, config)
        seconds = min(seconds, time.process_time() - start)
        assert len(decompositions) == 1  # one apply_state_reencoding call
    pairs = len(locked.reencoded_pairs)
    assert pairs == 29
    bench_json_merge("solver", {
        "reencode_s30": {
            "instance": "suite:s38584?scale=1.0&seed=0, ks=3, S=30",
            "lock_seconds": seconds,
            "pairs_applied": pairs,
            "full_scc_decompositions": len(decompositions),
        },
    })
    artifact_sink(
        "solver_reencode_s30",
        f"Table II S=30 lock, s38584 stand-in "
        f"({circuit.num_flops()} flops, {circuit.num_gates()} gates)\n"
        f"lock: {seconds:.2f}s CPU, {pairs} pairs applied, "
        f"{len(decompositions)} full SCC decomposition\n")


# ----------------------------------------------------------------------
# End-to-end attack wall-clock
# ----------------------------------------------------------------------
def test_comb_sat_attack_wall_clock(artifact_sink, bench_json_merge):
    """The real DIP loop on a 48-gate sequential host: the fastest of
    three runs, with its phase breakdown.

    Theorem 1 fixes the DIP count at 2^(κs·|I|) = 256; the phases
    show where the time goes (solving, then pinning; the oracle is a
    few percent).
    """
    circuit = generate_circuit("benchseq", n_inputs=4, n_outputs=3,
                               n_flops=8, n_gates=48, seed=9)
    locked = lock(circuit, TriLockConfig(kappa_s=2, kappa_f=1, alpha=0.6,
                                         s_pairs=0, seed=11))
    kappa, depth = locked.config.kappa, locked.config.kappa_s
    view, key_inputs, _ = unrolled_attack_view(locked.netlist, kappa, depth)
    view = _with_folded_constants(view)
    oracle = SimulationOracle(locked.original)

    seconds, result = float("inf"), None
    for _ in range(3):
        start = time.process_time()
        run = comb_sat_attack(view, key_inputs, oracle.flat_window(depth))
        elapsed = time.process_time() - start
        assert run.success and run.n_dips == 256
        if elapsed < seconds:
            seconds, result = elapsed, run

    bench_json_merge("solver", {
        "comb_sat_attack": {
            "instance": "benchseq 48 gates, ks=2",
            "n_dips": result.n_dips,
            "arena_seconds": seconds,
            "solve_seconds": result.solve_seconds,
            "encode_seconds": result.encode_seconds,
            "oracle_seconds": result.oracle_seconds,
        },
    })
    artifact_sink(
        "solver_attack_wall",
        f"comb_sat attack, 48-gate sequential host, ks=2 "
        f"({result.n_dips} DIPs)\n"
        f"arena solver: {seconds:.2f}s CPU (solve "
        f"{result.solve_seconds:.2f}s, encode "
        f"{result.encode_seconds:.2f}s, oracle "
        f"{result.oracle_seconds:.2f}s wall)\n")
