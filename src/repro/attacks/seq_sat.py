"""Sequential SAT attack with unrolling and depth estimation.

Implements the attack family the paper evaluates against [6,14,15,16]:

1. Estimate (or be given) the minimum unrolling depth ``b*`` — Fun-SAT
   [16] shows ``b*`` is efficiently predictable; for TriLock it equals
   ``κs`` and the experiments pass it in exactly as the paper assumes.
2. Unroll the locked circuit ``κ + b`` cycles and run COMB-SAT on it,
   treating the first ``κ`` cycle-inputs as the key sequence.
3. Model-check the candidate key beyond depth ``b`` (BMC against the
   reference when the harness provides it, black-box random simulation
   otherwise); on a counterexample, deepen and continue.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.attacks.bmc import bounded_equivalence
from repro.attacks.comb_sat import comb_sat_attack
from repro.attacks.oracle import SimulationOracle
from repro.core.keys import KeySequence
from repro.errors import AttackError
from repro.netlist.transform import simplified
from repro.sat import make_attack_solver
from repro.sim.random_vectors import make_rng, random_vectors
from repro.sim.seq import SequentialSimulator
from repro.unroll import unroll


@dataclass
class SeqAttackResult:
    """Outcome of a sequential SAT attack.

    ``oracle_queries`` counts input *sequences* the oracle simulated
    (:attr:`SimulationOracle.pattern_count`: one per DIP, plus
    ``check_rounds`` per black-box key check); ``oracle_calls`` counts
    oracle invocations (one per miter round, plus one per black-box key
    check, however many sequences each carries).  The phase timers
    aggregate the per-depth COMB-SAT phase breakdown (miter solving,
    oracle simulation, constraint pinning) plus candidate-key
    verification: ``verify_seconds`` holds the BMC checks against the
    reference, while black-box verification, which is locked replay
    plus oracle queries, counts towards ``oracle_seconds``.
    """

    success: bool
    key: KeySequence | None
    n_dips: int
    seconds: float
    depth: int                 # final unrolling depth b
    depths_tried: list = field(default_factory=list)
    dips_per_depth: dict = field(default_factory=dict)
    verified: bool = False
    stop_reason: str = "done"
    oracle_queries: int = 0
    oracle_calls: int = 0
    solve_seconds: float = 0.0
    oracle_seconds: float = 0.0
    encode_seconds: float = 0.0
    verify_seconds: float = 0.0


def unrolled_attack_view(locked_netlist, kappa, depth):
    """Unroll ``κ + depth`` cycles and expose only the post-key window.

    Returns ``(netlist, key_inputs, data_inputs)`` where the netlist's
    outputs are the cycle ``κ .. κ+depth−1`` outputs in cycle-major order.
    """
    if depth < 1:
        raise AttackError("attack depth must be >= 1")
    unrolled = unroll(locked_netlist, kappa + depth, name="attack_view")
    view = unrolled.netlist.copy()
    # Re-point outputs at the post-key window only.
    view.clear_outputs()
    for cycle in range(kappa, kappa + depth):
        for net in unrolled.outputs_at(cycle):
            view.add_output(net)
    key_inputs = []
    for cycle in range(kappa):
        key_inputs.extend(unrolled.inputs_at(cycle))
    data_inputs = []
    for cycle in range(kappa, kappa + depth):
        data_inputs.extend(unrolled.inputs_at(cycle))
    return view, key_inputs, data_inputs


def estimate_min_unroll_depth(locked_netlist, kappa, max_depth=16,
                              n_samples=256, seed=0, reference=None):
    """Fun-SAT-style ``b*`` estimation via sampled corruptibility.

    Simulates random keys/inputs at growing depth and returns the first
    depth where output corruption is observed (the depth at which DIPs
    exist at all). The caller may still need to deepen if wrong keys
    survive — that is what the model-check loop handles.
    """
    rng = make_rng(("bstar", seed))
    width = len(locked_netlist.inputs)
    locked_sim = SequentialSimulator(locked_netlist)
    if reference is None:
        raise AttackError("depth estimation needs a reference or oracle")
    oracle_sim = SequentialSimulator(reference)
    for depth in range(1, max_depth + 1):
        # Draw all samples in the serial loop's (key, data, key, data...)
        # order, then simulate the whole depth in two word-parallel
        # passes — the returned depth is identical to the per-sample
        # loop's (any corrupted sample at this depth triggers it).
        samples = [(random_vectors(rng, width, kappa),
                    random_vectors(rng, width, depth))
                   for _ in range(n_samples)]
        locked_out = locked_sim.run_pattern_matrix(
            [[key[cycle] for key, _data in samples]
             for cycle in range(kappa)]
            + [[data[cycle] for _key, data in samples]
               for cycle in range(depth)])
        oracle_out = oracle_sim.run_pattern_matrix(
            [[data[cycle] for _key, data in samples]
             for cycle in range(depth)])
        if locked_out[kappa:] != oracle_out:
            return depth
    return max_depth


def sequential_sat_attack(locked_netlist, kappa, oracle, known_depth=None,
                          max_depth=12, max_dips=None, time_budget=None,
                          reference=None, check_rounds=24, seed=0,
                          dip_batch=1, portfolio=None, attack_jobs=1):
    """Oracle-guided sequential SAT attack; returns :class:`SeqAttackResult`.

    ``oracle``
        A :class:`SimulationOracle` (black-box activated chip).
    ``known_depth``
        Start directly at ``b = known_depth`` (the paper's setting, with
        ``b* = κs``); otherwise iterative deepening starts at 1.
    ``reference``
        When the harness provides the original netlist, candidate keys are
        verified by BMC; otherwise by ``check_rounds`` random oracle
        sequences, asked in one batched oracle call (pure black-box
        mode).
    ``dip_batch`` / ``portfolio`` / ``attack_jobs``
        Attack-engine knobs forwarded to the COMB-SAT core of each
        unrolling depth: DIPs extracted per miter round, solver-portfolio
        spec, and worker-process budget for racing the portfolio (the
        defaults reproduce the classic single-solver loop exactly).
        A racing portfolio spawns its worker fleet *once* and resets it
        between depths (the workers' clause stores are rebuilt in place)
        instead of respawning per depth — cheap under ``fork``, a real
        saving on ``spawn`` platforms.
    """
    start = time.perf_counter()
    rng = make_rng(("seqsat", seed))
    depth = known_depth if known_depth is not None else 1
    depths_tried = []
    dips_per_depth = {}
    total_dips = 0
    timers = dict.fromkeys(("solve_seconds", "oracle_seconds",
                            "encode_seconds", "verify_seconds"), 0.0)

    def finish(**fields):
        return SeqAttackResult(
            n_dips=total_dips, seconds=time.perf_counter() - start,
            depths_tried=depths_tried, dips_per_depth=dips_per_depth,
            oracle_queries=oracle.pattern_count,
            oracle_calls=oracle.query_count, **timers, **fields)

    # One solver for the whole attack when the engine supports cross-
    # phase reuse (the portfolio's `reset`); otherwise each depth builds
    # its own engine exactly as before, keeping the serial single-solver
    # path byte-identical to the historical behaviour.  The default
    # knobs can only yield a plain backend, so the probe (and the eager
    # misconfiguration check it performs) is skipped entirely there.
    shared_solver = None
    if attack_jobs != 1 or portfolio not in (None, "default"):
        candidate = make_attack_solver(portfolio=portfolio,
                                       attack_jobs=attack_jobs)
        if hasattr(candidate, "reset"):
            shared_solver = candidate
        elif hasattr(candidate, "close"):
            candidate.close()

    try:
        while depth <= max_depth:
            depths_tried.append(depth)
            view, key_inputs, data_inputs = unrolled_attack_view(
                locked_netlist, kappa, depth)
            view = _with_folded_constants(view)

            budget_left = None
            if time_budget is not None:
                budget_left = time_budget - (time.perf_counter() - start)
                if budget_left <= 0:
                    return finish(success=False, key=None, depth=depth,
                                  stop_reason="time_budget")

            if shared_solver is not None:
                if len(depths_tried) > 1:  # same fleet, fresh formula
                    shared_solver.reset()
                engine = {"solver": shared_solver}
            else:
                engine = {"portfolio": portfolio,
                          "attack_jobs": attack_jobs}
            result = comb_sat_attack(
                view, key_inputs, oracle.flat_window(depth),
                max_dips=None if max_dips is None
                else max_dips - total_dips,
                time_budget=budget_left, dip_batch=dip_batch, **engine)
            total_dips += result.n_dips
            dips_per_depth[depth] = result.n_dips
            for phase in ("solve_seconds", "oracle_seconds",
                          "encode_seconds"):
                timers[phase] += getattr(result, phase)
            if not result.success:
                return finish(success=False, key=None, depth=depth,
                              stop_reason=result.stop_reason)

            candidate = _key_from_model(result.key, locked_netlist.inputs,
                                        kappa)
            phase_start = time.perf_counter()
            ok, counterexample_depth = _verify_candidate(
                locked_netlist, kappa, candidate, oracle, reference,
                rng, check_rounds, depth)
            timers["verify_seconds" if reference is not None
                   else "oracle_seconds"] += time.perf_counter() - phase_start
            if ok:
                return finish(success=True, key=candidate, depth=depth,
                              verified=True)
            depth = max(depth + 1, counterexample_depth)

        return finish(success=False, key=None, depth=depth - 1,
                      stop_reason="max_depth")
    finally:
        if shared_solver is not None:
            shared_solver.close()


def attack_locked_circuit(locked, known_depth="paper", **kwargs):
    """Convenience front-end for a :class:`LockedCircuit`.

    ``known_depth="paper"`` applies the paper's assumption ``b* = κs``
    (Fun-SAT estimates it efficiently); pass ``None`` for honest iterative
    deepening or an int to force a depth.
    """
    oracle = SimulationOracle(locked.original)
    if known_depth == "paper":
        known_depth = locked.config.kappa_s
    return sequential_sat_attack(
        locked.netlist, locked.config.kappa, oracle,
        known_depth=known_depth, reference=locked.original, **kwargs)


def _with_folded_constants(view):
    """Fold the reset constants through the unrolled circuit once."""
    return simplified(view, name=view.name + "_folded")


def _key_from_model(key_assignment, input_names, kappa):
    """Rebuild the key sequence from unrolled key-input assignments."""
    vectors = []
    for cycle in range(kappa):
        vector = tuple(
            bool(key_assignment[f"{net}@{cycle}"]) for net in input_names
        )
        vectors.append(vector)
    return KeySequence(width=len(input_names), vectors=tuple(vectors))


def _verify_candidate(locked_netlist, kappa, candidate, oracle, reference,
                      rng, check_rounds, depth):
    """Check a candidate key; returns (ok, counterexample_depth)."""
    if reference is not None:
        result = bounded_equivalence(
            reference, locked_netlist, depth=depth + kappa + 4,
            prefix_vectors=list(candidate.vectors))
        if result.equivalent:
            return True, depth
        # Deepen to the first cycle where the witness actually diverges.
        locked_sim = SequentialSimulator(locked_netlist)
        reference_sim = SequentialSimulator(reference)
        witness = result.counterexample
        locked_trace = locked_sim.run_vectors(
            list(candidate.vectors) + witness)
        reference_trace = reference_sim.run_vectors(witness)
        for cycle, (got, want) in enumerate(
                zip(locked_trace[kappa:], reference_trace)):
            if got != want:
                return False, cycle + 1
        return False, depth + 1  # pragma: no cover - witness must diverge

    # Black-box mode: ``check_rounds`` random oracle sequences, all
    # word-parallel in one locked simulation and one oracle call.
    width = candidate.width
    locked_sim = SequentialSimulator(locked_netlist)
    total_cycles = depth + kappa + 4
    prefix = list(candidate.vectors)
    datas = [random_vectors(rng, width, total_cycles)
             for _ in range(check_rounds)]
    locked_out = locked_sim.run_pattern_matrix(
        [[prefix[cycle]] * check_rounds for cycle in range(kappa)]
        + [[data[cycle] for data in datas]
           for cycle in range(total_cycles)])
    oracle_traces = oracle.query_batch(datas)
    for j, oracle_trace in enumerate(oracle_traces):
        locked_trace = [locked_out[kappa + cycle][j]
                        for cycle in range(total_cycles)]
        if locked_trace != oracle_trace:
            for cycle, (got, want) in enumerate(
                    zip(locked_trace, oracle_trace)):
                if got != want:
                    return False, cycle + 1
    return True, depth
