#!/usr/bin/env python3
"""Knob sweep for the tuned CDCL configurations.

Grids restart pacing / activity decay / default phase around each of the
three non-reference configs (``cdcl-agile``, ``cdcl-stable``,
``cdcl-flip``) and times every candidate on two workload families:

* ``php`` — the PHP(8,7) pigeonhole instance: UNSAT, structured,
  conflict-dense, the stress shape for restart pacing and clause-activity
  decay;
* ``miter`` — the real DIP loop: ``comb_sat_attack`` on a locked synth
  host, scored by ``CombSatResult.solve_seconds`` so the oracle and
  encode phases don't pollute the solver signal.

The reference ``cdcl`` config is *never* a sweep target: default attack
runs are byte-identical across releases only while its search is, so its
knobs are frozen.  The other configs are selected one at a time (an
attack's ``solver`` param, ``--solver``); retuning one moves the DIP
walks of the cells that select it, whose cache keys name it, so land a
retune with a ``CODE_VERSION`` bump.

Usage::

    PYTHONPATH=src python benchmarks/sweep_cdcl.py [--repeats 2] [--quick]

Prints a per-profile ranking (total min-of-N process-time across both
workloads, ties broken by conflicts) and flags the current in-tree
default in each table.  This is a tuning tool, not a pytest suite — the
landed defaults in ``repro.sat.backend.BUILTIN_CONFIGS`` are the output
of running it, re-run after any arena-core change.
"""

import argparse
import itertools
import time

from repro.attacks import SimulationOracle, comb_sat_attack
from repro.attacks.seq_sat import _with_folded_constants
from repro.attacks import unrolled_attack_view
from repro.bench.synth import generate_circuit
from repro.core import TriLockConfig, lock
from repro.sat.backend import CdclConfig


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def php_instance(pigeons, holes):
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def time_php(config, pigeons=8, holes=7):
    n_vars, clauses = php_instance(pigeons, holes)
    solver = config.build()
    solver.ensure_vars(n_vars)
    for clause in clauses:
        solver.add_clause(clause)
    start = time.process_time()
    result = solver.solve()
    seconds = time.process_time() - start
    assert result is False
    return seconds, solver.stats()["conflicts"]


def make_attack_workload(gates=64, seed=9):
    circuit = generate_circuit("sweepseq", n_inputs=4, n_outputs=3,
                               n_flops=8, n_gates=gates, seed=seed)
    locked = lock(circuit, TriLockConfig(kappa_s=2, kappa_f=1, alpha=0.6,
                                         s_pairs=0, seed=11))
    kappa, depth = locked.config.kappa, locked.config.kappa_s
    view, key_inputs, _ = unrolled_attack_view(locked.netlist, kappa, depth)
    view = _with_folded_constants(view)
    original = locked.original

    def run(config):
        oracle = SimulationOracle(original).flat_window(depth)
        result = comb_sat_attack(view, key_inputs, oracle,
                                 solver=config.build())
        assert result.success
        return result.solve_seconds, result.n_dips

    return run


# ----------------------------------------------------------------------
# The grid: a neighborhood around each profile's intent
# ----------------------------------------------------------------------
def profile_grids(quick):
    grids = {
        # fast restarts, aggressive VSIDS decay
        "cdcl-agile": {
            "var_decay": [0.80, 0.85, 0.90],
            "restart_base": [8, 16, 32],
            "clause_decay": [0.999],
            "phase_default": [False],
        },
        # slow restarts, long memory, positive phase
        "cdcl-stable": {
            "var_decay": [0.97, 0.99],
            "restart_base": [128, 256, 512],
            "clause_decay": [0.999],
            "phase_default": [True],
        },
        # reference pacing, flipped phase, shorter clause memory
        "cdcl-flip": {
            "var_decay": [0.95],
            "restart_base": [32, 64, 128],
            "clause_decay": [0.98, 0.99],
            "phase_default": [True],
        },
    }
    if quick:
        for grid in grids.values():
            for key, values in grid.items():
                grid[key] = values[:2]
    return grids


def candidates(profile, grid):
    keys = sorted(grid)
    for values in itertools.product(*(grid[key] for key in keys)):
        params = dict(zip(keys, values))
        label = ",".join(f"{key.split('_')[0]}={params[key]}"
                         for key in keys)
        yield label, CdclConfig(f"{profile}?{label}", **params), params


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=2,
                        help="min-of-N repetitions per candidate")
    parser.add_argument("--quick", action="store_true",
                        help="clip every axis to 2 values")
    args = parser.parse_args()

    current = {
        "cdcl-agile": {"var_decay": 0.85, "restart_base": 16,
                       "clause_decay": 0.999, "phase_default": False},
        "cdcl-stable": {"var_decay": 0.99, "restart_base": 256,
                        "clause_decay": 0.999, "phase_default": True},
        "cdcl-flip": {"var_decay": 0.95, "restart_base": 64,
                      "clause_decay": 0.99, "phase_default": True},
    }
    attack = make_attack_workload()

    for profile, grid in profile_grids(args.quick).items():
        rows = []
        for label, config, params in candidates(profile, grid):
            php_s, conflicts = min(
                (time_php(config) for _ in range(args.repeats)),
                key=lambda pair: pair[0])
            miter_s, n_dips = min(
                (attack(config) for _ in range(args.repeats)),
                key=lambda pair: pair[0])
            rows.append((php_s + miter_s, php_s, miter_s, conflicts,
                         n_dips, label, params))
        rows.sort()
        print(f"\n== {profile} "
              f"(total = php(8,7) + miter solve_seconds, min of "
              f"{args.repeats}) ==")
        for total, php_s, miter_s, conflicts, n_dips, label, params in rows:
            marker = " <- current" if params == current[profile] else ""
            print(f"  {total * 1000:8.1f}ms  php {php_s * 1000:7.1f}ms "
                  f"({conflicts} cf)  miter {miter_s * 1000:7.1f}ms "
                  f"({n_dips} dips)  {label}{marker}")
        best = rows[0]
        print(f"  best: {best[5]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
