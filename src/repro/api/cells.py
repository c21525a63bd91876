"""Circuit x scheme x attack campaign cells.

This is the generalisation of the hand-written experiment cells: one
pure, picklable cell function :func:`matrix_cell` parameterised entirely
by ``(circuit_spec, scheme_spec, attack_spec)``.  All three axes are
spec strings canonicalised (defaults filled, keys sorted) *before* they
enter a :class:`~repro.campaign.model.CellSpec`, so equivalent spellings
of the same configuration address the same content-addressed cache
entry and a distributed runner can ship cells as plain strings.
"""

from __future__ import annotations

from repro.api.attacks import ATTACKS, AttackBudget
from repro.api.circuits import (canonical_circuit_spec, circuit_label,
                                load_circuit)
from repro.api.schemes import SCHEMES
from repro.api.spec import expand_grid, format_spec, parse_spec
from repro.campaign.model import CellSpec


def resolve_scheme_spec(text):
    """``(Scheme, resolved params)`` for a concrete scheme spec string."""
    name, params = parse_spec(text)
    scheme = SCHEMES.get(name)
    return scheme, scheme.resolve_params(params)


def resolve_attack_spec(text):
    """``(Attack, resolved params)`` for a concrete attack spec string."""
    name, params = parse_spec(text)
    attack = ATTACKS.get(name)
    return attack, attack.resolve_params(params)


def canonical_scheme_spec(text):
    """The canonical form of a scheme spec (validated, defaults filled)."""
    scheme, params = resolve_scheme_spec(text)
    return scheme.spec(**params)


def canonical_attack_spec(text):
    """The canonical form of an attack spec (validated, defaults filled)."""
    attack, params = resolve_attack_spec(text)
    return attack.spec(**params)


def matrix_cell(circuit, seed, scheme, attack, max_dips=None,
                time_budget=None):
    """One campaign cell: load, lock with ``scheme``, run ``attack``.

    ``circuit``/``scheme``/``attack`` are spec strings (canonical or not
    — they are resolved through the registries either way; circuit
    generation knobs like scale/seed live inside the circuit spec, while
    ``seed`` here seeds the lock); the return value is the attack's
    :class:`~repro.api.attacks.AttackOutcome` as a JSON dict.
    """
    netlist = load_circuit(circuit)
    scheme_obj, scheme_params = resolve_scheme_spec(scheme)
    locked = scheme_obj.lock(netlist, seed=seed, **scheme_params)
    attack_obj, attack_params = resolve_attack_spec(attack)
    outcome = attack_obj.run(
        locked, budget=AttackBudget(max_dips=max_dips,
                                    time_budget=time_budget),
        **attack_params)
    # scheme_params is already fully resolved, so formatting it directly
    # yields the canonical spec without another schema pass.
    outcome.scheme_spec = format_spec(scheme_obj.name, scheme_params)
    payload = outcome.as_dict()
    payload["scheme"] = outcome.scheme_spec
    payload["circuit"] = circuit
    return payload


def matrix_cells(circuits, scheme_specs, attack_specs, scale=1.0, seed=0,
                 max_dips=None, time_budget=None):
    """Expand a circuit x scheme x attack grid into :class:`CellSpec` jobs.

    Every entry of all three axes may be gridded (``kappa_s=1..3``,
    ``alpha=0.3|0.6``, ``synth?gates=200|400|800``); the expanded
    product is returned in deterministic (circuit, scheme, attack)
    order.  Spec strings are canonicalised before keying — with the
    matrix-level ``scale``/``seed`` folded into circuit specs that omit
    those knobs (bare suite names keep their historic meaning) — so the
    same grid always maps onto the same cache entries; overlapping
    grids are deduplicated at first occurrence so no cell is submitted
    twice.
    """
    circuit_defaults = {"scale": scale, "seed": seed}
    circuits = list(dict.fromkeys(
        canonical_circuit_spec(spec, defaults=circuit_defaults)
        for gridded in circuits for spec in expand_grid(gridded)))
    schemes = list(dict.fromkeys(
        canonical_scheme_spec(spec)
        for gridded in scheme_specs for spec in expand_grid(gridded)))
    attacks = list(dict.fromkeys(
        canonical_attack_spec(spec)
        for gridded in attack_specs for spec in expand_grid(gridded)))
    return [
        CellSpec.make(
            "repro.api.cells:matrix_cell",
            {"circuit": circuit, "seed": seed,
             "scheme": scheme, "attack": attack,
             "max_dips": max_dips, "time_budget": time_budget},
            experiment="matrix",
            label=f"matrix/{circuit_label(circuit)}/"
                  f"{scheme.partition('?')[0]}/"
                  f"{attack.partition('?')[0]}")
        for circuit in circuits
        for scheme in schemes
        for attack in attacks
    ]
