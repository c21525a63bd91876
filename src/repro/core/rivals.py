"""Rival locking schemes from the wider literature.

The paper's comparison set is house-grown (naive ``E^N``, HARPOON-like,
sink-cluster); this module adds two external baselines so the matrix
answers "TriLock vs the field" on equal footing:

* :func:`lock_sarlock` — SARLock-style *generalized point function*
  locking (Zhou & Zhang 2019) lifted to the sequential key window: each
  wrong key corrupts only ``g`` input minterms tied to that key, so a
  SAT attack eliminates at most ``g`` keys per DIP and needs on the
  order of ``2^|I| / g`` iterations — maximal SAT resilience at
  vanishing corruptibility.
* :func:`lock_sublock` — SubLock-style *sub-circuit replacement*
  (Rathor et al. 2024): selected gates are re-implemented behind
  key-controlled multiplexing; the wrong-key path computes a perturbed
  function of the same cone.  Structurally stealthy (no sink SCC for a
  removal attack to key on) but SAT-weak — every input tends to be a
  distinguishing input.

Both reuse the sequential key-window plumbing of
:mod:`repro.core.baselines` (phase chain, sticky key-check flag,
original-FSM stall) so the correct key replays the original behaviour
exactly and every attack/metric in the library applies uniformly.
"""

from __future__ import annotations

from repro.core.baselines import (_base_setup, _key_check_flag,
                                  _phase_chain, _spec_for)
from repro.core.config import naive_config
from repro.core.locker import LockedCircuit
from repro.errors import LockingError
from repro.netlist.gates import GateOp


def lock_sarlock(netlist, kappa=1, g=1, n_output_flips=None, seed=0):
    """SARLock-style generalized point-function lock.

    The cycle-0 input word is captured into hold registers; after the
    key window, outputs are flipped only when the current input matches
    one of ``g`` trap patterns *derived from the captured word*
    (``captured XOR mask_j``).  A wrong key therefore corrupts exactly
    the ``g`` minterms tied to the word it was entered with, which is
    the generalized point function of Zhou & Zhang 2019: per-DIP key
    elimination is bounded by ``g``.
    """
    if g < 1:
        raise LockingError(f"sarlock needs g >= 1 trap patterns, got {g}")
    original, locked, rng, key, builder = _base_setup(
        netlist, kappa, seed, "sarlock")
    markers, registers = _phase_chain(builder, kappa, "sa")
    in_key = builder.or_(markers)
    key_wrong = _key_check_flag(builder, markers, locked.inputs, key)
    registers.append(key_wrong)

    # Capture registers: sample each PI during cycle 0, hold forever.
    inputs = list(locked.inputs)
    captured = []
    for index, pi in enumerate(inputs):
        q = builder.names.fresh(f"sa_cap{index}")
        builder.netlist.add_flop(q, q, init=False)  # placeholder D
        builder.netlist.replace_flop_d(q, builder.mux(markers[0], q, pi))
        captured.append(q)
    registers.extend(captured)

    # g distinct non-zero masks: trap pattern j is captured XOR mask_j
    # (mask 0 is excluded — it would trap the key word itself, which the
    # stalled window replays correctly anyway).
    width = len(inputs)
    n_masks = min(g, max(1, 2 ** width - 1))
    masks = set()
    while len(masks) < n_masks:
        masks.add(rng.randrange(1, 2 ** width))
    hits = []
    for mask in sorted(masks):
        terms = [builder.xor_(pi, cap) if (mask >> bit) & 1
                 else builder.xnor2(pi, cap)
                 for bit, (pi, cap) in enumerate(zip(inputs, captured))]
        hits.append(builder.and_(terms))
    error = builder.and_(builder.not_(in_key), key_wrong,
                         builder.or_(hits))

    n_po = len(locked.outputs)
    flips = n_output_flips if n_output_flips is not None \
        else max(1, n_po // 2)
    positions = tuple(sorted(rng.sample(range(n_po), min(flips, n_po))))
    for position in positions:
        locked.set_output(position,
                          builder.xor_(locked.outputs[position], error))

    for q in original.flops:
        flop = locked.flop(q)
        stalled = builder.or_(in_key, flop.d) if flop.init \
            else builder.and_(builder.not_(in_key), flop.d)
        locked.replace_flop_d(q, stalled)

    locked.validate()
    return LockedCircuit(
        netlist=locked,
        original=original,
        config=naive_config(kappa, seed=seed),
        key=key,
        spec=_spec_for(key, len(original.inputs), kappa),
        error_net=error,
        original_registers=tuple(original.flops),
        extra_registers=tuple(registers),
        flipped_output_positions=positions,
        notes={"scheme": "sarlock", "g": n_masks},
    )


def lock_sublock(netlist, kappa=2, n_subs=4, seed=0):
    """SubLock-style sub-circuit replacement lock.

    ``n_subs`` gates are picked as victims; each victim's original
    function is re-emitted as a twin gate over the same inputs and the
    victim net becomes ``twin XOR wrong_mode`` — the right key selects
    the original sub-circuit, a wrong key its complement.  At least one
    victim drives a primary output so corruption is observable.  No
    extra state cycles are introduced (the mode flag is the only added
    register beyond the key window), so the register condensation shows
    no sink SCC — the removal-attack signature stays clean.
    """
    if n_subs < 1:
        raise LockingError(
            f"sublock replaces at least one sub-circuit, got {n_subs}")
    if not netlist.num_gates():
        raise LockingError("sublock needs combinational gates to replace")
    original, locked, rng, key, builder = _base_setup(
        netlist, kappa, seed, "sublock")
    markers, registers = _phase_chain(builder, kappa, "su")
    in_key = builder.or_(markers)
    key_wrong = _key_check_flag(builder, markers, locked.inputs, key)
    registers.append(key_wrong)
    wrong_mode = builder.and_(builder.not_(in_key), key_wrong)

    # Victim selection from the pre-lock gate set, forcing one
    # output-driving gate so the perturbation reaches a PO.
    gate_nets = sorted(original.gates)
    output_gates = sorted(net for net in set(original.outputs)
                          if original.is_gate(net))
    victims = []
    if output_gates:
        victims.append(rng.choice(output_gates))
    remaining = [net for net in gate_nets if net not in victims]
    extra = min(n_subs - len(victims), len(remaining))
    if extra > 0:
        victims.extend(rng.sample(remaining, extra))

    for victim in sorted(victims):
        gate = locked.gate(victim)
        twin = builder.netlist.add_gate(
            builder.names.fresh("su_orig"), gate.op, list(gate.inputs))
        locked.replace_gate(victim, GateOp.XOR, (twin, wrong_mode))

    for q in original.flops:
        flop = locked.flop(q)
        stalled = builder.or_(in_key, flop.d) if flop.init \
            else builder.and_(builder.not_(in_key), flop.d)
        locked.replace_flop_d(q, stalled)

    locked.validate()
    return LockedCircuit(
        netlist=locked,
        original=original,
        config=naive_config(kappa, seed=seed),
        key=key,
        spec=_spec_for(key, len(original.inputs), kappa),
        error_net=wrong_mode,
        original_registers=tuple(original.flops),
        extra_registers=tuple(registers),
        flipped_output_positions=(),
        notes={"scheme": "sublock", "replaced": sorted(victims)},
    )
