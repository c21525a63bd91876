"""Key-space elimination tracing.

Theorem 1 is a statement about *how many wrong keys each DIP can kill*:
against ``E^SF``, a DIP eliminates every wrong key sharing one prefix
(plus, once, all EF-column keys), so the survivor count steps down in
equal-size blocks; against ``E^N`` it steps down by exactly one. This
module measures that directly on exhaustively countable instances by
projected model counting over the key variables after each DIP — the
quantitative picture behind Fig. 4's ``ndip`` axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.comb_sat import DipEngine, comb_sat_attack
from repro.attacks.seq_sat import unrolled_attack_view
from repro.errors import AttackError
from repro.netlist.transform import simplified

#: Guard: 2^(kappa*|I|) keys are enumerated after every DIP.
_MAX_KEY_BITS = 12


@dataclass
class KeySpaceTrace:
    """Survivor counts over the DIP loop (index i = after DIP i+1)."""

    initial_keys: int
    survivors: list
    eliminated_per_dip: list = field(default_factory=list)

    @property
    def n_dips(self):
        return len(self.survivors)

    def __post_init__(self):
        previous = self.initial_keys
        eliminated = []
        for count in self.survivors:
            eliminated.append(previous - count)
            previous = count
        self.eliminated_per_dip = eliminated


def key_space_trace(locked, oracle, depth=None, max_dips=None):
    """Run the DIP loop on ``locked`` and count surviving keys per DIP.

    ``oracle`` is the activated chip (a
    :class:`~repro.attacks.oracle.SimulationOracle`); it answers the DIP
    loop, then once more for the recorded DIPs that are re-pinned for
    counting. Only feasible for small key spaces (``κ·|I| <= 12``); an
    analysis utility for tests and trade-off studies, not part of the
    attack.
    """
    kappa = locked.config.kappa
    key_bits = kappa * len(locked.original.inputs)
    if key_bits > _MAX_KEY_BITS:
        raise AttackError(
            f"key space 2^{key_bits} too large to enumerate "
            f"(cap 2^{_MAX_KEY_BITS})")
    if depth is None:
        depth = locked.config.kappa_s

    view, key_inputs, _ = unrolled_attack_view(locked.netlist, kappa, depth)
    view = simplified(view, name="keyspace_view")
    ask = oracle.flat_window(depth)

    # Collect the attack's DIPs once, then pin them into one fresh engine
    # and count the survivors after each.
    result = comb_sat_attack(view, key_inputs, ask, max_dips=max_dips,
                             collect_dips=True)
    responses = ask(result.dips)
    survivors = []
    with DipEngine(view, key_inputs) as engine:
        for dip, response in zip(result.dips, responses):
            engine.pin_response(dip, response)
            survivors.append(_count_consistent_keys(engine))
    return KeySpaceTrace(initial_keys=1 << key_bits, survivors=survivors)


def _count_consistent_keys(engine):
    """Count the keys consistent with the I/O pairs pinned so far.

    Enumerates the key-copy "a" models under blocking clauses gated on a
    fresh selector literal, then retires the selector, so the blocking
    clauses never constrain a later count.
    """
    solver = engine.solver
    selector = solver.new_var()
    key_vars = [engine.var_of[engine.map_a[net]] for net in engine.key_inputs]
    count = 0
    while solver.solve(assumptions=[selector]):
        count += 1
        if count > (1 << _MAX_KEY_BITS):
            raise AttackError("runaway key enumeration")
        solver.add_clause([-selector] + [
            -var if solver.model_value(var) else var for var in key_vars])
    solver.add_clause([-selector])
    return count
