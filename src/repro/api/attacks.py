"""The Attack protocol and the built-in attack suite.

An *attack* is a first-class adversary: a name, a :class:`Param` schema,
and ``run(locked, oracle, budget, **params) -> AttackOutcome``.  Every
attack consumes the same threat model the paper assumes — a
:class:`~repro.core.locker.LockedCircuit` (the netlist the attacker
reverse-engineered) plus a black-box
:class:`~repro.attacks.oracle.SimulationOracle` (the activated chip) —
and reports a uniform, JSON-safe :class:`AttackOutcome`, which is what
lets one campaign matrix cross any scheme with any attack.

The six built-ins cover the paper's evaluation surface: the oracle-
guided SAT family (``seq-sat`` with iterative deepening, ``comb-sat``
at one fixed unrolling depth), ``bmc`` model-checking, the structural
``removal`` attack (Section II-C), ``stg`` signature analysis
(Section V's open vector), and ``key-space`` elimination tracing
(Theorem 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.registry import Param, Plugin, Registry
from repro.api.spec import format_spec
from repro.attacks.key_space import key_space_trace
from repro.attacks.bmc import bounded_equivalence
from repro.attacks.oracle import SimulationOracle
from repro.attacks.removal import attempt_removal, scc_report
from repro.attacks.seq_sat import sequential_sat_attack
from repro.attacks.stg import stg_report
from repro.core.keys import KeySequence

#: The global attack registry.
ATTACKS = Registry("attack")


@dataclass(frozen=True)
class AttackBudget:
    """Uniform effort caps (``None`` = unlimited).

    Each attack honours the caps its search can bound: the SAT family
    and ``removal`` respect both, ``key-space`` caps its DIP loop with
    ``max_dips``, ``bmc`` stops probing further wrong keys once past
    ``time_budget``, and ``stg`` bounds its exploration with its own
    ``max_states`` parameter instead.
    """

    max_dips: int = None
    time_budget: float = None


@dataclass
class AttackOutcome:
    """Uniform result of one attack run.

    ``success`` means the attack achieved its goal (key recovered, lock
    stripped, signature found — each attack's docstring defines it);
    ``metrics`` holds flat JSON scalars for table rendering, ``details``
    richer JSON-safe structures.  The dict round-trip (:meth:`as_dict` /
    :meth:`from_dict`) is what campaign cells cache.

    ``attack_spec``/``scheme_spec`` carry the *canonical* spec strings
    the outcome was produced from (``Attack.run`` fills the former,
    :func:`repro.api.cells.matrix_cell` the latter), so a result fetched
    over the campaign-service job API is self-describing.  They are
    derived metadata, not inputs: cache keys hash the cell parameters
    only, so adding them changed no existing key.

    ``timing`` holds the wall-clock phase breakdown (e.g. the SAT
    family's ``solve_seconds`` / ``oracle_seconds`` / ``encode_seconds``
    DIP-loop phases and its ``verify_seconds`` BMC key checks).  Like
    ``seconds`` it is measured wall-clock, so it sits *outside*
    ``metrics``: metrics stay deterministic and the
    serial/parallel/cached byte-identity promise only ever excepts the
    wall-clock fields.
    """

    attack: str
    success: bool
    seconds: float
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    attack_spec: str = None
    scheme_spec: str = None
    timing: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "attack": self.attack,
            "success": self.success,
            "seconds": self.seconds,
            "metrics": dict(self.metrics),
            "details": dict(self.details),
            "attack_spec": self.attack_spec,
            "scheme_spec": self.scheme_spec,
            "timing": dict(self.timing),
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(attack=payload["attack"], success=payload["success"],
                   seconds=payload["seconds"],
                   metrics=dict(payload.get("metrics", ())),
                   details=dict(payload.get("details", ())),
                   attack_spec=payload.get("attack_spec"),
                   scheme_spec=payload.get("scheme_spec"),
                   timing=dict(payload.get("timing", ())))


class Attack(Plugin):
    """A registered adversary: ``run(locked, oracle, budget, **params)``."""

    kind = "attack"

    def run(self, locked, oracle=None, budget=None, **params):
        """Attack ``locked``; returns an :class:`AttackOutcome`.

        ``oracle`` defaults to a fresh :class:`SimulationOracle` over the
        original netlist (the activated chip); ``budget`` defaults to
        unlimited.  The returned outcome's ``seconds`` is wall-clock of
        the whole run.
        """
        if oracle is None:
            oracle = SimulationOracle(locked.original)
        if budget is None:
            budget = AttackBudget()
        resolved = self.resolve_params(params)
        start = time.perf_counter()
        outcome = self._fn(locked, oracle, budget, **resolved)
        outcome.attack = self.name
        outcome.attack_spec = format_spec(self.name, resolved)
        outcome.seconds = time.perf_counter() - start
        return outcome


def register_attack(name, description="", params=None, replace=False):
    """Decorator: publish ``fn(locked, oracle, budget, **params)``."""
    def decorate(fn):
        ATTACKS.add(Attack(name, fn, params=params,
                           description=description), replace=replace)
        return fn
    return decorate


#: Engine knobs shared by the SAT-family attacks (PR 3's portfolio layer).
_ENGINE_PARAMS = {
    "dip_batch": Param("int", 1, "DIPs extracted per miter round"),
    "portfolio": Param("str", None, "solver portfolio spec "
                                    "(default/race/race2/all/names)"),
    "attack_jobs": Param("int", 1, "worker processes racing the portfolio",
                         aliases=(("auto", None),)),
}


def _key_metrics(result, locked):
    key_ok = bool(result.success and result.key is not None
                  and result.key.as_int == locked.key.as_int)
    return {
        "n_dips": result.n_dips,
        "depth": result.depth,
        "key_ok": key_ok,
        "stop_reason": result.stop_reason,
        # Sequences simulated (one per DIP and per black-box check
        # round) vs oracle calls (one per miter round or key check).
        "oracle_queries": result.oracle_queries,
        "oracle_calls": result.oracle_calls,
    }


def _phase_timing(result):
    """DIP-loop phase breakdown plus key verification, aggregated over
    unrolling depths."""
    return {
        "solve_seconds": result.solve_seconds,
        "oracle_seconds": result.oracle_seconds,
        "encode_seconds": result.encode_seconds,
        "verify_seconds": result.verify_seconds,
    }


@register_attack(
    "seq-sat",
    description="oracle-guided sequential SAT attack with iterative "
                "deepening [6,14-16]",
    params={
        "depth": Param("int", None, "starting unroll depth b "
                                    "(null = paper's b* = kappa_s)"),
        "max_depth": Param("int", 12, "deepening cut-off"),
        "check_rounds": Param("int", 24, "black-box verification rounds"),
        **_ENGINE_PARAMS,
    })
def _attack_seq_sat(locked, oracle, budget, depth, max_depth, check_rounds,
                    dip_batch, portfolio, attack_jobs):
    """Success = a verified key was recovered within budget."""
    known_depth = depth if depth is not None else locked.config.kappa_s
    result = sequential_sat_attack(
        locked.netlist, locked.config.kappa, oracle,
        known_depth=known_depth, max_depth=max_depth,
        max_dips=budget.max_dips, time_budget=budget.time_budget,
        reference=locked.original, check_rounds=check_rounds,
        dip_batch=dip_batch, portfolio=portfolio, attack_jobs=attack_jobs)
    return AttackOutcome(
        attack="seq-sat", success=result.success, seconds=result.seconds,
        metrics=_key_metrics(result, locked),
        details={"depths_tried": list(result.depths_tried),
                 "key": None if result.key is None else str(result.key)},
        timing=_phase_timing(result))


@register_attack(
    "comb-sat",
    description="COMB-SAT [24] on one fixed unrolling depth "
                "(no deepening)",
    params={
        "depth": Param("int", None, "the single unroll depth "
                                    "(null = kappa_s)"),
        **_ENGINE_PARAMS,
    })
def _attack_comb_sat(locked, oracle, budget, depth, dip_batch, portfolio,
                     attack_jobs):
    """Success = a key consistent with the whole attacked window was
    found *and* verifies against the oracle beyond it."""
    known_depth = depth if depth is not None else locked.config.kappa_s
    result = sequential_sat_attack(
        locked.netlist, locked.config.kappa, oracle,
        known_depth=known_depth, max_depth=known_depth,
        max_dips=budget.max_dips, time_budget=budget.time_budget,
        reference=locked.original, dip_batch=dip_batch,
        portfolio=portfolio, attack_jobs=attack_jobs)
    return AttackOutcome(
        attack="comb-sat", success=result.success, seconds=result.seconds,
        metrics=_key_metrics(result, locked),
        details={"key": None if result.key is None else str(result.key)},
        timing=_phase_timing(result))


@register_attack(
    "bmc",
    description="bounded model checking: verify the correct key, then "
                "hunt a wrong-key counterexample",
    params={
        "depth": Param("int", None, "compared window in cycles "
                                    "(null = kappa + kappa_s + 4)"),
        "wrong_keys": Param("int", 3, "perturbed keys probed for a "
                                      "distinguishing counterexample"),
    })
def _attack_bmc(locked, oracle, budget, depth, wrong_keys):
    """Success = every probed wrong key is *detectable* (a bounded
    counterexample distinguishes it from the oracle) while the correct
    key verifies — the model-checker's view of lock corruption."""
    kappa = locked.config.kappa
    if depth is None:
        depth = kappa + locked.config.kappa_s + 4
    begin = time.perf_counter()
    correct = bounded_equivalence(
        locked.original, locked.netlist, depth=depth,
        prefix_vectors=locked.key_vectors())
    width = locked.key.width
    key_bits = kappa * width
    detected = 0
    probed = 0
    # One probe per distinct flipped bit — a wrong_keys budget beyond
    # the key width would only re-examine keys already probed.
    for flip in range(min(wrong_keys, key_bits)):
        if budget.time_budget is not None \
                and time.perf_counter() - begin > budget.time_budget:
            break
        wrong_int = locked.key.as_int ^ (1 << flip)
        probed += 1
        wrong = KeySequence.from_int(wrong_int, kappa, width)
        check = bounded_equivalence(
            locked.original, locked.netlist, depth=depth,
            prefix_vectors=list(wrong.vectors))
        if not check.equivalent:
            detected += 1
    return AttackOutcome(
        attack="bmc",
        success=bool(correct.equivalent and probed and detected == probed),
        seconds=0.0,
        metrics={"depth": depth,
                 "correct_key_equivalent": bool(correct.equivalent),
                 "wrong_keys_probed": probed,
                 "wrong_keys_detected": detected})


@register_attack(
    "removal",
    description="SCC-guided strip-and-solve removal attack "
                "(Section II-C / [19])",
    params={
        "depth": Param("int", None, "tie-solving unroll depth "
                                    "(null = kappa_s + 1)"),
        "anchor_tries": Param("int", 3, "candidate anchor SCCs attempted"),
        "include_trivial": Param("bool", False, "count isolated registers "
                                                "as their own SCCs"),
        "strip": Param("bool", True, "attempt the strip-and-solve phase "
                                     "(false = SCC census only)"),
    })
def _attack_removal(locked, oracle, budget, depth, anchor_tries,
                    include_trivial, strip):
    """Success = the lock was stripped and tie constants reproduce the
    oracle without any key (the S = 0 failure mode of Table II).
    ``strip=false`` reports just the SCC census — the cheap structural
    reconnaissance pass Table II's O/E/M/PM columns are made of."""
    report = scc_report(locked, include_trivial=include_trivial)
    census = {"O": report.o_sccs, "E": report.e_sccs,
              "M": report.m_sccs, "PM": report.pm_percent,
              "pairs_applied": len(locked.reencoded_pairs)}
    if not strip:
        return AttackOutcome(
            attack="removal", success=False, seconds=0.0,
            metrics={**census, "stripped": 0, "n_dips": 0},
            details={"reason": "strip disabled (census only)",
                     "verified": False})
    attempt = attempt_removal(
        locked, oracle, depth=depth,
        max_dips=budget.max_dips if budget.max_dips is not None else 256,
        time_budget=budget.time_budget, anchor_tries=anchor_tries)
    return AttackOutcome(
        attack="removal", success=attempt.success, seconds=0.0,
        metrics={**census,
                 "stripped": len(attempt.stripped_registers),
                 "n_dips": attempt.n_dips},
        details={"reason": attempt.reason,
                 "verified": attempt.verified})


@register_attack(
    "stg",
    description="STG signature analysis: locking-induced sink clusters "
                "(Section V's open vector)",
    params={
        "max_states": Param("int", 5000, "reachable-state exploration cap"),
    })
def _attack_stg(locked, oracle, budget, max_states):
    """Success = locking introduced *new* terminal SCCs over the original
    STG (the State-Deflection sink-cluster signature)."""
    report = stg_report(locked, max_states=max_states)
    return AttackOutcome(
        attack="stg",
        success=report.terminal_clusters > report.original_terminal_clusters,
        seconds=0.0,
        metrics={"locked_states": report.locked_states,
                 "original_states": report.original_states,
                 "wrong_key_only_states": report.wrong_key_only_states,
                 "terminal_clusters": report.terminal_clusters,
                 "original_terminal_clusters":
                     report.original_terminal_clusters,
                 "largest_terminal_fraction":
                     report.largest_terminal_fraction})


@register_attack(
    "key-space",
    description="key-space elimination tracing: surviving keys per DIP "
                "(Theorem 1)",
    params={
        "depth": Param("int", None, "attacked window depth "
                                    "(null = kappa_s)"),
    })
def _attack_key_space(locked, oracle, budget, depth):
    """Success = the DIP loop narrowed the key space to a single
    surviving key (exhaustively countable instances only)."""
    trace = key_space_trace(locked, oracle, depth=depth,
                            max_dips=budget.max_dips)
    final = trace.survivors[-1] if trace.survivors else trace.initial_keys
    return AttackOutcome(
        attack="key-space", success=final == 1, seconds=0.0,
        metrics={"initial_keys": trace.initial_keys,
                 "n_dips": trace.n_dips,
                 "surviving_keys": final},
        details={"survivors": list(trace.survivors)})
