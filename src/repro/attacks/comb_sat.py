"""COMB-SAT: the oracle-guided DIP attack of Subramanyan et al. [24].

Operates on a *combinational* locked circuit whose inputs split into data
inputs and key inputs (for sequential TriLock the caller passes an
unrolled circuit where the first ``κ`` cycle-inputs act as the key, per
Section II-B). Each iteration finds a distinguishing input pattern (DIP)
— a data pattern on which two keys that satisfy all constraints so far
disagree — queries the oracle, and pins both key copies to the observed
response. When no DIP remains, any satisfying key is functionally
equivalent on the attacked window.

The attack engine is built from two orthogonal pieces:

* :class:`DipEngine` owns the miter, the constraint store, and one
  incremental :class:`~repro.sat.Solver`;
* :func:`comb_sat_attack` drives the DIP loop, optionally *batched*:
  ``dip_batch=k`` extracts up to ``k`` distinct DIPs per miter round by
  re-solving under blocking clauses gated on the miter activation
  literal, asks the oracle for all of the round's responses in one
  call, then pins them before the next round.
  Blocking a queried pattern is sound because once its I/O pair is
  pinned on both key copies no surviving key pair can disagree on it;
  gating the clause on ``act`` keeps key extraction and the
  candidate-key feasible set equivalent to pinning the same DIPs one at
  a time.

A pin costs the solver only what its DIP adds: the gates it encodes
that nothing else reads are resolved away (bounded variable
elimination, :func:`repro.cnf.eliminate`) before the solver sees them,
so the solver keeps about the miter's variables however many DIPs are
pinned, and each solve no longer re-implies every earlier pin's gates.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.cnf import (Cnf, FreshClauses, eliminate, encode_cone, encode_fresh,
                       encode_gate)
from repro.errors import AttackError
from repro.netlist import GateOp, LogicBuilder, Netlist
from repro.netlist.transform import InputSpecializer
from repro.sat import Solver


@dataclass
class CombSatResult:
    """Outcome of one COMB-SAT run.

    ``solve_seconds`` / ``oracle_seconds`` / ``encode_seconds`` break the
    wall-clock into the DIP loop's three phases: miter solving (DIP
    extraction + key extraction), oracle queries, and I/O-pair pinning
    (fold + CNF encode).  The remainder of ``seconds`` is loop
    overhead.
    """

    success: bool
    key: dict | None          # key input net -> bool (None if failed)
    n_dips: int
    seconds: float
    dips: list = field(default_factory=list)
    solver_stats: dict = field(default_factory=dict)
    stop_reason: str = "no_more_dips"
    n_rounds: int = 0         # miter rounds (== n_dips when dip_batch=1)
    solve_seconds: float = 0.0
    oracle_seconds: float = 0.0
    encode_seconds: float = 0.0


class DipEngine:
    """Miter plus constraint store of one COMB-SAT attack.

    One problem netlist, grown through one
    :class:`~repro.netlist.builder.LogicBuilder` for the engine's whole
    lifetime, holds every circuit copy the attack needs. The miter is two
    :meth:`~repro.netlist.transform.InputSpecializer.fold` replays of
    ``locked``, one per key copy (``key_a``/``key_b`` input nets) over
    shared data-input nets, so data-only logic hashes together and an
    output pair that lands on one net cannot differ. Each pinned I/O pair
    replays the fan-out of the data inputs again per key copy, with the
    DIP bits as builder constants and the miter's images for every other
    net: logic built for earlier DIPs hashes onto theirs, so only the
    gates that have no solver variable are encoded, and of those only
    the ones elimination cannot remove get one. ``solver`` is the
    solver to use (a fresh :class:`~repro.sat.Solver` when omitted).

    ``map_a``/``map_b`` send each net of ``locked`` to its image in key
    copy *a*/*b* of the miter, and ``var_of`` each problem net that has
    a solver variable to it: every data and key net, every miter net,
    and the pin nets that survived elimination. An eliminated pin net is
    not in ``var_of``; a later pin that reaches it encodes it again.
    """

    def __init__(self, locked, key_inputs, solver=None):
        self.locked = locked
        self.key_inputs = list(key_inputs)
        self.key_set = set(self.key_inputs)
        unknown = self.key_set - set(locked.inputs)
        if unknown:
            raise AttackError(
                f"key inputs not in circuit: {sorted(unknown)[:4]}")
        if locked.flops:
            raise AttackError("COMB-SAT needs a combinational circuit "
                              f"({len(locked.flops)} flops given)")
        self.data_inputs = [net for net in locked.inputs
                            if net not in self.key_set]

        self.solver = solver if solver is not None else Solver()

        self._problem = Netlist("dip_problem")
        self._keys = {tag: {net: f"key_{tag}::{net}"
                            for net in self.key_inputs}
                      for tag in ("a", "b")}
        cnf = Cnf()
        self.var_of = {}
        for net in locked.inputs:
            self._input(self._keys["a"].get(net, net), cnf)
        for net in locked.inputs:
            if net in self.key_set:
                self._input(self._keys["b"][net], cnf)
        self._builder = LogicBuilder(self._problem, prefix="dip")
        folder = InputSpecializer(locked)
        data = {net: net for net in self.data_inputs}
        self.map_a, self.map_b = ({**data, **self._keys[tag]}
                                  for tag in ("a", "b"))
        for mapping in (self.map_a, self.map_b):
            folder.fold(self._builder, mapping)
        self._data_cone = folder.fanout_of(self.data_inputs)

        # Gated miter: act -> (some output pair differs).
        differing = [(self.map_a[net], self.map_b[net])
                     for net in locked.outputs
                     if self.map_a[net] != self.map_b[net]]
        encode_cone(self._problem, [net for pair in differing for net in pair],
                    cnf, self.var_of)
        self.act = cnf.new_var()
        diff_lits = []
        for net_a, net_b in differing:
            diff = cnf.new_var()
            encode_gate(cnf, GateOp.XOR, diff,
                        [self.var_of[net_a], self.var_of[net_b]])
            diff_lits.append(diff)
        cnf.add_clause([-self.act] + diff_lits)
        self.solver.ensure_vars(cnf.num_vars)
        if not self.solver.add_cnf(cnf):
            raise AttackError("locked circuit CNF is unsatisfiable")
        self.n_pinned = 0

    def _input(self, net, cnf):
        self._problem.add_input(net)
        self.var_of[net] = cnf.new_var()

    # ------------------------------------------------------------------
    def _solve(self, assumptions=()):
        """Solve, refusing to conflate *unknown* with UNSAT.

        :class:`~repro.sat.Solver` never answers ``None``, but a
        solver passed in may (one that gave up); treating that as "no
        DIP remains" would let the attack report success with an
        under-constrained key.
        """
        result = self.solver.solve(assumptions=assumptions)
        if result is None:
            raise AttackError(
                "miter solve returned no answer (unknown result); the "
                "attack cannot conclude from an unfinished search")
        return result

    def find_dip_batch(self, limit=1, deadline=None):
        """Extract up to ``limit`` distinct DIPs from the current store.

        The first DIP comes from a plain gated-miter solve; each further
        one re-solves under a blocking clause excluding the data patterns
        already in the batch.  Blocking clauses are permanent but gated
        on the miter activation literal, so they only narrow the search
        for *new* DIPs — key extraction and feasibility queries (which
        leave ``act`` free) never see them, and the constraint store
        stays equivalent to pinning the same DIPs one at a time.
        Returns the batch in extraction order; empty means no DIP remains.

        ``deadline`` (a ``time.perf_counter`` instant) stops *re-solves*
        once passed, so a batch cannot overshoot an attack time budget
        by more than one miter solve — the first extraction of a round
        always runs, keeping ``dip_batch=1`` behaviour untouched.
        """
        if limit < 1:
            raise AttackError(f"DIP batch limit must be >= 1, got {limit}")
        batch = []
        while len(batch) < limit:
            if batch and deadline is not None \
                    and time.perf_counter() > deadline:
                break
            if not self._solve(assumptions=[self.act]):
                break
            dip = tuple(self.solver.model_value(self.var_of[net])
                        for net in self.data_inputs)
            batch.append(dip)
            if len(batch) >= limit or not self.data_inputs:
                break
            self.solver.add_clause([-self.act] + [
                -var if bit else var
                for var, bit in zip(
                    (self.var_of[net] for net in self.data_inputs), dip)
            ])
        return batch

    def pin_response(self, dip, response):
        """Constrain both key copies to produce ``response`` on ``dip``.

        Each key copy replays the circuit with the DIP bits as constants,
        so the constraint is only the key-dependent cone, and of that only
        the gates that have no solver variable, reduced by elimination
        (see :meth:`pin_batch`).
        """
        self.pin_batch([(dip, response)])

    def pin_batch(self, pairs):
        """Pin a batch of ``(dip, response)`` I/O pairs.

        Clause-for-clause identical to calling :meth:`pin_response` per
        pair. Each pair replays the data inputs' fan-out once per key
        copy, encodes the gates that have no solver variable, and
        eliminates those gates' variables (:func:`repro.cnf.eliminate`,
        with every variable the solver holds frozen) before the solver
        sees its clauses: only the variables that survive are
        allocated, and the eliminated nets leave ``var_of``, so a later
        pin that hashes onto one encodes it again.
        """
        pairs = [(dip, tuple(response)) for dip, response in pairs]
        n_outputs = len(self.locked.outputs)
        for _dip, response in pairs:
            if len(response) != n_outputs:
                raise AttackError("oracle response width mismatch")
        const, var_of = self._builder.const, self.var_of
        for dip, response in pairs:
            self.n_pinned += 1
            frozen = self.solver.num_vars
            fresh = FreshClauses(frozen)
            encoded = []
            for image in (self.map_a, self.map_b):
                mapping = dict(image)
                mapping.update(zip(self.data_inputs, map(const, dip)))
                self._data_cone.fold(self._builder, mapping)
                outputs = [mapping[net] for net in self.locked.outputs]
                encoded += encode_fresh(self._problem, outputs, var_of, fresh)
                for net, bit in zip(outputs, response):
                    var = var_of[net]
                    fresh.add_clause([var if bit else -var])
            clauses, survivors = eliminate(fresh.clauses, frozen)
            for net in encoded:
                var = survivors.get(var_of[net])
                if var is None:
                    del var_of[net]
                else:
                    var_of[net] = var
            self.solver.ensure_vars(frozen + len(survivors))
            for clause in clauses:
                self.solver.add_clause(clause)

    def solve_key(self):
        """A key consistent with every pinned I/O pair (raises if none)."""
        if not self._solve():
            raise AttackError(
                "constraint store unsatisfiable: oracle inconsistent")
        return {net: self.solver.model_value(self.var_of[self.map_a[net]])
                for net in self.key_inputs}

    def feasible_keys(self):
        """Every key assignment consistent with the pinned I/O pairs.

        Exhaustive over ``2^|key_inputs|`` — a diagnostic for tests on
        toy circuits (this is the candidate-key feasible set that batched
        and sequential pinning must agree on).
        """
        feasible = set()
        key_vars = [self.var_of[self.map_a[net]] for net in self.key_inputs]
        for bits in itertools.product((False, True),
                                      repeat=len(key_vars)):
            assumptions = [var if bit else -var
                           for var, bit in zip(key_vars, bits)]
            if self._solve(assumptions=assumptions):
                feasible.add(bits)
        return feasible


def comb_sat_attack(locked, key_inputs, oracle, max_dips=None,
                    collect_dips=False, time_budget=None, dip_batch=1,
                    solver=None):
    """Run the DIP loop; returns a :class:`CombSatResult`.

    ``locked``
        Combinational netlist; its inputs are ``key_inputs`` plus data
        inputs (order irrelevant).
    ``oracle``
        Callable mapping a list of DIPs (tuples of data-input bits,
        ordered like the data inputs appear in ``locked.inputs``) to the
        list of correct output tuples (ordered like ``locked.outputs``).
        It is called once per miter round with that round's DIPs; a
        single DIP is a batch of one.
    ``max_dips`` / ``time_budget``
        Optional effort caps; exceeding one returns ``success=False`` with
        ``stop_reason`` set accordingly.  ``max_dips`` DIPs may be pinned;
        the attack fails with ``"max_dips"`` only if a DIP remains after
        them.  The time budget is checked before each round, so a round
        that overruns it still pins all of its DIPs.
    ``dip_batch``
        DIPs extracted (and oracle responses pinned) per miter round;
        1 reproduces the classic one-DIP-per-iteration loop exactly.
    ``solver``
        The solver to use, forwarded to :class:`DipEngine`.
    """
    start = time.perf_counter()
    if dip_batch < 1:
        raise AttackError(f"dip_batch must be >= 1, got {dip_batch}")
    deadline = None if time_budget is None else start + time_budget
    solve_seconds = 0.0
    oracle_seconds = 0.0
    encode_seconds = 0.0
    engine = DipEngine(locked, key_inputs, solver=solver)
    n_dips = 0
    n_rounds = 0
    dips = []
    stop_reason = "no_more_dips"
    while True:
        if deadline is not None and time.perf_counter() > deadline:
            stop_reason = "time_budget"
            break
        # A spent DIP budget still gets one miter solve: an attack
        # that needs exactly max_dips DIPs succeeds.
        spent = max_dips is not None and n_dips >= max_dips
        limit = dip_batch
        if max_dips is not None:
            limit = max(1, min(limit, max_dips - n_dips))
        phase_start = time.perf_counter()
        batch = engine.find_dip_batch(limit, deadline=deadline)
        solve_seconds += time.perf_counter() - phase_start
        if not batch:
            break  # no distinguishing pattern remains
        if spent:
            stop_reason = "max_dips"
            break
        n_rounds += 1
        phase_start = time.perf_counter()
        responses = list(oracle(batch))
        oracle_seconds += time.perf_counter() - phase_start
        if len(responses) != len(batch):
            raise AttackError(
                f"oracle returned {len(responses)} responses for "
                f"{len(batch)} DIPs")
        n_dips += len(batch)
        if collect_dips:
            dips.extend(batch)
        phase_start = time.perf_counter()
        engine.pin_batch(zip(batch, responses))
        encode_seconds += time.perf_counter() - phase_start

    if stop_reason != "no_more_dips":
        return CombSatResult(
            success=False, key=None, n_dips=n_dips,
            seconds=time.perf_counter() - start, dips=dips,
            solver_stats=engine.solver.stats(), stop_reason=stop_reason,
            n_rounds=n_rounds, solve_seconds=solve_seconds,
            oracle_seconds=oracle_seconds, encode_seconds=encode_seconds)

    phase_start = time.perf_counter()
    key = engine.solve_key()
    solve_seconds += time.perf_counter() - phase_start
    return CombSatResult(
        success=True, key=key, n_dips=n_dips,
        seconds=time.perf_counter() - start, dips=dips,
        solver_stats=engine.solver.stats(), n_rounds=n_rounds,
        solve_seconds=solve_seconds, oracle_seconds=oracle_seconds,
        encode_seconds=encode_seconds)
