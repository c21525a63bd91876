"""CDCL SAT solver with a flat-arena clause store.

A from-scratch conflict-driven clause-learning solver in the MiniSat
lineage, written for the SAT-based attacks in this reproduction (no SAT
package is available offline). Features:

* two-watched-literal propagation with blocker literals,
* EVSIDS variable activities with a lazy max-heap that holds at most
  one entry per variable at its current activity,
* first-UIP conflict analysis with self-subsumption minimisation,
* phase saving,
* Luby restarts,
* learnt-clause database reduction with free-list slot recycling,
* incremental use: clauses may be added between ``solve`` calls, and
  ``solve(assumptions=...)`` checks satisfiability under temporary
  literal assumptions (the workhorse of the DIP loop).

The search heuristics are fixed (the module constants below). The
attacks' DIP walks, and so the cached cell values, follow from them:
changing one is a CODE_VERSION bump.

Internally the solver is arena-ized: clauses live in one flat Python
int list (``[size, lit0, lit1, ...]`` records addressed by integer
``cref``), watch lists are per-literal flat ``[blocker, cref]`` pair
lists indexed by encoded literal, and assignments are a per-literal
truth array. Encoded literals are ``var << 1 | sign`` so negation is
``enc ^ 1`` and every hot-loop lookup is a list index instead of an
attribute or dict access. Dropped learnt clauses park their arena slot
on a per-size free list and are recycled by later learnts.

The public API speaks DIMACS-style literals: non-zero signed ints over
variables ``1..n``.
"""

from __future__ import annotations

import heapq

from repro.errors import SolverError

_TRUE, _FALSE, _UNASSIGNED = 1, 0, -1

#: Sentinel clause reference meaning "no clause" (decision / no conflict).
_NO_CREF = -1

#: The search heuristics: the EVSIDS variable and clause activity decays
#: (the bump increment grows by ``1/decay`` per conflict), the conflict
#: unit of the Luby restarts, a fresh variable's saved phase, and the
#: learnt-clause database's base size before reduction.
_VAR_DECAY = 0.95
_CLAUSE_DECAY = 0.999
_RESTART_BASE = 64
_PHASE_DEFAULT = False
_LEARNT_CAP = 4000


def _encode(lit):
    """Signed DIMACS literal -> encoded literal (``var << 1 | sign``)."""
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


class Solver:
    """Incremental CDCL solver over a flat clause arena."""

    def __init__(self):
        self._num_vars = 0
        # Clause arena: [size, lit0, lit1, ...] records; cref = record index.
        self._arena = []
        self._free = {}           # size -> [cref] recycled learnt slots
        self._clauses = []        # problem clause crefs
        self._learnts = []        # learnt clause crefs
        self._cla_act = {}        # learnt cref -> activity
        # Indexed by encoded literal (slots 0 and 1 unused).
        self._watches = [[], []]  # enc literal -> list of (blocker, cref)
        self._bin = [[], []]      # enc literal -> list of (implied, cref)
        self._val = [_UNASSIGNED, _UNASSIGNED]  # enc literal -> truth
        # Indexed by variable (index 0 unused).
        self._level = [0]
        self._reason = [_NO_CREF]
        self._phase = [_PHASE_DEFAULT]
        self._activity = [0.0]
        self._order = []          # lazy max-heap of (-activity, var)
        # The activity of var's entry in ``_order`` (-1.0: none there).
        self._queued = [-1.0]
        self._trail = []          # encoded literals, assignment order
        self._trail_lim = []
        self._qhead = 0
        self._unsat = False
        self._model = None
        self._var_inc = 1.0
        self._var_decay = 1.0 / _VAR_DECAY
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / _CLAUSE_DECAY
        self._max_learnts = 0.0   # adaptive DB budget, set per solve call
        # statistics
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_restarts = 0
        self.num_solve_calls = 0

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self):
        """Allocate a fresh variable and return it."""
        self._num_vars += 1
        var = self._num_vars
        self._val.append(_UNASSIGNED)
        self._val.append(_UNASSIGNED)
        self._watches.append([])
        self._watches.append([])
        self._bin.append([])
        self._bin.append([])
        self._level.append(0)
        self._reason.append(_NO_CREF)
        self._phase.append(_PHASE_DEFAULT)
        self._activity.append(0.0)
        self._queued.append(0.0)
        heapq.heappush(self._order, (0.0, var))
        return var

    def ensure_vars(self, up_to):
        """Allocate variables until ``up_to`` exists."""
        while self._num_vars < up_to:
            self.new_var()

    @property
    def num_vars(self):
        return self._num_vars

    def add_clause(self, literals):
        """Add a problem clause; returns False if the solver became UNSAT."""
        if self._unsat:
            return False
        self._cancel_until(0)
        val = self._val
        level = self._level
        seen = set()
        clause = []
        for lit in literals:
            lit = int(lit)
            if lit == 0 or abs(lit) > self._num_vars:
                raise SolverError(f"bad literal {lit} (allocate variables first)")
            enc = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            if enc ^ 1 in seen:
                return True  # tautology: trivially satisfied
            if enc in seen:
                continue
            value = val[enc]
            if value == _TRUE and level[enc >> 1] == 0:
                return True  # already satisfied at root
            if value == _FALSE and level[enc >> 1] == 0:
                continue  # literal dead at root
            seen.add(enc)
            clause.append(enc)

        if not clause:
            self._unsat = True
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], _NO_CREF):
                self._unsat = True
                return False
            if self._propagate() != _NO_CREF:
                self._unsat = True
                return False
            return True
        cref = self._alloc(clause)
        self._clauses.append(cref)
        self._attach(cref)
        return True

    def add_cnf(self, cnf):
        """Load a :class:`repro.cnf.formula.Cnf`."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            if not self.add_clause(clause):
                return False
        return True

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions=()):
        """True iff satisfiable under ``assumptions`` (list of literals)."""
        self.num_solve_calls += 1
        if self._unsat:
            return False
        self._cancel_until(0)
        if self._propagate() != _NO_CREF:
            self._unsat = True
            return False
        enc_assumptions = []
        for lit in assumptions:
            lit = int(lit)
            if lit == 0 or abs(lit) > self._num_vars:
                raise SolverError(f"bad assumption literal {lit}")
            enc_assumptions.append(
                (lit << 1) if lit > 0 else ((-lit) << 1) | 1)

        # MiniSat-style adaptive learnt-DB budget: start at a third of
        # the problem clauses, grow 10% per restart. ``_LEARNT_CAP`` (the
        # seed trigger) stays as the hard ceiling, so reduction is never
        # *later* than it was, only earlier — keeping watch lists short.
        self._max_learnts = max(len(self._clauses) / 3.0, 100.0)
        restart = 0
        while True:
            threshold = _RESTART_BASE * _luby(restart)
            status = self._search(threshold, enc_assumptions)
            restart += 1
            if status is None:
                self.num_restarts += 1
                self._max_learnts *= 1.1
                continue
            if status:
                self._model = [_UNASSIGNED, *self._val[2::2]]
                self._cancel_until(0)
                return True
            self._cancel_until(0)
            return False

    def model_value(self, var):
        """Truth value of ``var`` in the last satisfying model."""
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        value = self._model[var]
        if value == _UNASSIGNED:
            # Variable was never constrained; default polarity.
            return False
        return value == _TRUE

    def model(self):
        """Whole model as a dict var -> bool."""
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        return {
            var: self.model_value(var) for var in range(1, self._num_vars + 1)
        }

    def stats(self):
        return {
            "vars": self._num_vars,
            "clauses": len(self._clauses),
            "learnts": len(self._learnts),
            "conflicts": self.num_conflicts,
            "decisions": self.num_decisions,
            "propagations": self.num_propagations,
            "restarts": self.num_restarts,
            "solve_calls": self.num_solve_calls,
        }

    # ------------------------------------------------------------------
    # Core search
    # ------------------------------------------------------------------
    def _search(self, conflict_budget, assumptions):
        """Run until SAT (True), UNSAT (False), or restart (None)."""
        conflicts_here = 0
        val = self._val
        trail_lim = self._trail_lim
        while True:
            conflict = self._propagate()
            if conflict != _NO_CREF:
                self.num_conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self._unsat = True
                    return False
                back_level, learnt = self._analyze(conflict)
                self._cancel_until(back_level)
                self._record(learnt)
                self._decay_activities()
                continue

            if conflicts_here >= conflict_budget:
                self._cancel_until(0)
                return None  # restart
            limit = self._max_learnts
            cap = _LEARNT_CAP + len(self._clauses) // 2
            if limit > cap:
                limit = cap
            if (len(self._learnts) >= limit
                    and len(trail_lim) >= len(assumptions)):
                self._reduce_learnts()

            # Plant pending assumptions, one decision level each.
            next_enc = _NO_CREF
            while len(trail_lim) < len(assumptions):
                enc = assumptions[len(trail_lim)]
                value = val[enc]
                if value == _TRUE:
                    trail_lim.append(len(self._trail))  # dummy level
                elif value == _FALSE:
                    return False  # assumptions unsatisfiable
                else:
                    next_enc = enc
                    break

            if next_enc == _NO_CREF:
                next_enc = self._pick_branch()
                if next_enc == _NO_CREF:
                    return True  # complete assignment
                self.num_decisions += 1
            trail_lim.append(len(self._trail))
            self._enqueue(next_enc, _NO_CREF)

    def _propagate(self):
        """Unit propagation; returns a conflicting cref or ``_NO_CREF``."""
        arena = self._arena
        watches = self._watches
        bins = self._bin
        val = self._val
        trail = self._trail
        level = self._level
        reason = self._reason
        qhead = self._qhead
        dl = len(self._trail_lim)
        props = 0
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            props += 1
            false_enc = lit ^ 1

            # Binary clauses: no watch migration, just check the partner.
            for pair in bins[false_enc]:
                other = pair[0]
                ov = val[other]
                if ov == _UNASSIGNED:
                    val[other] = _TRUE
                    val[other ^ 1] = _FALSE
                    var = other >> 1
                    level[var] = dl
                    reason[var] = pair[1]
                    trail.append(other)
                elif ov == _FALSE:
                    self._qhead = len(trail)
                    self.num_propagations += props
                    return pair[1]

            # Long clauses: (blocker, cref) pairs. ``out`` is a lazily
            # created replacement list — it stays None (and the loop
            # stays read-mostly) until a watch actually migrates away.
            w = watches[false_enc]
            out = None
            idx = -1
            for pair in w:
                idx += 1
                if val[pair[0]] == _TRUE:
                    if out is not None:
                        out.append(pair)
                    continue
                cref = pair[1]
                if arena[cref + 1] == false_enc:
                    arena[cref + 1] = arena[cref + 2]
                    arena[cref + 2] = false_enc
                first = arena[cref + 1]
                fval = val[first]
                if fval == _TRUE:
                    # Keep, refreshing the blocker to the satisfied lit.
                    if out is None:
                        w[idx] = (first, cref)
                    else:
                        out.append((first, cref))
                    continue
                for k in range(cref + 3, cref + 1 + arena[cref]):
                    other = arena[k]
                    if val[other] != _FALSE:
                        # Move the watch to ``other``.
                        arena[cref + 2] = other
                        arena[k] = false_enc
                        watches[other].append((first, cref))
                        if out is None:
                            out = w[:idx]
                        break
                else:
                    # Unit or conflict.
                    if out is None:
                        w[idx] = (first, cref)
                    else:
                        out.append((first, cref))
                    if fval == _FALSE:
                        # conflict: keep remaining watchers and bail out
                        if out is not None:
                            out.extend(w[idx + 1:])
                            watches[false_enc] = out
                        self._qhead = len(trail)
                        self.num_propagations += props
                        return cref
                    val[first] = _TRUE
                    val[first ^ 1] = _FALSE
                    var = first >> 1
                    level[var] = dl
                    reason[var] = cref
                    trail.append(first)
            if out is not None:
                watches[false_enc] = out
        self._qhead = qhead
        self.num_propagations += props
        return _NO_CREF

    def _analyze(self, conflict):
        """First-UIP learning; returns (backtrack_level, learnt_lits)."""
        arena = self._arena
        trail = self._trail
        level = self._level
        reason = self._reason
        cla_act = self._cla_act
        activity = self._activity
        val = self._val
        order = self._order
        queued = self._queued
        var_inc = self._var_inc
        seen = bytearray(self._num_vars + 1)
        learnt = []
        path_count = 0
        lit = _NO_CREF  # encoded literal the current clause propagated
        index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            if conflict in cla_act:
                self._bump_clause(conflict)
            for k in range(conflict + 1, conflict + 1 + arena[conflict]):
                q = arena[k]
                if q == lit:
                    continue  # the literal this clause propagated
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    # Bump the activity (inlined: the hot path).
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale_var_activity()
                        var_inc = self._var_inc
                        order = self._order
                        act = activity[var]
                    if val[var << 1] == _UNASSIGNED and queued[var] != act:
                        heapq.heappush(order, (-act, var))
                        queued[var] = act
                    if level[var] >= current_level:
                        path_count += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            var = lit >> 1
            conflict = reason[var]
            seen[var] = 0
            index -= 1
            path_count -= 1
            if path_count == 0:
                break

        learnt.insert(0, lit ^ 1)

        # Self-subsumption minimisation (conservative, one pass).
        minimized = [learnt[0]]
        for q in learnt[1:]:
            cref = reason[q >> 1]
            if cref == _NO_CREF:
                minimized.append(q)
                continue
            redundant = True
            for k in range(cref + 1, cref + 1 + arena[cref]):
                other = arena[k]
                if other == q ^ 1:
                    continue  # the literal the reason clause propagated
                var = other >> 1
                if not seen[var] and level[var] > 0:
                    redundant = False
                    break
            if not redundant:
                minimized.append(q)
        learnt = minimized

        if len(learnt) == 1:
            return 0, learnt
        # Move the highest-level non-asserting literal into slot 1.
        best = 1
        for k in range(2, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[best] >> 1]:
                best = k
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return level[learnt[1] >> 1], learnt

    def _record(self, learnt_lits):
        if len(learnt_lits) == 1:
            self._enqueue(learnt_lits[0], _NO_CREF)
            return
        cref = self._alloc(learnt_lits)
        self._cla_act[cref] = self._cla_inc
        self._learnts.append(cref)
        self._attach(cref)
        self._enqueue(learnt_lits[0], cref)

    def _reduce_learnts(self):
        """Drop the less active half of unlocked learnt clauses."""
        arena = self._arena
        reason = self._reason
        cla_act = self._cla_act
        locked = {reason[enc >> 1] for enc in self._trail}
        locked.discard(_NO_CREF)
        self._learnts.sort(key=cla_act.__getitem__)
        keep_from = len(self._learnts) // 2
        kept, dropped = [], set()
        for position, cref in enumerate(self._learnts):
            if position >= keep_from or cref in locked or arena[cref] <= 2:
                kept.append(cref)
            else:
                dropped.add(cref)
        if not dropped:
            return
        self._learnts = kept
        for watchers in self._watches:
            if watchers:
                watchers[:] = [pair for pair in watchers
                               if pair[1] not in dropped]
        free = self._free
        for cref in dropped:
            del cla_act[cref]
            free.setdefault(arena[cref], []).append(cref)

    # ------------------------------------------------------------------
    # Arena management
    # ------------------------------------------------------------------
    def _alloc(self, enc_lits):
        """Store a clause record; reuse a recycled slot of the same size."""
        size = len(enc_lits)
        arena = self._arena
        bucket = self._free.get(size)
        if bucket:
            cref = bucket.pop()
            arena[cref + 1:cref + 1 + size] = enc_lits
        else:
            cref = len(arena)
            arena.append(size)
            arena.extend(enc_lits)
        return cref

    def _attach(self, cref):
        """Watch the first two literals of a stored clause.

        Binary clauses go on dedicated implication lists: their watches
        never migrate, so propagation over them is a straight partner
        check with no arena access. (``_reduce_learnts`` never drops
        clauses of size <= 2, so these lists never need purging.)
        """
        arena = self._arena
        first = arena[cref + 1]
        second = arena[cref + 2]
        if arena[cref] == 2:
            self._bin[first].append((second, cref))
            self._bin[second].append((first, cref))
            return
        self._watches[first].append((second, cref))
        self._watches[second].append((first, cref))

    # ------------------------------------------------------------------
    # Assignment bookkeeping
    # ------------------------------------------------------------------
    def _enqueue(self, enc, reason_cref):
        val = self._val
        current = val[enc]
        if current != _UNASSIGNED:
            return current == _TRUE
        val[enc] = _TRUE
        val[enc ^ 1] = _FALSE
        var = enc >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason_cref
        self._trail.append(enc)
        return True

    def _cancel_until(self, level):
        if len(self._trail_lim) <= level:
            return
        boundary = self._trail_lim[level]
        trail = self._trail
        val = self._val
        phase = self._phase
        reason = self._reason
        activity = self._activity
        order = self._order
        queued = self._queued
        for k in range(len(trail) - 1, boundary - 1, -1):
            enc = trail[k]
            var = enc >> 1
            phase[var] = not enc & 1
            val[enc] = _UNASSIGNED
            val[enc ^ 1] = _UNASSIGNED
            reason[var] = _NO_CREF
            act = activity[var]
            if queued[var] != act:
                queued[var] = act
                heapq.heappush(order, (-act, var))
        del trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = len(trail)

    def _pick_branch(self):
        """The unassigned variable of highest activity (ties: lowest
        index) at its saved phase. Every unassigned variable has an
        entry at its current activity, so stale entries pop later."""
        order = self._order
        queued = self._queued
        val = self._val
        phase = self._phase
        while order:
            neg_act, var = heapq.heappop(order)
            if queued[var] == -neg_act:
                queued[var] = -1.0
            if val[var << 1] == _UNASSIGNED:
                return (var << 1) if phase[var] else (var << 1) | 1
        return _NO_CREF

    # ------------------------------------------------------------------
    # Activities
    # ------------------------------------------------------------------
    def _rescale_var_activity(self):
        activity, queued, val = self._activity, self._queued, self._val
        order = []
        for var in range(1, self._num_vars + 1):
            act = activity[var] = activity[var] * 1e-100
            if val[var << 1] == _UNASSIGNED:
                queued[var] = act
                order.append((-act, var))
            else:
                queued[var] = -1.0
        self._var_inc *= 1e-100
        heapq.heapify(order)
        self._order = order

    def _bump_clause(self, cref):
        cla_act = self._cla_act
        cla_act[cref] += self._cla_inc
        if cla_act[cref] > 1e100:
            for other in cla_act:
                cla_act[other] *= 1e-100
            self._cla_inc *= 1e-100

    def _decay_activities(self):
        self._var_inc *= self._var_decay
        self._cla_inc *= self._cla_decay


def _luby(index):
    """Luby restart sequence (0-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq
