"""Bounded variable elimination of a small clause set over fresh variables.

An incremental encoder that adds a few gates at a time (a DIP pin) can
resolve away the variables nothing else will read before a solver ever
sees them: every later solve then works on a few clauses over the
variables that stay, instead of re-implying the whole gate cone. The
elimination is SatELite's (Eén & Biere, "Effective Preprocessing in SAT
through Variable and Clause Elimination", SAT 2005) restricted to the
fresh variables: unit propagation, then resolution of every variable
whose non-tautological resolvents do not outnumber its clauses.
"""

from __future__ import annotations

from collections import defaultdict
from operator import neg


class FreshClauses:
    """The ``new_var``/``add_clause`` surface of
    :class:`~repro.cnf.formula.Cnf` for clauses headed to
    :func:`eliminate`: variables are numbered after ``frozen`` and each
    clause is kept as given, since :func:`eliminate` drops duplicate
    literals and tautologies itself."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, frozen):
        self.num_vars = frozen
        self.clauses = []

    def new_var(self):
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals):
        self.clauses.append(literals)


def eliminate(clauses, frozen):
    """Resolve away the variables above ``frozen`` that can go without
    growing ``clauses``; returns ``(clauses, survivors)``.

    Variables ``1..frozen`` may occur in clauses elsewhere and stay;
    every higher one occurs only in ``clauses``. Unit clauses are
    propagated first. Then, in passes until one eliminates nothing,
    each fresh variable (fewest occurrences first) whose
    non-tautological resolvents, less those another resolvent subsumes,
    are no more than the clauses it occurs in is replaced by them. An
    assignment of the frozen variables extends to a model of the result
    exactly when it extends to one of ``clauses``, and the clause count
    never grows. The fresh variables that remain are renumbered
    ``frozen + 1``, ``frozen + 2``, ... in their original order, and
    ``survivors`` maps each old number to its new one. A conflict comes
    back as ``[[]]``, the empty clause.
    """
    true = set()
    queue = [lits[0] for lits in clauses if len(lits) == 1]
    watching = defaultdict(list)  # literal -> indices of clauses holding it
    for index, literals in enumerate(clauses):
        for lit in literals:
            watching[lit].append(index)
    while queue:
        lit = queue.pop()
        if lit in true:
            continue
        if -lit in true:
            return [[]], {}
        true.add(lit)
        for index in watching[-lit]:
            open_ = [other for other in clauses[index] if -other not in true]
            if len(open_) == 1 and open_[0] not in true:
                queue.append(open_[0])
            elif not open_:
                return [[]], {}

    store = {}                 # clause (a frozenset) -> None, in order
    occurs = defaultdict(set)  # literal -> the clauses holding it

    def add(clause):
        if clause not in store:
            store[clause] = None
            for lit in clause:
                occurs[lit].add(clause)

    def remove(clause):
        del store[clause]
        for lit in clause:
            occurs[lit].discard(clause)

    for lit in true:
        if abs(lit) <= frozen:
            add(frozenset((lit,)))
    false = {-lit for lit in true}
    for literals in clauses:
        if true.isdisjoint(literals):
            clause = frozenset(literals)
            if not false.isdisjoint(clause):
                clause = clause - false
            if clause.isdisjoint(map(neg, clause)):  # else a tautology
                add(clause)
    fresh = sorted({abs(lit) for lit in occurs if abs(lit) > frozen})

    def occurrences(var):
        return len(occurs[var]) + len(occurs[-var])

    progress = True
    while progress and frozenset() not in store:
        progress = False
        for var in sorted(fresh, key=occurrences):
            pos, negs = occurs[var], occurs[-var]
            if not pos and not negs:
                continue
            others = [(clause - {-var}, frozenset(map(neg, clause)))
                      for clause in negs]
            resolvents = set()
            for clause in pos:
                rest = clause - {var}
                for other, flipped in others:
                    if rest.isdisjoint(flipped):
                        resolvents.add(rest | other)
            kept = []  # the resolvents no other resolvent subsumes
            for clause in sorted(resolvents, key=len):
                if not any(shorter <= clause for shorter in kept):
                    kept.append(clause)
            if len(kept) <= len(pos) + len(negs):
                for clause in [*pos, *negs]:
                    remove(clause)
                for clause in kept:
                    add(clause)
                progress = True
    if frozenset() in store:
        return [[]], {}

    survivors, renumber = {}, {}
    for var in fresh:
        if occurs[var] or occurs[-var]:
            new = survivors[var] = frozen + 1 + len(survivors)
            renumber[var], renumber[-var] = new, -new
    return [[renumber.get(lit, lit) for lit in clause]
            for clause in store], survivors
