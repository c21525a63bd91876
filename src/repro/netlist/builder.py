"""Combinational logic builder with constant folding and sharing.

:class:`LogicBuilder` is the construction kit used by the TriLock locker,
the re-encoding datapath, the unroller, and the synthetic benchmark
generator. It wraps a :class:`~repro.netlist.netlist.Netlist` and offers
word-level helpers (trees, comparators, muxes, adders) that:

* fold constants eagerly (``AND(x, 0) -> 0``; comparisons against constant
  bits reduce to literals), so hardwired key bits never appear as logic;
* share structurally identical gates (local CSE with commutative-input
  canonicalisation);
* cap gate arity (default 4) so generated logic resembles mapped
  standard-cell netlists, which keeps the technology model honest.

All signal arguments and return values are net-name strings; the two
constant nets are materialised on demand.

``and_``, ``or_`` and ``xor_`` take nets as arguments or as one list. Each
runs a list-taking primitive (``_and``, ``_or``, ``_xor``), which the fold
of :mod:`repro.netlist.transform` calls directly: it reads the two
constant nets once, and emits a gate of at most ``max_arity`` inputs
without building a tree.

:class:`CutBuilder` also shares gates that are equal in function but not
in structure, in the style of FRAIGs (Mishchenko et al., "FRAIGs: A
Unifying Representation for Logic Synthesis and Verification", 2005)
with cuts in place of simulation and SAT. Each net it builds keeps a few
small cuts (sets of earlier nets that determine it), each with its exact
truth table; a gate whose table over one of its cuts is a constant, a cut
net, a cut net's complement, or an earlier net's table over the same cut
is not emitted. Bounded model checking re-folds its residual through it
to prove re-encoded keys without a solver; every other fold stays
structural, where the cuts would only cost time.
"""

from __future__ import annotations

from repro._naming import NameFactory
from repro.errors import NetlistError
from repro.netlist.gates import GateOp

_COMMUTATIVE = {GateOp.AND, GateOp.NAND, GateOp.OR, GateOp.NOR, GateOp.XOR, GateOp.XNOR}


class LogicBuilder:
    """Build folded, shared combinational logic inside a netlist."""

    def __init__(self, netlist, prefix="n", max_arity=4, names=None):
        if max_arity < 2:
            raise NetlistError("max_arity must be at least 2")
        self.netlist = netlist
        self.prefix = prefix
        self.max_arity = max_arity
        self.names = names if names is not None else NameFactory(netlist.nets())
        self._cse = {}
        self._const0 = None
        self._const1 = None

    # ------------------------------------------------------------------
    # Constants and raw gate emission
    # ------------------------------------------------------------------
    def const(self, value):
        """Net holding constant ``value`` (created once per builder)."""
        if value:
            if self._const1 is None:
                self._const1 = self._emit(GateOp.CONST1, ())
            return self._const1
        if self._const0 is None:
            self._const0 = self._emit(GateOp.CONST0, ())
        return self._const0

    def is_const(self, net, value=None):
        """True if ``net`` is one of this builder's constant nets."""
        if value is None:
            return net in (self._const0, self._const1) and net is not None
        return net == (self._const1 if value else self._const0) and net is not None

    def _emit(self, op, inputs):
        inputs = tuple(sorted(inputs)) if op in _COMMUTATIVE else tuple(inputs)
        key = (op, inputs)
        found = self._cse.get(key)
        if found is not None:
            return found
        net = self._cse[key] = self._new_gate(op, inputs)
        return net

    def _new_gate(self, op, inputs):
        """Net for ``op(inputs)``, which no earlier gate computes
        structurally (``inputs`` already canonical). The name is fresh
        and the primitives built ``inputs``, so the gate goes in
        without :meth:`Netlist.add_gate`'s checks."""
        net = self.names.fresh(self.prefix)
        self.netlist._insert_gate(net, op, inputs)
        return net

    def alias(self, net, name):
        """Drive a specifically-named net with ``BUF(net)`` and return it."""
        self.names.reserve(name)
        self.netlist.add_gate(name, GateOp.BUF, (net,))
        return name

    def flop(self, d, name=None, init=False):
        """Add a flop loading ``d``; returns the Q net."""
        q = name if name is not None else self.names.fresh(self.prefix + "_q")
        if name is not None:
            self.names.reserve(name)
        self.netlist.add_flop(q, d, init)
        return q

    # ------------------------------------------------------------------
    # Folded Boolean primitives
    # ------------------------------------------------------------------
    def not_(self, net):
        # Net names are strs, so a constant not created yet (None)
        # matches none of them.
        if net == self._const0:
            return self.const(1)
        if net == self._const1:
            return self.const(0)
        netlist = self.netlist
        if netlist.is_gate(net):
            driver = netlist.gate(net)
            if driver.op is GateOp.NOT:
                return driver.inputs[0]  # double negation
        return self._emit(GateOp.NOT, (net,))

    def literal(self, net, positive):
        """``net`` if positive else its complement."""
        return net if positive else self.not_(net)

    def _tree(self, op, nets):
        """Reduce ``nets`` with ``op`` in balanced max_arity chunks."""
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), self.max_arity):
                chunk = level[i : i + self.max_arity]
                if len(chunk) == 1:
                    nxt.append(chunk[0])
                else:
                    nxt.append(self._emit(op, tuple(chunk)))
            level = nxt
        return level[0]

    def and_(self, *nets):
        return self._and(_flatten(nets))

    def or_(self, *nets):
        return self._or(_flatten(nets))

    def xor_(self, *nets):
        return self._xor(_flatten(nets))

    def _and(self, nets):
        """:meth:`and_` of the sequence ``nets`` (read, never kept)."""
        zero, one = self._const0, self._const1
        kept = []
        for net in nets:
            if net == zero:
                return zero
            if net != one and net not in kept:
                kept.append(net)
        if len(kept) > self.max_arity:
            return self._tree(GateOp.AND, kept)
        if len(kept) > 1:
            return self._emit(GateOp.AND, kept)
        return kept[0] if kept else self.const(1)

    def _or(self, nets):
        """:meth:`or_` of the sequence ``nets`` (read, never kept)."""
        zero, one = self._const0, self._const1
        kept = []
        for net in nets:
            if net == one:
                return one
            if net != zero and net not in kept:
                kept.append(net)
        if len(kept) > self.max_arity:
            return self._tree(GateOp.OR, kept)
        if len(kept) > 1:
            return self._emit(GateOp.OR, kept)
        return kept[0] if kept else self.const(0)

    def _xor(self, nets):
        """:meth:`xor_` of the sequence ``nets`` (read, never kept)."""
        zero, one = self._const0, self._const1
        invert = False
        kept = []
        for net in nets:
            if net == one:
                invert = not invert
            elif net != zero:
                kept.append(net)
        if not kept:
            return self.const(1 if invert else 0)
        if len(kept) > self.max_arity:
            result = self._tree(GateOp.XOR, kept)
        elif len(kept) > 1:
            result = self._emit(GateOp.XOR, kept)
        else:
            result = kept[0]
        return self.not_(result) if invert else result

    def nand_(self, *nets):
        return self.not_(self.and_(*nets))

    def nor_(self, *nets):
        return self.not_(self.or_(*nets))

    def xnor2(self, a, b):
        return self.not_(self.xor_(a, b))

    def mux(self, sel, d0, d1):
        """``d1 if sel else d0`` (2:1 multiplexer)."""
        if self.is_const(sel, 0):
            return d0
        if self.is_const(sel, 1):
            return d1
        if d0 == d1:
            return d0
        return self.or_(self.and_(sel, d1), self.and_(self.not_(sel), d0))

    def implies(self, a, b):
        return self.or_(self.not_(a), b)

    # ------------------------------------------------------------------
    # Word-level helpers (words are lists of nets, MSB first)
    # ------------------------------------------------------------------
    def eq_const(self, word, value):
        """Net that is 1 iff ``word`` (MSB-first) equals integer ``value``."""
        width = len(word)
        if value < 0 or value >= (1 << width):
            raise NetlistError(f"constant {value} does not fit in {width} bits")
        literals = []
        for position, net in enumerate(word):
            bit = (value >> (width - 1 - position)) & 1
            literals.append(self.literal(net, bool(bit)))
        return self.and_(literals)

    def neq_const(self, word, value):
        return self.not_(self.eq_const(word, value))

    def word_eq(self, word_a, word_b):
        """Net that is 1 iff two equal-width words match bit-for-bit."""
        if len(word_a) != len(word_b):
            raise NetlistError("word_eq requires equal widths")
        return self.and_([self.xnor2(a, b) for a, b in zip(word_a, word_b)])

    def word_neq(self, word_a, word_b):
        return self.not_(self.word_eq(word_a, word_b))

    def compare_const(self, word, value):
        """Return ``(lt, gt)`` nets comparing unsigned ``word`` with ``value``.

        MSB-first scan keeping an equal-prefix term; constant bits fold so
        the result is compact for sparse constants.
        """
        width = len(word)
        if value < 0 or value >= (1 << width):
            raise NetlistError(f"constant {value} does not fit in {width} bits")
        lt_terms = []
        gt_terms = []
        prefix_equal = self.const(1)
        for position, net in enumerate(word):
            bit = (value >> (width - 1 - position)) & 1
            if bit:
                lt_terms.append(self.and_(prefix_equal, self.not_(net)))
            else:
                gt_terms.append(self.and_(prefix_equal, net))
            prefix_equal = self.and_(prefix_equal, self.literal(net, bool(bit)))
        return self.or_(lt_terms), self.or_(gt_terms)

    def half_adder(self, a, b):
        """Return ``(sum, carry)``."""
        return self.xor_(a, b), self.and_(a, b)

    def full_adder(self, a, b, cin):
        """Return ``(sum, carry)``."""
        s = self.xor_(a, b, cin)
        carry = self.or_(self.and_(a, b), self.and_(cin, self.xor_(a, b)))
        return s, carry

    def add_words(self, word_a, word_b, carry_in=None):
        """Ripple-carry add (MSB-first words); returns ``(sum_word, carry)``."""
        if len(word_a) != len(word_b):
            raise NetlistError("add_words requires equal widths")
        carry = carry_in if carry_in is not None else self.const(0)
        out_bits = []
        for a, b in zip(reversed(word_a), reversed(word_b)):
            s, carry = self.full_adder(a, b, carry)
            out_bits.append(s)
        out_bits.reverse()
        return out_bits, carry

    def sub_words(self, word_a, word_b):
        """Two's-complement ``a - b`` (MSB-first); returns ``(diff, borrow)``."""
        inverted = [self.not_(b) for b in word_b]
        diff, carry = self.add_words(word_a, inverted, carry_in=self.const(1))
        return diff, self.not_(carry)

    def sticky_flag(self, set_condition, name=None):
        """Flop that starts at 0 and latches to 1 once ``set_condition`` is 1.

        Returns the Q net. The D logic is ``Q OR set_condition``.
        """
        q = name if name is not None else self.names.fresh(self.prefix + "_sticky")
        self.names.reserve(q)
        d = self.names.fresh(self.prefix + "_stickyd")
        self.netlist.add_flop(q, d, init=False)
        self.netlist.add_gate(d, GateOp.OR, (q, set_condition))
        return q


def _flatten(nets):
    """Accept both ``f(a, b, c)`` and ``f([a, b, c])`` call shapes."""
    if len(nets) == 1 and isinstance(nets[0], (list, tuple)):
        return nets[0]
    return nets


# ----------------------------------------------------------------------
# Cut-based functional hashing
# ----------------------------------------------------------------------
#: A cut's truth table is a 16-bit int over four variables: bit ``m`` is
#: the value when variable ``j`` is ``m >> j & 1``, and variable ``j`` is
#: the cut's ``j``-th leaf. A table over fewer leaves ignores the rest.
_FULL = 0xFFFF
_LEAF = 0xAAAA  # variable 0: the table of a one-leaf cut that is its leaf
#: Per variable: the bits where it is 0.
_LOW = (0x5555, 0x3333, 0x0F0F, 0x00FF)
#: Per adjacent pair (j, j+1): bits kept, bits moving up, bits moving down.
_SWAP = ((0x9999, 0x2222, 0x4444), (0xC3C3, 0x0C0C, 0x3030),
         (0xF00F, 0x00F0, 0x0F00))
_MAX_LEAVES = 4
_MAX_CUTS = 8
_COMBINE = {GateOp.AND: int.__and__, GateOp.OR: int.__or__,
            GateOp.XOR: int.__xor__}


def _swap(table, j):
    """``table`` with variables ``j`` and ``j + 1`` exchanged."""
    keep, up, down = _SWAP[j]
    shift = 1 << j
    return table & keep | (table & up) << shift | (table & down) >> shift


def _stretch(table, phase):
    """Move a table's variables 0, 1, ... to the set bits of ``phase``."""
    places = [p for p in range(_MAX_LEAVES) if phase >> p & 1]
    for j in range(len(places) - 1, -1, -1):
        for p in range(j, places[j]):
            table = _swap(table, p)
    return table


def _shrink(table, n_leaves):
    """``(table, kept)``: drop the variables ``table`` ignores; bit ``j``
    of ``kept`` says leaf ``j`` stays."""
    kept, top = (1 << n_leaves) - 1, n_leaves
    for j in range(n_leaves - 1, -1, -1):
        if not (table >> (1 << j) ^ table) & _LOW[j]:
            top -= 1
            for p in range(j, top):
                table = _swap(table, p)
            kept ^= 1 << j
    return table, kept


def _cut_size(cut):
    return len(cut[1])


class CutBuilder(LogicBuilder):
    """A :class:`LogicBuilder` that also merges gates equal in function.

    Each gate it builds keeps up to 8 cuts of at most 4 leaves: sets of
    earlier nets that determine it, each with its exact truth table over
    them (the leaves are numbered in the order this builder first saw
    them). A new gate's cuts come from merging its inputs' cuts and
    combining their tables. When one of them has no leaves (a constant),
    is a leaf or its complement, or repeats the (leaves, table) of an
    earlier net, the gate is that net and is not emitted. A cut's table
    computes the net from its leaves for every input assignment, so the
    rewrite is sound; how many equalities it finds depends on which cuts
    survive the cap. Tables and memos live on the instance.
    """

    def __init__(self, netlist, prefix="n", max_arity=4, names=None):
        super().__init__(netlist, prefix, max_arity, names)
        self._leaf_nets = []   # leaf number -> net
        self._cuts = {}        # net -> [(signature, leaves, table)], own first
        self._functions = {}   # (leaves, table) -> first net with that cut
        self._stretched = {}   # table | phase << 16 -> stretched table
        self._shrunk = {}      # table | n_leaves << 16 -> _shrink's pair

    def _cuts_of(self, net):
        cuts = self._cuts.get(net)
        if cuts is None:
            cuts = self._cuts[net] = [self._own_cut(net)]
        return cuts

    def _own_cut(self, net):
        leaf = len(self._leaf_nets)
        self._leaf_nets.append(net)
        # A signature bit per leaf (mod 64): its popcount never exceeds
        # the leaf count, so it rejects oversized merges cheaply.
        return 1 << (leaf & 63), (leaf,), _LEAF

    def _new_gate(self, op, inputs):
        if not inputs:  # CONST0 / CONST1
            net = super()._new_gate(op, inputs)
            self._cuts[net] = [(0, (), _FULL if op is GateOp.CONST1 else 0)]
            return net
        cuts = self._gate_cuts(op, inputs)
        functions = self._functions
        for _, leaves, table in cuts:
            if len(leaves) > 1:
                found = functions.get((leaves, table))
                if found is not None:
                    return found
            elif not leaves:
                return self.const(table & 1)
            else:
                leaf = self._leaf_nets[leaves[0]]
                if table == _LEAF:
                    return leaf
                if op is not GateOp.NOT or inputs[0] != leaf:
                    return self.not_(leaf)  # (not this very NOT gate)
        net = super()._new_gate(op, inputs)
        cuts.sort(key=_cut_size)
        del cuts[_MAX_CUTS:]
        for _, leaves, table in cuts:
            functions.setdefault((leaves, table), net)
        cuts.insert(0, self._own_cut(net))
        self._cuts[net] = cuts
        return net

    def _over(self, table, sub, leaves):
        """``table`` over the leaves ``sub``, re-indexed over their
        superset ``leaves``."""
        if sub == leaves:
            return table
        key = table | sum(1 << leaves.index(leaf) for leaf in sub) << 16
        found = self._stretched.get(key)
        if found is None:
            found = self._stretched[key] = _stretch(table, key >> 16)
        return found

    def _gate_cuts(self, op, inputs):
        """Every cut of ``op(inputs)`` merged from its inputs' cuts, with
        the leaves its table ignores dropped."""
        if op is GateOp.NOT:
            return [(sig, leaves, table ^ _FULL)
                    for sig, leaves, table in self._cuts_of(inputs[0])]
        combine = _COMBINE[op]
        over = self._over
        partial = self._cuts_of(inputs[0])
        for net in inputs[1:]:
            merged = {}
            cuts_b = self._cuts_of(net)
            for sig_a, leaves_a, table_a in partial:
                for sig_b, leaves_b, table_b in cuts_b:
                    sig = sig_a | sig_b
                    if sig.bit_count() > _MAX_LEAVES:
                        continue
                    leaves = tuple(sorted({*leaves_a, *leaves_b}))
                    if len(leaves) > _MAX_LEAVES or leaves in merged:
                        continue
                    merged[leaves] = sig, combine(
                        over(table_a, leaves_a, leaves),
                        over(table_b, leaves_b, leaves))
            partial = [(sig, leaves, table)
                       for leaves, (sig, table) in merged.items()]
        shrunk = self._shrunk
        cuts, seen = [], set()
        for sig, leaves, table in partial:
            key = table | len(leaves) << 16
            pair = shrunk.get(key)
            if pair is None:
                pair = shrunk[key] = _shrink(table, len(leaves))
            table, kept = pair
            if kept != (1 << len(leaves)) - 1:
                leaves = tuple(leaf for j, leaf in enumerate(leaves)
                               if kept >> j & 1)
                sig = 0
                for leaf in leaves:
                    sig |= 1 << (leaf & 63)
            if leaves not in seen:
                seen.add(leaves)
                cuts.append((sig, leaves, table))
        return cuts
