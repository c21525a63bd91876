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
        net = self.names.fresh(self.prefix)
        self.netlist.add_gate(net, op, inputs)
        self._cse[key] = net
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
