"""Gate primitives for the gate-level netlist IR.

The gate alphabet matches what the ISCAS'89 ``.bench`` format can express
(``AND``/``NAND``/``OR``/``NOR``/``XOR``/``XNOR``/``NOT``/``BUF``) plus the
two constants. AND/OR-family gates are n-ary (ISCAS netlists use up to
8-input gates); ``XOR``/``XNOR`` accept two or more inputs with the usual
parity semantics; ``NOT``/``BUF`` are unary; constants take no inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import NetlistError


class GateOp(enum.Enum):
    """Boolean operator of a gate."""

    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    # Members are singletons, so identity is equality: the C-level
    # object hash replaces Enum's Python-level hash of the member name,
    # which every dict or set keyed by an op would otherwise call.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


#: Operators whose output is the complement of their base operator.
INVERTING_OPS = {GateOp.NAND, GateOp.NOR, GateOp.XNOR, GateOp.NOT}

#: Minimum/maximum input arity per operator (``None`` means unbounded).
_ARITY = {
    GateOp.AND: (2, None),
    GateOp.NAND: (2, None),
    GateOp.OR: (2, None),
    GateOp.NOR: (2, None),
    GateOp.XOR: (2, None),
    GateOp.XNOR: (2, None),
    GateOp.NOT: (1, 1),
    GateOp.BUF: (1, 1),
    GateOp.CONST0: (0, 0),
    GateOp.CONST1: (0, 0),
}


@dataclass(frozen=True)
class Gate:
    """A single gate: an operator applied to an ordered tuple of input nets.

    Gates are value objects; the driven (output) net name is the key under
    which the gate is stored in a :class:`~repro.netlist.netlist.Netlist`.
    """

    op: GateOp
    inputs: tuple

    def __post_init__(self):
        if not isinstance(self.op, GateOp):
            raise NetlistError(f"gate op must be a GateOp, got {self.op!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        low, high = _ARITY[self.op]
        n = len(self.inputs)
        if n < low or (high is not None and n > high):
            bound = "inf" if high is None else high
            raise NetlistError(
                f"{self.op} expects arity in [{low}, {bound}], got {n}"
            )
        for net in self.inputs:
            if not isinstance(net, str) or not net:
                raise NetlistError(f"gate input must be a non-empty str, got {net!r}")

    @property
    def arity(self):
        return len(self.inputs)

    def substituted(self, mapping):
        """Return a copy with every input renamed through ``mapping``."""
        return Gate(self.op, tuple(mapping.get(net, net) for net in self.inputs))


def _unchecked_gate(op, inputs):
    """A :class:`Gate` of ``op`` over the tuple ``inputs``, built without
    the checks of ``__post_init__``: for callers that already hold net
    names within ``op``'s arity."""
    gate = object.__new__(Gate)
    # Set like the dataclass's own __init__ does: writing through
    # ``gate.__dict__`` instead would materialise the dict and slow
    # every later read of ``op`` and ``inputs``.
    object.__setattr__(gate, "op", op)
    object.__setattr__(gate, "inputs", inputs)
    return gate


def evaluate_words(op, words, mask):
    """Evaluate ``op`` over bit-parallel integer ``words`` under ``mask``.

    Each word packs one bit per simulation pattern; ``mask`` has a 1 in
    every valid pattern position. This single function is the semantic
    ground truth used by both the simulator and the CNF encoder tests.
    """
    if op is GateOp.CONST0:
        return 0
    if op is GateOp.CONST1:
        return mask
    if op is GateOp.BUF:
        return words[0] & mask
    if op is GateOp.NOT:
        return ~words[0] & mask
    if op in (GateOp.AND, GateOp.NAND):
        acc = mask
        for word in words:
            acc &= word
        return acc if op is GateOp.AND else ~acc & mask
    if op in (GateOp.OR, GateOp.NOR):
        acc = 0
        for word in words:
            acc |= word
        return acc & mask if op is GateOp.OR else ~acc & mask
    # XOR / XNOR
    acc = 0
    for word in words:
        acc ^= word
    acc &= mask
    return acc if op is GateOp.XOR else ~acc & mask


def evaluate_bools(op, values):
    """Scalar (single-pattern) gate evaluation over Python bools."""
    word = evaluate_words(op, [1 if v else 0 for v in values], 1)
    return bool(word)


@dataclass(frozen=True)
class Flop:
    """A D flip-flop: ``q`` (the storage net, the dict key) loads ``d``.

    ``init`` is the reset value. The ISCAS benchmarks and the TriLock flow
    both assume an all-zero reset, but the field keeps the IR honest about
    where that assumption lives.
    """

    d: str
    init: bool = False

    def __post_init__(self):
        if not isinstance(self.d, str) or not self.d:
            raise NetlistError(f"flop D input must be a non-empty str, got {self.d!r}")
        object.__setattr__(self, "init", bool(self.init))

    def substituted(self, mapping):
        """Return a copy with the D net renamed through ``mapping``."""
        return Flop(mapping.get(self.d, self.d), self.init)
