"""Bit-parallel pattern packing.

The simulator evaluates many stimulus patterns at once by packing one bit
per pattern into a single Python integer per net ("word"): pattern ``j``
is bit ``j``. CPython runs ``&``, ``|`` and ``^`` on these integers in C,
so one gate op applies to every pattern in the word, whatever its width:
800 samples per depth window for the functional-corruptibility estimate,
or all 2^20 (input, key) pairs of the widest exhaustive error table.
"""

from __future__ import annotations

from repro.errors import SimulationError


def mask_for(n_patterns):
    """All-ones word for ``n_patterns`` packed patterns."""
    if n_patterns <= 0:
        raise SimulationError("pattern count must be positive")
    return (1 << n_patterns) - 1


def pack_column(values):
    """Pack an iterable of truthy values; element ``j`` lands in bit ``j``."""
    word = 0
    for position, value in enumerate(values):
        if value:
            word |= 1 << position
    return word


def unpack_column(word, n_patterns):
    """Inverse of :func:`pack_column`; returns a list of bools."""
    return [bool((word >> position) & 1) for position in range(n_patterns)]


def popcount(word):
    """Number of set bits."""
    return word.bit_count()


def bit_at(word, position):
    """Value of pattern ``position`` in ``word``."""
    return bool((word >> position) & 1)


def pack_patterns(patterns, nets):
    """Transpose per-pattern assignments into per-net words.

    ``patterns`` is a sequence of per-pattern bit sequences ordered like
    ``nets``. Returns ``{net: word}`` with pattern ``j`` in bit ``j``.
    """
    words = {net: 0 for net in nets}
    for position, pattern in enumerate(patterns):
        if len(pattern) != len(nets):
            raise SimulationError(
                f"pattern {position} has {len(pattern)} bits, expected {len(nets)}"
            )
        bit = 1 << position
        for net, value in zip(nets, pattern):
            if value:
                words[net] |= bit
    return words


def unpack_patterns(words, nets, n_patterns):
    """Inverse of :func:`pack_patterns`: per-pattern tuples ordered by nets."""
    patterns = []
    for position in range(n_patterns):
        patterns.append(tuple(bit_at(words[net], position) for net in nets))
    return patterns


def int_to_bits(value, width):
    """Integer to MSB-first bit tuple of ``width`` bits."""
    if value < 0 or value >= (1 << width):
        raise SimulationError(f"value {value} does not fit in {width} bits")
    return tuple(bool((value >> (width - 1 - i)) & 1) for i in range(width))


def bits_to_int(bits):
    """MSB-first bit sequence to integer."""
    value = 0
    for bit in bits:
        value = (value << 1) | (1 if bit else 0)
    return value
