"""Bit-parallel logic simulation: pattern packing, comb and sequential."""

from repro.sim.bitvec import (
    bit_at,
    bits_to_int,
    int_to_bits,
    mask_for,
    pack_column,
    pack_patterns,
    popcount,
    unpack_column,
    unpack_patterns,
)
from repro.sim.comb import CombSimulator
from repro.sim.random_vectors import (
    derive_seed,
    make_rng,
    random_input_words,
    random_sequence_words,
    random_vector,
    random_vectors,
    random_word,
)
from repro.sim.seq import SequentialSimulator

__all__ = [
    "CombSimulator",
    "SequentialSimulator",
    "bit_at",
    "bits_to_int",
    "derive_seed",
    "int_to_bits",
    "make_rng",
    "mask_for",
    "pack_column",
    "pack_patterns",
    "popcount",
    "random_input_words",
    "random_sequence_words",
    "random_vector",
    "random_vectors",
    "random_word",
    "unpack_column",
    "unpack_patterns",
]
