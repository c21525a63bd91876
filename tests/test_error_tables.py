"""Tests for error tables: spec-level construction and, crucially, the
exact equality between the gate-level locked circuit and ``E^SF``."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SCHEMES
from repro.core import (
    ErrorSpec,
    TriLockConfig,
    lock,
    measured_error_table,
    naive_error_table,
    spec_error_table,
)
from repro.core.error_tables import ErrorTable
from repro.errors import LockingError
from repro.metrics import exhaustive_fc
from repro.sim import SequentialSimulator

from tests.conftest import _tiny_circuit, locked_factory


def small_spec(**overrides):
    params = dict(width=2, kappa_s=2, kappa_f=1, key_star=0b100101,
                  key_star_star=0b11, alpha=0.6)
    params.update(overrides)
    return ErrorSpec(**params)


class TestSpecTables:
    def test_fig3a_structure(self):
        """Fig. 3(a): E^N diagonal — each wrong key detected by exactly the
        inputs replaying it."""
        table = naive_error_table(kappa=2, width=2, key_star=0b0110, depth=2)
        assert table.n_inputs == 16 and table.n_keys == 16
        for key in range(16):
            expected = 0 if key == 0b0110 else 1
            assert table.errors_for_key(key) == expected

    def test_fig3b_structure(self):
        """Fig. 3(b): red prefix-diagonal plus full blue columns."""
        spec = small_spec(alpha=1.0)
        table = spec_error_table(spec, depth=2)
        assert table.n_inputs == 16 and table.n_keys == 64
        for key in range(64):
            suffix = key & 0b11
            if key == spec.key_star:
                assert table.errors_for_key(key) == 0
            elif suffix == 0b11:  # k** column: only the prefix diagonal
                assert table.errors_for_key(key) == 1
            else:  # full column (16) — possibly already including diagonal
                assert table.errors_for_key(key) == 16

    def test_render_smoke(self):
        table = naive_error_table(kappa=1, width=2, key_star=0b01, depth=1)
        text = table.render()
        assert "i\\k" in text and "#" in text and "." in text

    def test_size_guard(self):
        with pytest.raises(LockingError):
            spec_error_table(small_spec(width=8), depth=2)


#: Every table producer, as ``(locked, depth) -> value``.
_PRODUCERS = {
    "spec": lambda locked, depth: spec_error_table(locked.spec, depth),
    "naive": lambda locked, depth: naive_error_table(
        kappa=2, width=2, key_star=0b0110, depth=depth),
    "measured": measured_error_table,
    "exhaustive_fc": exhaustive_fc,
}


@pytest.mark.parametrize("depth", [0, -1])
@pytest.mark.parametrize("producer", sorted(_PRODUCERS))
def test_depth_below_one_raises_typed_error(producer, depth):
    """Depth 0 used to give an all-False measured table (FC 0.0), and
    depth -1 an untyped ``ValueError: negative shift count``."""
    locked = locked_factory(kappa_s=2, kappa_f=1, alpha=0.6, seed=3)
    with pytest.raises(LockingError,
                       match=f"depth must be >= 1, got {depth}"):
        _PRODUCERS[producer](locked, depth)


class TestMeasuredEqualsSpec:
    """The central hardware-correctness theorem of this reproduction."""

    @pytest.mark.parametrize("kappa_s,kappa_f,alpha,seed", [
        (1, 1, 0.6, 3),
        (2, 1, 0.6, 3),
        (2, 1, 0.0, 4),
        (2, 1, 1.0, 5),
        (1, 2, 0.5, 6),
        (2, 0, 0.0, 7),   # naive E^N degeneration
        (3, 1, 0.9, 8),
    ])
    def test_gate_level_table_matches_spec(self, kappa_s, kappa_f, alpha,
                                           seed):
        locked = locked_factory(kappa_s=kappa_s, kappa_f=kappa_f,
                                alpha=alpha, seed=seed)
        depth = kappa_s  # b = b* = kappa_s
        spec_table = spec_error_table(locked.spec, depth)
        measured = measured_error_table(locked, depth)
        assert measured.rows == spec_table.rows

    def test_match_beyond_bstar(self):
        locked = locked_factory(kappa_s=2, kappa_f=1, alpha=0.6, seed=3)
        for depth in (2, 3, 4):
            assert measured_error_table(locked, depth).rows == \
                spec_error_table(locked.spec, depth).rows

    def test_no_output_flip_loses_exactness_guard(self):
        """With zero flipped outputs, state flips may still corrupt, but
        the table can only under-approximate the spec (never invent
        errors)."""
        from tests.conftest import _tiny_circuit

        locked = lock(_tiny_circuit(), TriLockConfig(
            kappa_s=2, kappa_f=1, alpha=0.6, seed=9, n_output_flips=0,
            n_state_flips=3))
        spec_table = spec_error_table(locked.spec, 2)
        measured = measured_error_table(locked, 2)
        for spec_row, measured_row in zip(spec_table.rows, measured.rows):
            for spec_cell, measured_cell in zip(spec_row, measured_row):
                if measured_cell:
                    assert spec_cell


# ----------------------------------------------------------------------
# The closed-form stimulus against the per-pair loops it replaced
# ----------------------------------------------------------------------
def _pair_words_python(inputs, width, cycle, kappa, depth, n_pairs, n_keys):
    words = {net: 0 for net in inputs}
    for pair in range(n_pairs):
        i_value, k_value = divmod(pair, n_keys)
        if cycle < kappa:
            word = (k_value >> ((kappa - 1 - cycle) * width))
        else:
            word = (i_value >> ((depth - 1 - (cycle - kappa)) * width))
        word &= (1 << width) - 1
        bit = 1 << pair
        for position, net in enumerate(inputs):
            if (word >> (width - 1 - position)) & 1:
                words[net] |= bit
    return words


def _input_words_python(inputs, width, cycle, depth, n_inputs):
    words = {net: 0 for net in inputs}
    for i_value in range(n_inputs):
        word = (i_value >> ((depth - 1 - cycle) * width)) & ((1 << width) - 1)
        bit = 1 << i_value
        for position, net in enumerate(inputs):
            if (word >> (width - 1 - position)) & 1:
                words[net] |= bit
    return words


def _expand_python(word, n_inputs, n_keys):
    expanded = 0
    for i_value in range(n_inputs):
        if (word >> i_value) & 1:
            expanded |= ((1 << n_keys) - 1) << (i_value * n_keys)
    return expanded


def _rows_python(mismatch, n_inputs, n_keys):
    return [
        [bool((mismatch >> (i_value * n_keys + k_value)) & 1)
         for k_value in range(n_keys)]
        for i_value in range(n_inputs)
    ]


def per_pair_error_table(locked, depth):
    """The measured table built pair by pair: the locked run's stimulus
    packed one pair at a time, the oracle run over input sequences
    only and expanded to every key, and rows read bit by bit."""
    width, kappa = locked.spec.width, locked.spec.kappa
    n_inputs = 1 << (depth * width)
    n_keys = 1 << (kappa * width)
    n_pairs = n_inputs * n_keys
    inputs = locked.netlist.inputs
    locked_outputs, _ = SequentialSimulator(locked.netlist).run(
        [_pair_words_python(inputs, width, cycle, kappa, depth, n_pairs,
                            n_keys)
         for cycle in range(kappa + depth)], n_pairs)
    oracle_outputs, _ = SequentialSimulator(locked.original).run(
        [_input_words_python(inputs, width, cycle, depth, n_inputs)
         for cycle in range(depth)], n_inputs)
    mismatch = 0
    for cycle in range(depth):
        for locked_word, oracle_word in zip(locked_outputs[kappa + cycle],
                                            oracle_outputs[cycle]):
            mismatch |= locked_word ^ _expand_python(oracle_word, n_inputs,
                                                     n_keys)
    return ErrorTable(width, kappa, depth,
                      _rows_python(mismatch, n_inputs, n_keys))


@functools.lru_cache(maxsize=None)
def _scheme_lock(scheme, width, kappa):
    host = _tiny_circuit(n_inputs=width)
    if scheme == "trilock":  # κf = 1 whenever κ leaves room for κs >= 1
        kappa_f = min(1, kappa - 1)
        return SCHEMES.get("trilock").lock(
            host, seed=3, kappa_s=kappa - kappa_f, kappa_f=kappa_f,
            alpha=0.6)
    return SCHEMES.get(scheme).lock(host, seed=1, kappa=kappa)


@st.composite
def _table_shapes(draw):
    """``(width, κ, depth)`` with ``(κ + depth)·width <= 12``."""
    width = draw(st.integers(1, 3))
    kappa = draw(st.integers(1, 12 // width - 1))
    depth = draw(st.integers(1, 12 // width - kappa))
    return width, kappa, depth


class TestClosedFormStimulus:
    @settings(max_examples=40, deadline=None)
    @given(scheme=st.sampled_from(["trilock", "naive", "sarlock"]),
           shape=_table_shapes())
    def test_equals_per_pair_pipeline(self, scheme, shape):
        width, kappa, depth = shape
        locked = _scheme_lock(scheme, width, kappa)
        assert measured_error_table(locked, depth) == \
            per_pair_error_table(locked, depth)

    @pytest.mark.parametrize("kappa_s,depth", [
        (3, 4),  # 2^16 pairs
        (4, 5),  # 2^20 pairs, the exhaustive cap
    ])
    def test_wide_tables_match_spec(self, kappa_s, depth):
        locked = locked_factory(kappa_s=kappa_s, kappa_f=1, alpha=0.6,
                                seed=3)
        assert measured_error_table(locked, depth).rows == \
            spec_error_table(locked.spec, depth).rows
