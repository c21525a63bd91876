"""The batched word-parallel oracle and the fold-and-hash pinning path.

Two invariants anchor this file:

* the batched oracle is an *accounting* change, not a *behaviour*
  change — every trace, the DIP walk, the recovered key, and the
  feasible key set are bit-identical to a serial reference that asks
  one :meth:`SimulationOracle.query` per pattern; only ``query_count``
  collapses while ``pattern_count`` stays comparable;
* pinning an I/O pair through the engine's one hashed problem netlist
  admits exactly the keys that encoding a full specialised copy per pin
  and key copy does, while encoding only the pin's DIP-specific gates.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.attacks.seq_sat as seq_sat
from repro.api import ATTACKS
from repro.api.cells import resolve_scheme_spec
from repro.api.circuits import load_circuit
from repro.attacks import (
    SimulationOracle,
    comb_sat_attack,
    sequential_sat_attack,
)
from repro.attacks.comb_sat import DipEngine
from repro.attacks.seq_sat import (
    _with_folded_constants,
    unrolled_attack_view,
)
from repro.cnf import Cnf, encode
from repro.core.baselines import lock_naive
from repro.core.rivals import lock_sarlock
from repro.errors import AttackError
from repro.netlist.transform import InputSpecializer, simplified
from repro.sat import Solver, make_backend
from repro.sim import SequentialSimulator, make_rng
from repro.sim.random_vectors import random_vectors

from tests.conftest import _locked_tiny, _tiny_circuit, locked_factory


def _random_sequences(n_sequences, width, cycles, seed=7):
    rng = make_rng(("oracle-batch", seed))
    return [random_vectors(rng, width, cycles) for _ in range(n_sequences)]


def _count_compiles(monkeypatch):
    """Record the netlist of every ``SequentialSimulator`` built."""
    built = []
    compile_netlist = SequentialSimulator.__init__

    def counting_init(self, netlist):
        built.append(netlist)
        compile_netlist(self, netlist)

    monkeypatch.setattr(SequentialSimulator, "__init__", counting_init)
    return built


class TestLazyCompile:
    def test_first_query_compiles_once(self, monkeypatch):
        built = _count_compiles(monkeypatch)
        locked = _locked_tiny()
        oracle = SimulationOracle(locked.original)
        assert built == []
        sequences = _random_sequences(3, oracle.input_width, 2)
        oracle.query(sequences[0])
        oracle.query_batch(sequences)
        assert built == [locked.original]
        assert (oracle.query_count, oracle.pattern_count) == (2, 4)

    def test_census_only_removal_compiles_nothing(self, monkeypatch):
        """Table II's census cells never ask the oracle ``Attack.run``
        builds for them, so the original is never compiled."""
        built = _count_compiles(monkeypatch)
        locked = locked_factory(kappa_s=2, s_pairs=2, seed=3)
        outcome = ATTACKS.get("removal").run(locked, strip=False)
        assert outcome.metrics["stripped"] == 0
        assert built == []


class TestQueryBatch:
    def test_batch_matches_serial_queries_bit_for_bit(self):
        locked = _locked_tiny()
        serial = SimulationOracle(locked.original)
        batched = SimulationOracle(locked.original)
        sequences = _random_sequences(9, serial.input_width, 4)
        expected = [serial.query(seq) for seq in sequences]
        assert batched.query_batch(sequences) == expected
        assert batched.query_batch_flat(sequences) == \
            [serial.query_flat(seq) for seq in sequences]

    def test_accounting_calls_vs_patterns(self):
        locked = _locked_tiny()
        oracle = SimulationOracle(locked.original)
        sequences = _random_sequences(5, oracle.input_width, 3)
        oracle.query_batch(sequences)
        assert (oracle.query_count, oracle.pattern_count) == (1, 5)
        oracle.query(sequences[0])
        assert (oracle.query_count, oracle.pattern_count) == (2, 6)

    def test_empty_batch_is_free(self):
        oracle = SimulationOracle(_locked_tiny().original)
        assert oracle.query_batch([]) == []
        assert (oracle.query_count, oracle.pattern_count) == (0, 0)

    def test_mixed_length_sequences_rejected(self):
        oracle = SimulationOracle(_locked_tiny().original)
        seqs = _random_sequences(2, oracle.input_width, 3)
        seqs[1] = seqs[1][:2]
        with pytest.raises(AttackError, match=r"cycle counts \[2, 3\]"):
            oracle.query_batch(seqs)

    def test_width_validation_names_the_bad_cycle(self):
        oracle = SimulationOracle(_locked_tiny().original)
        seq = _random_sequences(1, oracle.input_width, 3)[0]
        seq[1] = seq[1] + (False,)
        with pytest.raises(AttackError, match="cycle 1: oracle stimulus"):
            oracle.query_batch([seq])


class SerialOracle(SimulationOracle):
    """The serial reference: answers a batch with one :meth:`query` per
    sequence, so every pattern is its own oracle call."""

    def query_batch(self, sequences):
        return [self.query(seq) for seq in sequences]


def _attack_pair(kappa_s, dip_batch, solver="cdcl", seed=3):
    """Run the same black-box attack against the serial reference and
    the batched oracle; returns ``(result, oracle)`` for each."""
    locked = locked_factory(kappa_s=kappa_s, seed=seed)
    out = []
    for oracle_class in (SerialOracle, SimulationOracle):
        oracle = oracle_class(locked.original)
        out.append((sequential_sat_attack(
            locked.netlist, locked.config.kappa, oracle,
            known_depth=locked.config.kappa_s, dip_batch=dip_batch,
            solver=solver), oracle))
    return out


class TestBatchedSerialDifferential:
    @pytest.mark.parametrize("kappa_s,dip_batch", [
        (1, 1), (1, 4), (2, 2), (2, 8), (3, 4),
    ])
    def test_identical_attack_across_kappa_and_batch(self, kappa_s,
                                                     dip_batch):
        (serial, serial_oracle), (batched, batched_oracle) = \
            _attack_pair(kappa_s, dip_batch)
        assert batched.success and serial.success
        assert batched.key == serial.key
        assert batched.n_dips == serial.n_dips
        assert batched.dips_per_depth == serial.dips_per_depth
        assert batched.depth == serial.depth
        # Same patterns through the oracle; fewer tester sessions
        # whenever a round actually had more than one DIP to ask about.
        assert batched_oracle.pattern_count == serial_oracle.pattern_count
        assert batched_oracle.query_count <= serial_oracle.query_count
        if dip_batch > 1 and batched.n_dips > 1:
            assert batched_oracle.query_count < serial_oracle.query_count

    def test_identical_under_another_solver(self, native_engine):
        (serial, _), (batched, _) = _attack_pair(1, 2, solver="native")
        assert batched.key == serial.key
        assert batched.n_dips == serial.n_dips

    def test_dip_batch_one_accounting_matches_serial_loop(self):
        # A single-DIP round is a batch of one: one call per DIP either
        # way; only the black-box key check's batch saves calls.
        (serial, serial_oracle), (batched, batched_oracle) = \
            _attack_pair(2, 1)
        assert batched.key == serial.key
        assert batched_oracle.query_count == serial_oracle.query_count \
            or batched_oracle.query_count < serial_oracle.query_count
        assert batched_oracle.pattern_count == serial_oracle.pattern_count


class TestOracleAccounting:
    """One oracle call per miter round, one pattern per DIP."""

    def _rounds_and_result(self, monkeypatch, dip_batch):
        """A reference-mode attack (BMC key check, so no oracle calls
        outside the DIP loop) with the per-depth COMB-SAT results."""
        results = []
        real = seq_sat.comb_sat_attack

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(seq_sat, "comb_sat_attack", recording)
        locked = locked_factory(kappa_s=2, seed=3)
        oracle = SimulationOracle(locked.original)
        result = sequential_sat_attack(
            locked.netlist, locked.config.kappa, oracle,
            known_depth=locked.config.kappa_s, dip_batch=dip_batch,
            reference=locked.original)
        assert result.success
        return results, result, oracle

    def test_single_dip_rounds_are_one_call_per_dip(self, monkeypatch):
        _, result, oracle = self._rounds_and_result(monkeypatch, 1)
        assert result.n_dips > 1
        assert oracle.query_count == oracle.pattern_count == result.n_dips
        assert (result.oracle_calls, result.oracle_queries) == \
            (result.n_dips, result.n_dips)

    def test_batched_rounds_are_one_call_per_round(self, monkeypatch):
        rounds, result, oracle = self._rounds_and_result(monkeypatch, 4)
        n_rounds = sum(depth.n_rounds for depth in rounds)
        assert 1 < n_rounds < result.n_dips
        assert oracle.query_count == n_rounds
        assert oracle.pattern_count == result.n_dips

    @pytest.mark.parametrize("answer", [
        pytest.param(lambda responses: responses[:-1], id="too-few"),
        pytest.param(lambda responses: responses * 2, id="too-many"),
    ])
    def test_wrong_response_count_is_an_error(self, answer):
        locked, view, key_inputs = _attack_view()
        ask = SimulationOracle(locked.original).flat_window(
            locked.config.kappa_s)
        with pytest.raises(AttackError, match="responses for"):
            comb_sat_attack(view, key_inputs,
                            lambda dips: answer(ask(dips)), dip_batch=2)

    def test_slow_oracle_stops_after_pinning_its_round(self, monkeypatch):
        """The time budget is checked before each round: a round whose
        oracle overruns it still pins every DIP it asked about."""
        locked, view, key_inputs = _attack_view()
        ask = SimulationOracle(locked.original).flat_window(
            locked.config.kappa_s)

        def slow(dips):
            time.sleep(0.6)
            return ask(dips)

        pinned = []
        real_pin = DipEngine.pin_batch

        def recording_pin(self, pairs):
            pairs = list(pairs)
            pinned.append(len(pairs))
            real_pin(self, pairs)

        monkeypatch.setattr(DipEngine, "pin_batch", recording_pin)
        result = comb_sat_attack(view, key_inputs, slow, dip_batch=4,
                                 time_budget=0.5)
        assert not result.success
        assert result.stop_reason == "time_budget"
        assert (result.n_rounds, result.n_dips) == (1, 4)
        assert pinned == [4]


class TestAttacksAskTheGivenOracle:
    """Every oracle-guided attack asks the chip ``Attack.run`` hands
    it, not a private copy of the original circuit."""

    @pytest.mark.parametrize("attack", ["seq-sat", "comb-sat", "removal",
                                        "key-space"])
    def test_given_oracle_sees_every_dip(self, attack):
        locked = locked_factory(kappa_s=1, kappa_f=1, alpha=0.6, seed=3)
        spy = SimulationOracle(locked.original)
        outcome = ATTACKS.get(attack).run(locked, oracle=spy)
        n_dips = outcome.metrics["n_dips"]
        assert n_dips > 0
        assert spy.pattern_count >= n_dips


# ----------------------------------------------------------------------
# Pinning: the fold-and-hash engine against a copy-per-pin reference.
# ----------------------------------------------------------------------
class SpySolver:
    """Wraps a real backend and logs every clause it is fed."""

    def __init__(self):
        self._inner = make_backend("cdcl")
        self.clause_log = []

    def add_clause(self, lits):
        self.clause_log.append(tuple(lits))
        return self._inner.add_clause(lits)

    @property
    def num_vars(self):
        return self._inner.num_vars

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _attack_view(kappa_s=2, seed=3):
    locked = locked_factory(kappa_s=kappa_s, seed=seed)
    view, key_inputs, _ = unrolled_attack_view(
        locked.netlist, locked.config.kappa, locked.config.kappa_s)
    view = _with_folded_constants(view)
    return locked, view, key_inputs


def _random_pins(engine, locked, n_pins, seed=11):
    rng = make_rng(("pin-equiv", seed))
    oracle = SimulationOracle(locked.original)
    width = len(locked.original.inputs)
    depth = locked.config.kappa_s
    pins = []
    for _ in range(n_pins):
        vectors = random_vectors(rng, width, depth)
        trace = oracle.query(vectors)
        flat_dip = tuple(bit for cycle in vectors for bit in cycle)
        flat_response = tuple(bit for cycle in trace for bit in cycle)
        pins.append((flat_dip, flat_response))
    return pins


def reference_feasible_keys(view, key_inputs, pins):
    """Copy-per-pin reference: specialise the view on each DIP, rename a
    full copy per key copy, encode it and pin its outputs; then every
    key assignment of copy "a" that the store admits."""
    key_set = set(key_inputs)
    data_inputs = [net for net in view.inputs if net not in key_set]
    cnf, var_of = Cnf(), {}
    for tag in ("a", "b"):
        for net in key_inputs:
            var_of[f"key_{tag}::{net}"] = cnf.new_var()
    for index, (dip, response) in enumerate(pins):
        fixed = simplified(view, dict(zip(data_inputs, map(int, dip))))
        for tag in ("a", "b"):
            copy = fixed.renamed({
                net: f"key_{tag}::{net}" if net in key_set
                else f"io_{tag}{index}::{net}" for net in fixed.nets()})
            circuit = encode(copy, cnf=cnf, var_of=var_of)
            for net, bit in zip(copy.outputs, response):
                cnf.add_clause([circuit.lit(net, bool(bit))])
    solver = Solver()
    solver.add_cnf(cnf)
    return _admitted_keys(solver,
                          [var_of[f"key_a::{net}"] for net in key_inputs])


def _admitted_keys(solver, key_vars):
    """Every assignment of ``key_vars`` the solver's store admits."""
    return {bits for bits in itertools.product((False, True),
                                               repeat=len(key_vars))
            if solver.solve([var if bit else -var
                             for var, bit in zip(key_vars, bits)])}


def _scheme_lock(scheme):
    circuit = _tiny_circuit()
    if scheme == "naive":
        return lock_naive(circuit, 2)
    if scheme == "sarlock":
        return lock_sarlock(circuit, kappa=1)
    kappa_s, s_pairs = scheme
    return locked_factory(kappa_s=kappa_s, s_pairs=s_pairs)


class TestPinningEquivalence:
    @given(scheme=st.sampled_from([(1, 0), (1, 4), (2, 0), (2, 4),
                                   "naive", "sarlock"]),
           depth=st.integers(1, 2),
           patterns=st.lists(st.integers(0, 15), max_size=6),
           flip=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_feasible_keys_match_copy_per_pin_reference(self, scheme, depth,
                                                        patterns, flip):
        """Same candidate-key set as the copy-per-pin path, for honest
        oracle responses and (``flip``) for an inconsistent last one."""
        locked = _scheme_lock(scheme)
        view, key_inputs, _ = unrolled_attack_view(
            locked.netlist, locked.config.kappa, depth)
        view = _with_folded_constants(view)
        width = len(locked.original.inputs)
        oracle = SimulationOracle(locked.original)
        pins = []
        for pattern in patterns:
            dip = tuple(bool(pattern >> bit & 1)
                        for bit in range(width * depth))
            pins.append((dip, oracle.flat_window(depth)([dip])[0]))
        if pins and flip:
            dip, response = pins[-1]
            pins[-1] = (dip, (not response[0],) + response[1:])
        expected = reference_feasible_keys(view, key_inputs, pins)
        engine = DipEngine(view, key_inputs)
        for dip, response in pins:
            engine.pin_response(dip, response)
        assert engine.feasible_keys() == expected
        # Both key copies are pinned, not just the one read back.
        key_b = [engine.var_of[engine.map_b[net]] for net in key_inputs]
        assert _admitted_keys(engine.solver, key_b) == expected

    def test_pin_batch_equals_one_by_one_pinning(self):
        locked, view, key_inputs = _attack_view()
        streams, feasible = {}, {}
        for mode in ("one-by-one", "batched"):
            spy = SpySolver()
            engine = DipEngine(view, key_inputs, solver=spy)
            pins = _random_pins(engine, locked, n_pins=5)
            if mode == "batched":
                engine.pin_batch(pins)
            else:
                for dip, response in pins:
                    engine.pin_response(dip, response)
            streams[mode] = list(spy.clause_log)
            feasible[mode] = engine.feasible_keys()
        assert streams["batched"] == streams["one-by-one"]
        assert feasible["batched"] == feasible["one-by-one"]

    def test_pins_encode_only_dip_specific_logic(self, monkeypatch):
        """A pin's key-only logic hashes onto nets the miter already
        encoded, and pinning the same DIP again adds no variable.
        Counted, not timed, so host load cannot flake it."""
        locked, view, key_inputs = _attack_view(kappa_s=3)
        key_set = set(key_inputs)
        support = {net: {net} for net in view.inputs}
        for net in view.topo_order():
            support[net] = set().union(
                *(support[src] for src in view.gate(net).inputs))
        key_only = [net for net in view.topo_order()
                    if support[net] and support[net] <= key_set]
        assert key_only

        folds = []
        real_fold = InputSpecializer.fold

        def recording_fold(self, builder, mapping):
            real_fold(self, builder, mapping)
            folds.append(mapping)

        monkeypatch.setattr(InputSpecializer, "fold", recording_fold)
        engine = DipEngine(view, key_inputs)
        for dip, response in _random_pins(engine, locked, n_pins=6):
            encoded = set(engine.var_of)
            folds.clear()
            engine.pin_response(dip, response)
            assert len(folds) == 2  # one replay per key copy
            for mapping in folds:
                assert all(mapping[net] in encoded for net in key_only)
            n_vars = engine.solver.num_vars
            engine.pin_response(dip, response)
            assert engine.solver.num_vars == n_vars

    def test_pins_allocate_no_eliminated_variable(self):
        """Counted on the dip-loop synth cell (κs=2): its 256 pins leave
        the solver at most 1.25x the miter's variables, where keeping
        every pin gate held 2,334 against the miter's 163."""
        netlist = load_circuit("synth?gates=120&ffs=8&pis=4&pos=3&seed=0")
        scheme, params = resolve_scheme_spec("trilock?kappa_s=2")
        locked = scheme.lock(netlist, seed=0, **params)
        depth = locked.config.kappa_s
        view, key_inputs, _ = unrolled_attack_view(
            locked.netlist, locked.config.kappa, depth)
        engine = DipEngine(_with_folded_constants(view), key_inputs)
        miter_vars = engine.solver.num_vars
        oracle = SimulationOracle(locked.original).flat_window(depth)
        while batch := engine.find_dip_batch():
            engine.pin_batch(zip(batch, oracle(batch)))
        assert engine.n_pinned == 256
        assert engine.solver.num_vars <= 1.25 * miter_vars
