"""The batched word-parallel oracle and the hoisted pinning path.

Two invariants anchor this file:

* the batched oracle is an *accounting* change, not a *behaviour*
  change — every trace, the DIP walk, the recovered key, and the
  feasible key set are bit-identical to the serial loop; only
  ``query_count`` collapses while ``pattern_count`` stays comparable;
* the hoisted pinning path (shared :class:`InputSpecializer` + arena
  batch encode + copy-b literal mirroring) feeds the solver the exact
  clause stream the legacy re-simplify-per-pin path did, so serial
  attack runs stay byte-identical across the rewrite (no CODE_VERSION
  bump).
"""

import pytest

from repro.attacks import SimulationOracle, sequential_sat_attack
from repro.attacks.comb_sat import DipEngine
from repro.attacks.seq_sat import unrolled_attack_view, _with_folded_constants
from repro.errors import AttackError
from repro.netlist.transform import InputSpecializer
from repro.sat import make_backend
from repro.sim import make_rng
from repro.sim.random_vectors import random_vectors

from tests.conftest import _locked_tiny, locked_factory


def _random_sequences(n_sequences, width, cycles, seed=7):
    rng = make_rng(("oracle-batch", seed))
    return [random_vectors(rng, width, cycles) for _ in range(n_sequences)]


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


def _attack_pair(kappa_s, dip_batch, portfolio=None, attack_jobs=1,
                 seed=3):
    """Run the same attack serially and batched; returns both results."""
    locked = locked_factory(kappa_s=kappa_s, seed=seed)
    out = {}
    for mode in (False, True):
        oracle = SimulationOracle(locked.original)
        out[mode] = (sequential_sat_attack(
            locked.netlist, locked.config.kappa, oracle,
            known_depth=locked.config.kappa_s, dip_batch=dip_batch,
            portfolio=portfolio, attack_jobs=attack_jobs,
            oracle_batch=mode), oracle)
    return out[False], out[True]


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

    @pytest.mark.portfolio
    def test_identical_under_portfolio_racing(self):
        (serial, _), (batched, _) = _attack_pair(
            2, 4, portfolio="cdcl,cdcl-agile", attack_jobs=2)
        assert batched.key == serial.key
        assert batched.n_dips == serial.n_dips

    def test_identical_under_pure_python_fallback(self, monkeypatch):
        numpy_pair = _attack_pair(2, 4)
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        fallback_pair = _attack_pair(2, 4)
        for (with_numpy, _), (fallback, _) in zip(numpy_pair,
                                                  fallback_pair):
            assert fallback.key == with_numpy.key
            assert fallback.n_dips == with_numpy.n_dips
            assert fallback.dips_per_depth == with_numpy.dips_per_depth

    def test_dip_batch_one_accounting_matches_serial_loop(self):
        # oracle_batch_fn is bypassed for single-DIP rounds, so the
        # historical one-call-per-DIP accounting survives verbatim.
        (serial, serial_oracle), (batched, batched_oracle) = \
            _attack_pair(2, 1)
        assert batched.key == serial.key
        assert batched_oracle.query_count == serial_oracle.query_count \
            or batched_oracle.query_count < serial_oracle.query_count
        assert batched_oracle.pattern_count == serial_oracle.pattern_count


# ----------------------------------------------------------------------
# Pinning equivalence: the hoisted path must feed the solver the exact
# clause stream the legacy path did.
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


class TestPinningEquivalence:
    def test_legacy_and_hoisted_clause_streams_identical(self,
                                                         monkeypatch):
        locked, view, key_inputs = _attack_view()
        streams, var_counts, feasible = {}, {}, {}
        for mode in ("legacy", "hoisted"):
            if mode == "legacy":
                monkeypatch.setenv("REPRO_LEGACY_PIN", "1")
            else:
                monkeypatch.delenv("REPRO_LEGACY_PIN", raising=False)
            spy = SpySolver()
            with DipEngine(view, key_inputs, solver=spy) as engine:
                pins = _random_pins(engine, locked, n_pins=6)
                for dip, response in pins:
                    engine.pin_response(dip, response)
                streams[mode] = list(spy.clause_log)
                var_counts[mode] = spy.num_vars
                feasible[mode] = engine.feasible_keys()
        assert streams["hoisted"] == streams["legacy"]
        assert var_counts["hoisted"] == var_counts["legacy"]
        assert feasible["hoisted"] == feasible["legacy"]

    def test_pin_batch_equals_one_by_one_pinning(self):
        locked, view, key_inputs = _attack_view()
        streams, feasible = {}, {}
        for mode in ("one-by-one", "batched"):
            spy = SpySolver()
            with DipEngine(view, key_inputs, solver=spy) as engine:
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

    def test_hoisted_encode_does_not_regress(self, monkeypatch):
        """The regression this guards is a reintroduced per-pin
        re-simplify: the hoisted path builds one InputSpecializer per
        engine, where the legacy path builds one per pin (through
        ``simplified``).  Counted, not timed, so host load cannot flake
        it."""
        locked, view, key_inputs = _attack_view(kappa_s=3)
        built = []
        real_init = InputSpecializer.__init__

        def counting_init(self, netlist):
            built.append(netlist)
            real_init(self, netlist)

        monkeypatch.setattr(InputSpecializer, "__init__", counting_init)
        for mode, per_batch in (("legacy", [12, 12]), ("hoisted", [1, 0])):
            if mode == "legacy":
                monkeypatch.setenv("REPRO_LEGACY_PIN", "1")
            else:
                monkeypatch.delenv("REPRO_LEGACY_PIN", raising=False)
            with DipEngine(view, key_inputs) as engine:
                pins = _random_pins(engine, locked, n_pins=24)
                for expected, batch in zip(per_batch, (pins[:12], pins[12:])):
                    built.clear()
                    engine.pin_batch(batch)
                    assert len(built) == expected, mode
