"""Tests for register-connection-graph construction, against networkx
as the reference."""

import os
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import scc_report, separable_registers
from repro.core import RegisterGraph, build_rcg, lock_sink_cluster
from repro.core.rcg import SccPartition, members
from repro.netlist import GateOp, Netlist

from tests.conftest import _locked_mid, _locked_tiny, _mid_circuit


def ring_netlist(n=4):
    """n flops in a ring plus one isolated flop."""
    netlist = Netlist("ring")
    netlist.add_input("a")
    for k in range(n):
        netlist.add_flop(f"q{k}", f"d{k}")
    for k in range(n):
        netlist.add_gate(f"d{k}", GateOp.XOR, (f"q{(k + 1) % n}", "a"))
    netlist.add_flop("lone", "lone_d")
    netlist.add_gate("lone_d", GateOp.NOT, ("a",))
    netlist.add_output("q0")
    return netlist.validate()


class TestSupports:
    def test_ring_supports(self):
        graph = build_rcg(ring_netlist(3))
        assert graph.fanin("q0") == {"q1"}
        assert graph.fanin("q2") == {"q0"}
        assert graph.fanin("lone") == frozenset()

    def test_deep_cone_union(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_flop("q0", "mix")
        netlist.add_flop("q1", "a")
        netlist.add_flop("q2", "a")
        netlist.add_gate("stage1", GateOp.AND, ("q1", "a"))
        netlist.add_gate("mix", GateOp.OR, ("stage1", "q2"))
        netlist.add_output("q0")
        graph = build_rcg(netlist.validate())
        assert graph.fanin("q0") == {"q1", "q2"}

    def test_self_loop(self):
        netlist = Netlist()
        netlist.add_flop("q", "d")
        netlist.add_gate("d", GateOp.NOT, ("q",))
        netlist.add_output("q")
        assert build_rcg(netlist).fanin("q") == {"q"}


class TestGraph:
    def test_ring_is_one_scc(self):
        graph = build_rcg(ring_netlist(4))
        components = graph.cyclic_sccs()
        assert len(components) == 1
        assert graph.names_of(components[0]) == {"q0", "q1", "q2", "q3"}

    def test_lone_register_not_cyclic(self):
        graph = build_rcg(ring_netlist(4))
        assert "lone" in graph.names
        assert all("lone" not in graph.names_of(c)
                   for c in graph.cyclic_sccs())

    def test_self_loop_counts_as_cyclic(self):
        netlist = Netlist()
        netlist.add_flop("q", "d")
        netlist.add_gate("d", GateOp.NOT, ("q",))
        netlist.add_output("q")
        graph = build_rcg(netlist)
        assert [graph.names_of(c) for c in graph.cyclic_sccs()] == [{"q"}]

    def test_provenance_attributes(self):
        netlist = ring_netlist(2)
        graph = build_rcg(netlist, provenance={"q0": "extra"})
        assert graph.classify(1 << graph.index["q0"]) == "E"
        assert graph.classify(1 << graph.index["q1"]) == "O"

    def test_edge_direction(self):
        graph = build_rcg(ring_netlist(3))
        # q0 reads q1 -> edge q1 -> q0.
        assert "q1" in graph.fanin("q0")
        assert "q0" not in graph.fanin("q1")

    def test_matches_naive_per_flop_traversal(self, locked_mid):
        netlist = locked_mid.netlist
        graph = build_rcg(netlist)
        for q, flop in list(netlist.flops.items())[:10]:
            assert graph.fanin(q) == netlist.register_support(flop.d)


# ----------------------------------------------------------------------
# networkx as the reference (a test-only dependency)
# ----------------------------------------------------------------------
@st.composite
def digraphs(draw):
    """Edge lists over ``n`` nodes: self-loops and isolated nodes allowed."""
    n = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    return n, edges


def graph_from_edges(n, edges):
    preds = [0] * n
    for a, b in edges:
        preds[b] |= 1 << a
    return RegisterGraph([f"r{i}" for i in range(n)], preds)


class TestSccAgainstNetworkx:
    @given(digraphs())
    @settings(max_examples=150, deadline=None)
    def test_partition_equals_networkx(self, case):
        n, edges = case
        graph = graph_from_edges(n, edges)
        reference = nx.DiGraph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        expected = {frozenset(c)
                    for c in nx.strongly_connected_components(reference)}
        components = graph.sccs()
        assert {frozenset(members(c)) for c in components} == expected
        # Ordered by earliest node: the explicit tie-break order.
        firsts = [min(members(c)) for c in components]
        assert firsts == sorted(firsts)
        cyclic = {frozenset(members(c)) for c in graph.cyclic_sccs()}
        assert cyclic == {c for c in expected
                          if len(c) > 1 or reference.has_edge(*c, *c)}

    @given(digraphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_closures_equal_networkx(self, case, data):
        n, edges = case
        graph = graph_from_edges(n, edges)
        reference = nx.DiGraph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        node = data.draw(st.integers(0, n - 1))
        forward = set(members(graph.forward(1 << node)))
        backward = set(members(graph.backward(1 << node)))
        assert forward == nx.descendants(reference, node) | {node}
        assert backward == nx.ancestors(reference, node) | {node}


class TestPartitionAgainstNetworkx:
    @given(digraphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_merges_track_networkx(self, case, data):
        """Merge random node pairs; after each merge the maintained SCCs
        equal networkx's on the same contraction and Tarjan's from
        scratch, with fresh weights, max degrees and classes."""
        n, edges = case
        graph = graph_from_edges(n, edges)
        sccs = SccPartition(graph)
        reference = nx.DiGraph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        while reference.number_of_nodes() >= 2:
            a, b = data.draw(st.lists(st.sampled_from(sorted(reference)),
                                      min_size=2, max_size=2, unique=True))
            node = sccs.merge(a, b, f"m{a}_{b}", 2)
            pair = {a, b}
            reference.add_node(node)
            for p, _ in reference.in_edges(pair):
                reference.add_edge(node if p in pair else p, node)
            for _, s in reference.out_edges(pair):
                reference.add_edge(node, node if s in pair else s)
            reference.remove_nodes_from(pair)
            expected = {frozenset(c) for c in
                        nx.strongly_connected_components(reference)}
            assert {frozenset(members(c)) for c in sccs.sccs()} == expected
            assert sccs.sccs() == graph.sccs()
            for key, (bits, weight, max_degree, kind) in \
                    sccs.components.items():
                nodes = list(members(bits))
                assert key == nodes[0]
                assert weight == sum(graph.weights[i] for i in nodes)
                assert max_degree == max(reference.degree(i) for i in nodes)
                assert kind == graph.classify(bits)
            if not data.draw(st.booleans()):
                break


def nx_rcg(netlist, provenance=None):
    graph = nx.DiGraph()
    for q, flop in netlist.flops.items():
        graph.add_node(q, kind=(provenance or {}).get(q, "original"))
        for src in netlist.register_support(flop.d):
            graph.add_edge(src, q)
    return graph


def nx_scc_report(locked, include_trivial=False):
    """Table II census from networkx: ``(O, E, M, PM, components)``."""
    graph = nx_rcg(locked.netlist, locked.register_provenance())
    order = {q: i for i, q in enumerate(locked.netlist.flops)}
    counts, in_m, details = {"O": 0, "E": 0, "M": 0}, 0, []
    for comp in sorted(nx.strongly_connected_components(graph),
                       key=lambda c: min(order[q] for q in c)):
        q = next(iter(comp))
        if not (include_trivial or len(comp) > 1 or graph.has_edge(q, q)):
            continue
        kinds = {graph.nodes[r]["kind"] for r in comp}
        kind = ("M" if "encoded" in kinds or len(kinds) > 1
                else "O" if kinds == {"original"} else "E")
        counts[kind] += 1
        in_m += len(comp) if kind == "M" else 0
        details.append((kind, len(comp)))
    pm = 100.0 * in_m / len(order) if order else 0.0
    return (counts["O"], counts["E"], counts["M"], pm,
            sorted(details, key=lambda item: -item[1]))


def nx_separable(netlist, anchor_rank):
    graph = nx_rcg(netlist)
    order = {q: i for i, q in enumerate(netlist.flops)}
    anchors = sorted(
        (c for c in nx.strongly_connected_components(graph)
         if len(c) > 1 or graph.has_edge(next(iter(c)), next(iter(c)))),
        key=lambda c: (-len(c), min(order[q] for q in c)))
    if anchor_rank >= len(anchors):
        return []
    seed = next(iter(anchors[anchor_rank]))
    forward = nx.descendants(graph, seed) | anchors[anchor_rank]
    backward = nx.ancestors(graph, seed) | anchors[anchor_rank]
    return [q for q in netlist.flops if q not in forward and q in backward]


def existing_locks():
    return [
        _locked_tiny(),
        _locked_tiny(kappa_s=1, s_pairs=4),
        _locked_mid(),
        _locked_mid(s_pairs=8),
        _locked_mid(kappa_s=2, s_pairs=10, seed=5),
        lock_sink_cluster(_mid_circuit(), kappa=2, sink_size=5, seed=4),
    ]


class TestCensusAgainstNetworkx:
    @pytest.mark.parametrize("index", range(6))
    @pytest.mark.parametrize("include_trivial", [False, True])
    def test_scc_report_rows(self, index, include_trivial):
        locked = existing_locks()[index]
        report = scc_report(locked, include_trivial=include_trivial)
        assert (report.o_sccs, report.e_sccs, report.m_sccs,
                report.pm_percent, report.components) == \
            nx_scc_report(locked, include_trivial)

    @pytest.mark.parametrize("index", range(6))
    def test_separable_sets(self, index):
        netlist = existing_locks()[index].netlist
        for rank in range(4):
            assert separable_registers(netlist, anchor_rank=rank) == \
                nx_separable(netlist, rank)


def test_networkx_stays_off_the_import_path():
    """Only STG analysis uses networkx, and imports it when called."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys, repro.api, repro.experiments.fig7_fc, "
            "repro.experiments.table2_removal; "
            "print('networkx' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.join(repo_root, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=repo_root, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"
