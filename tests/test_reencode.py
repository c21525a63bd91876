"""Tests for state re-encoding (Algorithm 1 + encoder/decoder)."""

import itertools
import os
import subprocess
import sys

import pytest

from repro.attacks import bounded_equivalence
from repro.bench.synth import generate_circuit
from repro.core import (
    KeySequence,
    RegisterGraph,
    TriLockConfig,
    build_rcg,
    insert_encoder_decoder,
    lock,
)
from repro.core.rcg import SccPartition, members
from repro.core.reencode import CODEC_VARIANTS
from repro.errors import LockingError
from repro.netlist import GateOp, LogicBuilder, Netlist
from repro.sim import SequentialSimulator, make_rng, random_vectors

from tests.conftest import _mid_circuit
from tests.util import reference_eval


class TestEncoderDecoderFixedPoint:
    def test_dec_enc_identity_exhaustive(self):
        """dec(enc(a)) = a for all 2-bit a — the paper's fixed-point
        condition, checked on real gates."""
        netlist = Netlist("codec")
        s1 = netlist.add_input("s1")
        s2 = netlist.add_input("s2")
        netlist.add_flop("r1", "s1")
        netlist.add_flop("r2", "s2")
        netlist.add_output("r1")
        netlist.add_output("r2")
        builder = LogicBuilder(netlist, prefix="re")
        regs = insert_encoder_decoder(builder, "r1", "r2")
        netlist.validate()
        assert len(regs) == 4

        sim = SequentialSimulator(netlist)
        for bits in itertools.product([False, True], repeat=2):
            trace = sim.run_vectors([bits, (False, False)])
            # Cycle 1 outputs = decoded state captured at cycle 0.
            assert trace[1] == bits

    def test_reset_state_decodes_to_zero(self):
        netlist = Netlist("codec0")
        netlist.add_input("s1")
        netlist.add_input("s2")
        netlist.add_flop("r1", "s1")
        netlist.add_flop("r2", "s2")
        netlist.add_output("r1")
        netlist.add_output("r2")
        builder = LogicBuilder(netlist, prefix="re")
        insert_encoder_decoder(builder, "r1", "r2")
        values = reference_eval(
            netlist, {"s1": False, "s2": False,
                      **{q: False for q in netlist.flops}})
        assert values["r1"] is False and values["r2"] is False

    def test_nonzero_reset_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_flop("r1", "a", init=True)
        netlist.add_flop("r2", "a")
        netlist.add_output("r1")
        builder = LogicBuilder(netlist)
        with pytest.raises(LockingError):
            insert_encoder_decoder(builder, "r1", "r2")


class TestReencodedLockedCircuit:
    def test_function_preserved_for_all_key_classes(self):
        base = _mid_circuit()
        plain = lock(base, TriLockConfig(kappa_s=2, kappa_f=1, alpha=0.6,
                                         s_pairs=0, seed=5))
        recoded = lock(base, TriLockConfig(kappa_s=2, kappa_f=1, alpha=0.6,
                                           s_pairs=8, seed=5))
        assert plain.key == recoded.key
        rng = make_rng(17)
        width = plain.width
        kappa = plain.config.kappa
        keys = [plain.key] + [
            KeySequence.from_int(rng.randrange(1 << (kappa * width)),
                                 kappa, width)
            for _ in range(8)
        ]
        for key in keys:
            vectors = random_vectors(rng, width, 9)
            a = SequentialSimulator(plain.netlist).run_vectors(
                plain.stimulus_with_key(key, vectors))
            b = SequentialSimulator(recoded.netlist).run_vectors(
                recoded.stimulus_with_key(key, vectors))
            assert a == b, str(key)

    def test_metadata_updates(self, locked_mid_reencoded):
        locked = locked_mid_reencoded
        assert locked.reencoded_pairs
        assert len(locked.encoded_registers) == \
            4 * len(locked.reencoded_pairs)
        provenance = locked.register_provenance()
        for q in locked.encoded_registers:
            assert provenance[q] == "encoded"
        # Replaced registers no longer exist in the netlist.
        for r1, r2 in locked.reencoded_pairs:
            assert not locked.netlist.is_flop(r1)
            assert not locked.netlist.is_flop(r2)
            # ...but their nets are still driven (decoder aliases).
            assert locked.netlist.is_gate(r1)
            assert locked.netlist.is_gate(r2)

    def test_pairs_mix_original_and_extra_first(self, locked_mid_reencoded):
        locked = locked_mid_reencoded
        r1, r2 = locked.reencoded_pairs[0]
        assert r1 in locked.original_registers
        assert r2 in locked.extra_registers

    def test_sccs_merge(self, locked_mid, locked_mid_reencoded):
        def mixed_fraction(locked):
            provenance = locked.register_provenance()
            graph = build_rcg(locked.netlist, provenance)
            in_mixed = 0
            for component in graph.cyclic_sccs():
                kinds = {provenance[n] for n in graph.names_of(component)}
                if len(kinds) > 1 or "encoded" in kinds:
                    in_mixed += component.bit_count()
            return in_mixed / locked.netlist.num_flops()

        assert mixed_fraction(locked_mid) == 0.0
        assert mixed_fraction(locked_mid_reencoded) > 0.8

    def test_stops_when_nothing_left(self):
        base = _mid_circuit()
        modest = lock(base, TriLockConfig(kappa_s=1, kappa_f=1, alpha=0.5,
                                          s_pairs=500, seed=6))
        # Far fewer than 500 pairs exist; the loop must stop gracefully.
        assert len(modest.reencoded_pairs) < 60
        modest.netlist.validate()


class TestIncrementalScc:
    @pytest.mark.parametrize("variant", CODEC_VARIANTS)
    @pytest.mark.parametrize("circuit_seed,s_pairs", [(0, 30), (1, 12),
                                                      (2, 5)])
    def test_maintained_sccs_equal_fresh_decomposition(
            self, monkeypatch, variant, circuit_seed, s_pairs):
        """After every Algorithm 1 merge the maintained SCC list, with
        its cached weights, max degrees and classes, equals a from-scratch
        decomposition of the merged graph."""
        merge = SccPartition.merge
        merges = []

        def checked(self, *args):
            node = merge(self, *args)
            graph = self.graph
            assert self.sccs() == graph.sccs()
            for bits, weight, max_degree, kind in self.components.values():
                nodes = list(members(bits))
                assert weight == sum(graph.weights[i] for i in nodes)
                assert max_degree == max(graph.degrees[i] for i in nodes)
                assert kind == graph.classify(bits)
            merges.append(node)
            return node

        monkeypatch.setattr(SccPartition, "merge", checked)
        base = generate_circuit(f"inc{circuit_seed}", n_inputs=4,
                                n_outputs=3, n_flops=12, n_gates=150,
                                seed=circuit_seed)
        locked = lock(base, TriLockConfig(
            kappa_s=2, kappa_f=1, alpha=0.6, s_pairs=s_pairs, seed=1,
            codec_variants=(variant,)))
        assert merges and len(merges) == len(locked.reencoded_pairs)

    def test_one_full_decomposition_per_call(self, monkeypatch):
        calls = []
        sccs = RegisterGraph.sccs

        def counted(self):
            calls.append(self)
            return sccs(self)

        monkeypatch.setattr(RegisterGraph, "sccs", counted)
        locked = lock(_mid_circuit(), TriLockConfig(
            kappa_s=2, kappa_f=1, alpha=0.6, s_pairs=30, seed=5))
        assert len(locked.reencoded_pairs) >= 5
        assert len(calls) == 1


def nx_algorithm1(locked, s_pairs):
    """Algorithm 1 with a full networkx SCC pass per iteration (the
    reference): largest by (weight, max degree), ties to the earliest
    register; zero-reset physical registers only."""
    import networkx as nx

    netlist = locked.netlist
    order = {q: i for i, q in enumerate(netlist.flops)}
    kinds = locked.register_provenance()
    graph = nx.DiGraph()
    for q, flop in netlist.flops.items():
        graph.add_node(q, weight=1, kind=kinds.get(q, "original"),
                       candidate=not flop.init)
        graph.add_edges_from((src, q)
                             for src in netlist.register_support(flop.d))
    pairs = []
    for iteration in range(s_pairs):
        buckets = {"O": [], "E": [], "M": []}
        for comp in nx.strongly_connected_components(graph):
            if any(graph.nodes[q]["candidate"] for q in comp):
                present = {graph.nodes[q]["kind"] for q in comp}
                kind = ("M" if "encoded" in present or len(present) > 1
                        else "O" if present == {"original"} else "E")
                buckets[kind].append(comp)

        def largest(comps):
            return max(comps, key=lambda c: (
                sum(graph.nodes[q]["weight"] for q in c),
                max(graph.degree(q) for q in c),
                -min(order.get(q, len(order) + 1) for q in c)))

        if buckets["O"] and buckets["E"]:
            chosen = largest(buckets["O"]), largest(buckets["E"])
        elif (buckets["O"] or buckets["E"]) and buckets["M"]:
            chosen = largest(buckets["O"] or buckets["E"]), \
                largest(buckets["M"])
        else:
            break
        r1, r2 = (max((q for q in comp if graph.nodes[q]["candidate"]),
                      key=lambda q: (graph.degree(q), q))
                  for comp in chosen)
        merged = f"enc{iteration}"
        preds = {merged if p in (r1, r2) else p
                 for p, _ in graph.in_edges((r1, r2))}
        succs = {merged if s in (r1, r2) else s
                 for _, s in graph.out_edges((r1, r2))}
        graph.remove_nodes_from((r1, r2))
        graph.add_node(merged, weight=4, kind="encoded", candidate=False)
        graph.add_edges_from((p, merged) for p in preds)
        graph.add_edges_from((merged, s) for s in succs)
        pairs.append((r1, r2))
    return tuple(pairs)


class TestAgainstRerunReference:
    @pytest.mark.parametrize("circuit_seed", range(4))
    def test_pairs_equal_networkx_rerun(self, circuit_seed):
        base = generate_circuit(f"ref{circuit_seed}", n_inputs=4,
                                n_outputs=3, n_flops=12, n_gates=150,
                                seed=circuit_seed)
        config = dict(kappa_s=2, kappa_f=1, alpha=0.6, seed=1)
        plain = lock(base, TriLockConfig(s_pairs=0, **config))
        recoded = lock(base, TriLockConfig(s_pairs=30, **config))
        assert recoded.reencoded_pairs == nx_algorithm1(plain, 30)


def with_resets(netlist, set_registers):
    """Copy of ``netlist`` whose ``set_registers`` reset to 1."""
    dup = Netlist(netlist.name)
    for net in netlist.inputs:
        dup.add_input(net)
    for net, gate in netlist.gates.items():
        dup.add_gate(net, gate.op, gate.inputs)
    for q, flop in netlist.flops.items():
        dup.add_flop(q, flop.d, q in set_registers)
    for net in netlist.outputs:
        dup.add_output(net)
    return dup.validate()


class TestSetRegisters:
    def test_highest_degree_registers_reset_to_one(self):
        """Only zero-reset registers are re-encoding candidates: locking
        used to fail once Algorithm 1 picked a register resetting to 1."""
        base = generate_circuit("t", 4, 3, 8, 120)
        graph = build_rcg(base)
        by_degree = sorted(base.flops,
                           key=lambda q: -graph.degrees[graph.index[q]])
        circuit = with_resets(base, set(by_degree[:4]))
        config = dict(kappa_s=1, kappa_f=1, alpha=0.6, seed=0)
        plain = lock(circuit, TriLockConfig(s_pairs=0, **config))
        locked = lock(circuit, TriLockConfig(s_pairs=4, **config))
        assert len(locked.reencoded_pairs) == 4
        for pair in locked.reencoded_pairs:
            for q in pair:
                assert plain.netlist.flop(q).init is False
        assert bounded_equivalence(
            locked.original, locked.netlist,
            depth=locked.config.kappa_s + 4,
            prefix_vectors=locked.key_vectors()).equivalent

    def test_all_set_originals_leave_nothing_to_pair(self):
        base = generate_circuit("t", 4, 3, 8, 120)
        circuit = with_resets(base, set(base.flops))
        locked = lock(circuit, TriLockConfig(kappa_s=1, s_pairs=4, seed=0))
        assert locked.reencoded_pairs == ()


#: Locks a spec under the interpreter's hash seed; prints the picked
#: pairs and the locked netlist's .bench text.
_LOCK_SCRIPT = """
import json, sys
from repro.api.circuits import load_circuit
from repro.core import lock
from repro.netlist import dumps_bench
locked = lock(load_circuit(sys.argv[1]), kappa_s=1, kappa_f=1, alpha=0.6,
              s_pairs=30, seed=0)
print(json.dumps([locked.reencoded_pairs, dumps_bench(locked.netlist)]))
"""

#: Runs perfbench's dip-loop b12 cell and prints the solver's totals.
_SOLVER_SCRIPT = """
import json
from repro.api import matrix_cells
from repro.api.cells import matrix_cell
from repro.sat.solver import Solver
totals = dict.fromkeys(("conflicts", "decisions", "propagations"), 0)
solve = Solver.solve
def counted(self, *args, **kwargs):
    before = self.stats()
    try:
        return solve(self, *args, **kwargs)
    finally:
        after = self.stats()
        for key in totals:
            totals[key] += after[key] - before[key]
Solver.solve = counted
(spec,) = matrix_cells(
    ["suite:b12?scale=0.08&seed=0"],
    ["trilock?kappa_s=1&kappa_f=1&alpha=0.6&s_pairs=10"], ["seq-sat"],
    seed=0)
value = matrix_cell(**spec.kwargs())
assert value["success"] and value["metrics"]["n_dips"] == 32
print(json.dumps(totals))
"""


def _run_under_hash_seeds(script, *args):
    """``script``'s stdout under three hash seeds (0 and 1 picked
    different b12 pairs at S=10 before the tie-break was explicit)."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for hashseed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root])
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], env=env, cwd=repo_root,
            capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    return outputs


class TestHashSeedIndependence:
    """Algorithm 1 used to break SCC ties in networkx emission order,
    which follows set iteration order: one spec locked to different
    netlists under different PYTHONHASHSEEDs."""

    @pytest.mark.parametrize("circuit", [
        "suite:b12?scale=0.08&seed=0",
        "synth?gates=3000&ffs=24&pis=6&pos=4&seed=0",
    ])
    def test_lock_is_identical(self, circuit):
        outputs = _run_under_hash_seeds(_LOCK_SCRIPT, circuit)
        assert len(set(outputs)) == 1

    def test_solver_work_is_identical(self):
        outputs = _run_under_hash_seeds(_SOLVER_SCRIPT)
        assert len(set(outputs)) == 1
