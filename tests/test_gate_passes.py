"""Byte-identity differentials for the three per-gate netlist passes.

Each pass is checked against a test-local copy of the implementation it
replaced, on random netlists:

* ``InputSpecializer.fold`` against the per-op builder-method loop and
  the builder primitives it called (:class:`ReferenceBuilder`);
* ``Netlist.validate`` against the undriven-net check plus Kahn's sort;
* ``Netlist.gate_order``, the ``CombSimulator`` program and
  ``build_rcg`` against the orders and compile they replaced.
"""

from collections import Counter, deque
from collections.abc import KeysView
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import load_circuit
from repro.bench.iscas import load_embedded
from repro.core import TriLockConfig, build_rcg, lock
from repro.errors import CombinationalCycleError, NetlistError
from repro.netlist import GateOp, LogicBuilder, Netlist
from repro.netlist.builder import _COMMUTATIVE
from repro.netlist.transform import InputSpecializer
from repro.sim.comb import _STEPS, _compile

_OPS = list(GateOp)
_UNARY = {GateOp.NOT, GateOp.BUF}
_CONSTS = {GateOp.CONST0, GateOp.CONST1}


@st.composite
def netlists(draw, broken=False):
    """Random sequential netlists: every op, AND/OR families up to 7
    inputs (wider than the builder's ``max_arity``), repeated inputs,
    constant gates, BUF chains and double NOTs (a unary gate often reads
    the gate just before it), all in a random insertion order, so gates
    often precede their fan-in.

    ``broken`` may also draw self-loops, cycles and the undriven net
    ``ghost`` for gate inputs, flop Ds and outputs.
    """
    inputs = [f"pi{i}" for i in range(draw(st.integers(1, 3)))]
    qs = [f"q{i}" for i in range(draw(st.integers(0, 3)))]
    n_gates = draw(st.integers(0, 14))
    pool = inputs + qs
    gates = []
    for index in range(n_gates):
        net = f"g{index}"
        # Later gates (and the gate itself) make cycles.
        choices = (pool + [f"g{j}" for j in range(index, n_gates)]
                   + ["ghost"]) if broken else pool
        op = draw(st.sampled_from(_OPS))
        if op in _CONSTS:
            srcs = []
        elif op in _UNARY:
            srcs = [pool[-1] if draw(st.booleans())
                    else draw(st.sampled_from(choices))]
        else:
            srcs = draw(st.lists(st.sampled_from(choices), min_size=2,
                                 max_size=7))
        gates.append((net, op, srcs))
        pool.append(net)
    sinks = pool + ["ghost"] if broken else pool
    netlist = Netlist("random")
    for net in inputs:
        netlist.add_input(net)
    for net, op, srcs in draw(st.permutations(gates)):
        netlist.add_gate(net, op, srcs)
    for q in qs:
        netlist.add_flop(q, draw(st.sampled_from(sinks)), draw(st.booleans()))
    for net in draw(st.lists(st.sampled_from(sinks), min_size=1,
                             max_size=4)):
        netlist.add_output(net)
    return netlist


def _in_insertion_order(netlist):
    placed = set(netlist.inputs) | set(netlist.flops)
    for net, gate in netlist.gates.items():
        if not placed.issuperset(gate.inputs):
            return False
        placed.add(net)
    return True


# ----------------------------------------------------------------------
# The replaced implementations
# ----------------------------------------------------------------------
def _flatten(nets):
    if len(nets) == 1 and isinstance(nets[0], (list, tuple)):
        return list(nets[0])
    return list(nets)


class ReferenceBuilder(LogicBuilder):
    """The builder primitives the fold called before they took lists."""

    def _emit(self, op, inputs):
        key_inputs = (tuple(sorted(inputs)) if op in _COMMUTATIVE
                      else tuple(inputs))
        key = (op, key_inputs)
        found = self._cse.get(key)
        if found is not None:
            return found
        net = self.names.fresh(self.prefix)
        self.netlist.add_gate(net, op,
                              key_inputs if op in _COMMUTATIVE else inputs)
        self._cse[key] = net
        return net

    def not_(self, net):
        if self.is_const(net, 0):
            return self.const(1)
        if self.is_const(net, 1):
            return self.const(0)
        if self.netlist.is_gate(net):
            driver = self.netlist.gate(net)
            if driver.op is GateOp.NOT:
                return driver.inputs[0]
        return self._emit(GateOp.NOT, (net,))

    def and_(self, *nets):
        kept = []
        for net in _flatten(nets):
            if self.is_const(net, 0):
                return self.const(0)
            if not self.is_const(net, 1) and net not in kept:
                kept.append(net)
        if not kept:
            return self.const(1)
        if len(kept) == 1:
            return kept[0]
        return self._tree(GateOp.AND, kept)

    def or_(self, *nets):
        kept = []
        for net in _flatten(nets):
            if self.is_const(net, 1):
                return self.const(1)
            if not self.is_const(net, 0) and net not in kept:
                kept.append(net)
        if not kept:
            return self.const(0)
        if len(kept) == 1:
            return kept[0]
        return self._tree(GateOp.OR, kept)

    def xor_(self, *nets):
        invert = False
        kept = []
        for net in _flatten(nets):
            if self.is_const(net, 1):
                invert = not invert
            elif not self.is_const(net, 0):
                kept.append(net)
        if not kept:
            return self.const(1 if invert else 0)
        result = kept[0] if len(kept) == 1 else self._tree(GateOp.XOR, kept)
        return self.not_(result) if invert else result


_OP_BUILDERS = {
    GateOp.AND: lambda b, ins: b.and_(ins),
    GateOp.NAND: lambda b, ins: b.nand_(ins),
    GateOp.OR: lambda b, ins: b.or_(ins),
    GateOp.NOR: lambda b, ins: b.nor_(ins),
    GateOp.XOR: lambda b, ins: b.xor_(ins),
    GateOp.XNOR: lambda b, ins: b.not_(b.xor_(ins)),
    GateOp.NOT: lambda b, ins: b.not_(ins[0]),
    GateOp.BUF: lambda b, ins: ins[0],
}


def reference_fold(netlist, builder, mapping):
    roots = set(netlist.outputs)
    roots.update(flop.d for flop in netlist.flops.values())
    needed, _ = netlist.combinational_fanin(roots)
    for net in netlist.topo_order():
        if net not in needed:
            continue
        gate = netlist.gate(net)
        if gate.op is GateOp.CONST0:
            mapping[net] = builder.const(0)
        elif gate.op is GateOp.CONST1:
            mapping[net] = builder.const(1)
        else:
            mapped_inputs = [mapping[src] for src in gate.inputs]
            mapping[net] = _OP_BUILDERS[gate.op](builder, mapped_inputs)


def reference_validate(netlist):
    dangling = netlist.undriven_nets()
    if dangling:
        preview = ", ".join(sorted(dangling)[:8])
        raise NetlistError(f"undriven nets: {preview}")
    return reference_kahn(netlist)


def reference_kahn(netlist):
    gates = netlist.gates
    indegree = {}
    consumers = {}
    for net, gate in gates.items():
        count = 0
        for src in gate.inputs:
            if src in gates:
                count += 1
                consumers.setdefault(src, []).append(net)
        indegree[net] = count
    ready = deque(net for net, count in indegree.items() if count == 0)
    order = []
    while ready:
        net = ready.popleft()
        order.append(net)
        for sink in consumers.get(net, ()):
            indegree[sink] -= 1
            if indegree[sink] == 0:
                ready.append(sink)
    if len(order) != len(gates):
        stuck = [net for net, count in indegree.items() if count > 0]
        raise CombinationalCycleError(sorted(stuck))
    return order


def reference_fanin_first(netlist, gates):
    placed = set(netlist.inputs).union(netlist.flops)
    order = []
    for root in gates:
        stack = [root]
        while stack:
            net = stack[-1]
            if net in placed:
                stack.pop()
                continue
            missing = [src for src in gates[net].inputs if src not in placed]
            if missing:
                stack.extend(missing)
            else:
                placed.add(stack.pop())
                order.append((net, gates[net]))
    return order


def reference_compile(netlist, keep):
    gates = netlist.gates
    compiled = _reference_compile_in(gates.items(), gates, netlist, keep)
    if compiled is None:
        compiled = _reference_compile_in(
            reference_fanin_first(netlist, gates), gates, netlist, keep)
    return compiled


def _reference_compile_in(order, gates, netlist, keep):
    slot_of = {net: slot
               for slot, net in enumerate([*netlist.inputs, *netlist.flops])}
    pinned = set(slot_of).union(netlist.outputs,
                                gates if keep is None else keep)
    reads = dict(Counter(chain.from_iterable(gate.inputs
                                             for gate in gates.values())))
    dead = gates.keys() - reads.keys() - pinned
    free, program, n_slots = [], [], len(slot_of)
    for net, gate in order:
        if free:
            dst = free.pop()
        else:
            dst, n_slots = n_slots, n_slots + 1
        ins = []
        for src in gate.inputs:
            try:
                slot = slot_of[src]
            except KeyError:
                return None
            ins.append(slot)
            left = reads[src] - 1
            reads[src] = left
            if not left and src not in pinned:
                free.append(slot)
        first, last = _STEPS[gate.op]
        acc = ins[0] if ins else 0
        for src in ins[1:-1]:
            program.append((first, dst, acc, src))
            acc = dst
        program.append((last, dst, acc, ins[-1] if len(ins) > 1 else 0))
        slot_of[net] = dst
        if dead and net in dead:
            free.append(dst)
    return program, slot_of, n_slots


def reference_rcg_preds(netlist):
    flops = netlist.flops
    gates = netlist.gates
    support = {q: 1 << i for i, q in enumerate(flops)}
    for net in netlist.topo_order():
        acc = 0
        for src in gates[net].inputs:
            acc |= support.get(src, 0)
        support[net] = acc
    return [support.get(flop.d, 0) for flop in flops.values()]


# ----------------------------------------------------------------------
# Fold
# ----------------------------------------------------------------------
def _replay(netlist, builder_class, fold, stimulus, max_arity):
    """Fold ``netlist`` cycle by cycle through one builder, as the BMC
    check and the DIP pins do; each stimulus bit is a constant (0/1) or
    a free input (None). Returns the problem's gates in insertion order,
    its inputs and every cycle's mapping."""
    problem = Netlist("problem")
    builder = builder_class(problem, prefix="f", max_arity=max_arity)
    flops = list(netlist.flops.items())
    state = {q: builder.const(flop.init) for q, flop in flops}
    mappings = []
    for cycle, bits in enumerate(stimulus):
        mapping = {net: problem.add_input(f"{net}@{cycle}") if bit is None
                   else builder.const(bit)
                   for net, bit in zip(netlist.inputs, bits)}
        mapping.update(state)
        fold(netlist, builder, mapping)
        state = {q: mapping[flop.d] for q, flop in flops}
        mappings.append(mapping)
    return list(problem.gates.items()), problem.inputs, mappings


class TestFoldDifferential:
    @settings(max_examples=150, deadline=None)
    @given(netlist=netlists(), data=st.data())
    def test_fold_builds_the_reference_netlist(self, netlist, data):
        netlist.validate()
        n_cycles = data.draw(st.integers(1, 3))
        stimulus = [[data.draw(st.sampled_from([None, 0, 1]))
                     for _ in netlist.inputs] for _ in range(n_cycles)]
        max_arity = data.draw(st.integers(2, 4))
        folder = InputSpecializer(netlist)
        actual = _replay(netlist, LogicBuilder,
                         lambda _n, b, m: folder.fold(b, m),
                         stimulus, max_arity)
        expected = _replay(netlist, ReferenceBuilder, reference_fold,
                           stimulus, max_arity)
        assert actual == expected


# ----------------------------------------------------------------------
# Validation and gate order
# ----------------------------------------------------------------------
def _outcome(check, netlist):
    try:
        check(netlist)
    except NetlistError as error:
        return type(error), str(error), getattr(error, "nets", None)
    return None


def _forward_reference(cyclic):
    """``x`` reads ``y``, inserted after it; ``y`` reads ``x`` back when
    ``cyclic``."""
    netlist = Netlist("forward")
    netlist.add_input("a")
    netlist.add_gate("x", GateOp.AND, ("a", "y"))
    netlist.add_gate("y", GateOp.OR, ("x" if cyclic else "a", "a"))
    netlist.add_gate("z", GateOp.NOT, ("y",))
    netlist.add_output("z")
    return netlist


class TestValidateDifferential:
    @settings(max_examples=300, deadline=None)
    @given(netlist=netlists(broken=True))
    @example(netlist=_forward_reference(cyclic=True))
    def test_same_verdict_and_message(self, netlist):
        expected = _outcome(reference_validate, netlist.copy())
        assert _outcome(Netlist.validate, netlist) == expected
        if expected is None:  # a second call answers from the flag
            assert netlist.validate() is netlist

    def test_validate_never_builds_the_kahn_order(self, monkeypatch):
        """On valid netlists, in insertion order or not, ``validate``
        never runs Kahn's sort: the one insertion-order pass or the
        fan-in walk proves them."""
        netlists = [load_embedded("s27"), _forward_reference(cyclic=False),
                    lock(load_circuit("suite:b12?scale=0.08&seed=0"),
                         TriLockConfig(kappa_s=1, s_pairs=10)).netlist]
        assert not _in_insertion_order(netlists[1])
        assert not _in_insertion_order(netlists[2])

        def kahn(netlist):
            raise AssertionError("validate() ran Kahn's sort")

        monkeypatch.setattr(Netlist, "_kahn", kahn)
        for netlist in netlists:
            dup = netlist.copy()
            dup.add_output(dup.outputs[0])  # forget the validated flag
            assert dup.validate() is dup

    def test_a_cycle_is_reported_like_kahns_sort(self):
        netlist = _forward_reference(cyclic=True)
        with pytest.raises(CombinationalCycleError) as error:
            netlist.validate()
        assert error.value.nets == ("x", "y", "z")


class TestGateOrder:
    @settings(max_examples=150, deadline=None)
    @given(netlist=netlists())
    def test_fanin_first_and_insertion_order_when_topological(self, netlist):
        netlist.validate()
        gates = netlist.gates
        order = list(netlist.gate_order())
        assert sorted(order) == sorted(gates)
        position = {net: index for index, net in enumerate(order)}
        for net in order:
            assert all(position[src] < position[net]
                       for src in gates[net].inputs if src in gates)
        if _in_insertion_order(netlist):
            assert order == list(gates)
        assert order == [net for net, _ in
                         reference_fanin_first(netlist, gates)]

    def test_topological_insertion_order_is_not_copied(self):
        built = Netlist("built")
        built.add_input("a")
        built.add_gate("n", GateOp.NOT, ("a",))
        built.add_gate("m", GateOp.AND, ("a", "n"))
        assert isinstance(built.gate_order(), KeysView)
        dup = built.copy()
        dup.add_gate("k", GateOp.NOT, ("m",))
        assert list(dup.gate_order()) == ["n", "m", "k"]
        assert list(built.gate_order()) == ["n", "m"]

    def test_undriven_gate_input_raises(self):
        netlist = Netlist("dangling")
        netlist.add_input("a")
        netlist.add_gate("x", GateOp.AND, ("a", "y"))
        netlist.add_gate("y", GateOp.NOT, ("ghost",))
        with pytest.raises(NetlistError, match="undriven nets: ghost"):
            netlist.gate_order()


class TestCompiledProgram:
    @settings(max_examples=150, deadline=None)
    @given(netlist=netlists(), data=st.data())
    def test_program_equals_the_two_step_compile(self, netlist, data):
        netlist.validate()
        keep = data.draw(st.one_of(
            st.none(), st.lists(st.sampled_from(sorted(netlist.nets())),
                                max_size=4)))
        sources = [*netlist.inputs, *netlist.flops]
        assert _compile(netlist, sources, keep) == \
            reference_compile(netlist, keep)


class TestBuildRcg:
    @pytest.mark.parametrize("s_pairs", [10, 30])
    def test_equals_the_kahn_order_build(self, s_pairs):
        locked = lock(load_circuit("suite:b12?scale=1.0&seed=0"),
                      TriLockConfig(kappa_s=2, kappa_f=1, alpha=0.6,
                                    s_pairs=s_pairs, seed=0))
        netlist = locked.netlist
        assert locked.reencoded_pairs
        # Re-encoding re-points gates, so this is the fan-in walk's order.
        assert isinstance(netlist.gate_order(), list)
        graph = build_rcg(netlist)
        assert graph.names == list(netlist.flops)
        assert graph.preds == reference_rcg_preds(netlist)
