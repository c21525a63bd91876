"""Unit tests for the Netlist IR: construction rules and structural queries."""

import pytest

from repro.errors import CombinationalCycleError, NetlistError
from repro.netlist import GateOp, Netlist

pytestmark = pytest.mark.smoke


def small_seq_netlist():
    """2-bit toggle/carry counter with an AND output."""
    netlist = Netlist("counter2")
    netlist.add_input("en")
    netlist.add_flop("q0", "d0")
    netlist.add_flop("q1", "d1")
    netlist.add_gate("d0", GateOp.XOR, ("q0", "en"))
    netlist.add_gate("carry", GateOp.AND, ("q0", "en"))
    netlist.add_gate("d1", GateOp.XOR, ("q1", "carry"))
    netlist.add_gate("both", GateOp.AND, ("q0", "q1"))
    netlist.add_output("both")
    return netlist.validate()


class TestConstruction:
    def test_single_driver_rule(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_gate("a", GateOp.NOT, ("a",))
        with pytest.raises(NetlistError):
            netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_flop("a", "a")

    def test_validate_flags_undriven_nets(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("g", GateOp.AND, ("a", "ghost"))
        netlist.add_output("g")
        with pytest.raises(NetlistError, match="ghost"):
            netlist.validate()

    def test_output_may_be_added_before_driver(self):
        netlist = Netlist()
        netlist.add_output("late")
        netlist.add_input("a")
        netlist.add_gate("late", GateOp.NOT, ("a",))
        netlist.validate()

    def test_stats(self):
        stats = small_seq_netlist().stats()
        assert stats == {
            "name": "counter2", "inputs": 1, "outputs": 1, "flops": 2, "gates": 4,
        }

    def test_replace_gate_and_flop_d(self):
        netlist = small_seq_netlist()
        netlist.replace_gate("both", GateOp.OR, ("q0", "q1"))
        assert netlist.gate("both").op is GateOp.OR
        netlist.replace_flop_d("q1", "carry")
        assert netlist.flop("q1").d == "carry"
        with pytest.raises(NetlistError):
            netlist.replace_gate("q0", GateOp.NOT, ("q1",))
        with pytest.raises(NetlistError):
            netlist.replace_flop_d("both", "q0")

    def test_remove_gate_and_flop(self):
        netlist = small_seq_netlist()
        netlist.remove_gate("both")
        assert not netlist.is_gate("both")
        netlist.remove_flop("q1")
        assert not netlist.is_flop("q1")
        with pytest.raises(NetlistError):
            netlist.remove_gate("nope")


class TestTopoOrder:
    def test_order_respects_dependencies(self):
        netlist = small_seq_netlist()
        order = netlist.topo_order()
        assert order.index("carry") < order.index("d1")
        assert set(order) == {"d0", "d1", "carry", "both"}

    def test_cycle_detection(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("x", GateOp.AND, ("a", "y"))
        netlist.add_gate("y", GateOp.OR, ("x", "a"))
        with pytest.raises(CombinationalCycleError):
            netlist.topo_order()

    def test_feedback_through_flop_is_not_a_cycle(self):
        netlist = Netlist()
        netlist.add_flop("q", "d")
        netlist.add_gate("d", GateOp.NOT, ("q",))
        netlist.add_output("q")
        netlist.validate()

    def test_cache_invalidation_on_mutation(self):
        netlist = small_seq_netlist()
        first = netlist.topo_order()
        netlist.add_gate("extra", GateOp.NOT, ("both",))
        assert "extra" in netlist.topo_order()
        assert "extra" not in first


#: Each mutator, applied to ``small_seq_netlist()``, leaves a dangling
#: net or a combinational cycle behind.
BREAKING_MUTATIONS = {
    "add_gate": lambda n: n.add_gate("g", GateOp.NOT, ("ghost",)),
    "replace_gate": lambda n: n.replace_gate("carry", GateOp.AND,
                                             ("d1", "en")),
    "add_flop": lambda n: n.add_flop("q2", "ghost"),
    "replace_flop_d": lambda n: n.replace_flop_d("q0", "ghost"),
    "remove_flop": lambda n: n.remove_flop("q1"),
    "remove_gate": lambda n: n.remove_gate("carry"),
    "add_output": lambda n: n.add_output("ghost"),
    "set_output": lambda n: n.set_output(0, "ghost"),
}


class TestValidatedState:
    @pytest.mark.parametrize("mutator", sorted(BREAKING_MUTATIONS))
    @pytest.mark.parametrize("copied", [False, True])
    def test_mutation_after_validate_is_caught(self, mutator, copied):
        original = small_seq_netlist()
        netlist = original.copy() if copied else original
        BREAKING_MUTATIONS[mutator](netlist)
        with pytest.raises(NetlistError):  # CombinationalCycleError too
            netlist.validate()
        if copied:
            assert original.validate() is original

    def test_copy_shares_order_until_mutated(self):
        netlist = small_seq_netlist()
        order = netlist.topo_order()
        dup = netlist.copy()
        assert dup.validate() is dup
        assert dup.topo_order() is order
        dup.add_gate("extra", GateOp.NOT, ("both",))
        assert "extra" in dup.validate().topo_order()
        assert netlist.topo_order() is order
        assert "extra" not in order

    def test_replace_gate_cycle_is_a_cycle_error(self):
        netlist = small_seq_netlist()
        BREAKING_MUTATIONS["replace_gate"](netlist)
        with pytest.raises(CombinationalCycleError):
            netlist.validate()


class TestStructuralQueries:
    def test_fanin_cone(self):
        netlist = small_seq_netlist()
        cone, sources = netlist.combinational_fanin(["d1"])
        assert cone == {"d1", "carry"}
        assert sources == {"q0", "q1", "en"}

    def test_register_support(self):
        netlist = small_seq_netlist()
        assert netlist.register_support("d1") == {"q0", "q1"}
        assert netlist.register_support("d0") == {"q0"}

    def test_fanout_map(self):
        netlist = small_seq_netlist()
        fanout = netlist.fanout_map()
        assert sorted(fanout["q0"]) == ["both", "carry", "d0"]
        assert fanout["d0"] == ["q0"]

    def test_logic_levels(self):
        netlist = small_seq_netlist()
        levels = netlist.logic_levels()
        assert levels["carry"] == 1
        assert levels["d1"] == 2

    def test_undriven_traversal_raises(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("g", GateOp.AND, ("a", "ghost"))
        with pytest.raises(NetlistError):
            netlist.combinational_fanin(["g"])


class TestCopiesAndRenames:
    def test_copy_is_independent(self):
        netlist = small_seq_netlist()
        dup = netlist.copy()
        dup.add_gate("new", GateOp.NOT, ("q0",))
        assert not netlist.is_gate("new")
        assert netlist.stats()["gates"] + 1 == dup.stats()["gates"]

    def test_renamed_full_map(self):
        netlist = small_seq_netlist()
        mapping = {net: f"x_{net}" for net in netlist.nets()}
        renamed = netlist.renamed(mapping)
        assert renamed.inputs == ("x_en",)
        assert renamed.outputs == ("x_both",)
        assert renamed.flop("x_q0").d == "x_d0"
        renamed.validate()

    def test_with_prefix(self):
        netlist = small_seq_netlist()
        prefixed = netlist.with_prefix("u0_")
        assert prefixed.inputs == ("u0_en",)
        assert set(prefixed.flops) == {"u0_q0", "u0_q1"}
        prefixed.validate()
