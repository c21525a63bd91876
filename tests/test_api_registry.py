"""Registry behaviour: registration, lookup, schemas, extension."""

import pytest

from repro.api import (
    ATTACKS,
    SCHEMES,
    AttackBudget,
    AttackOutcome,
    Param,
    Registry,
    register_attack,
    register_scheme,
)
from repro.api.schemes import Scheme
from repro.bench import load_benchmark
from repro.core import TriLockConfig, lock
from repro.core.locker import LockedCircuit
from repro.errors import SpecError

pytestmark = pytest.mark.smoke


class TestBuiltins:
    def test_scheme_names(self):
        assert SCHEMES.names() == ("harpoon", "naive", "sarlock", "sink",
                                   "sublock", "trilock")

    def test_attack_names(self):
        assert ATTACKS.names() == ("bmc", "comb-sat", "key-space",
                                   "removal", "seq-sat", "stg")

    def test_every_plugin_has_description_and_schema(self):
        for plugin in list(SCHEMES) + list(ATTACKS):
            name, description, schema = plugin.describe_row()
            assert name and description
            assert schema

    def test_registry_lock_equals_legacy_lock(self):
        """The trilock plugin is the legacy flow one-to-one: identical
        netlist, key, and provenance for identical parameters."""
        netlist = load_benchmark("s27")
        via_registry = SCHEMES.get("trilock").lock(
            netlist, seed=5, kappa_s=1, kappa_f=1, alpha=0.6, s_pairs=3)
        direct = lock(netlist, TriLockConfig(
            kappa_s=1, kappa_f=1, alpha=0.6, s_pairs=3, seed=5))
        assert via_registry.key.as_int == direct.key.as_int
        assert via_registry.netlist.stats() == direct.netlist.stats()
        assert sorted(via_registry.netlist.nets()) == \
            sorted(direct.netlist.nets())
        assert via_registry.register_provenance() == \
            direct.register_provenance()

    def test_attack_runs_with_defaults(self):
        locked = SCHEMES.get("trilock").lock(
            load_benchmark("s27"), seed=1, kappa_s=1)
        outcome = ATTACKS.get("seq-sat").run(locked)
        assert isinstance(outcome, AttackOutcome)
        assert outcome.success and outcome.metrics["key_ok"]
        assert outcome.seconds > 0
        # The dict round-trip campaign cells rely on.
        assert AttackOutcome.from_dict(outcome.as_dict()) == outcome

    def test_budget_is_respected(self):
        locked = SCHEMES.get("trilock").lock(
            load_benchmark("s27"), seed=1, kappa_s=1)
        outcome = ATTACKS.get("seq-sat").run(
            locked, budget=AttackBudget(max_dips=2))
        assert not outcome.success
        assert outcome.metrics["stop_reason"] == "max_dips"
        assert outcome.metrics["n_dips"] <= 2


class TestLookupErrors:
    def test_unknown_name_lists_known(self):
        with pytest.raises(SpecError) as excinfo:
            SCHEMES.get("xor-lock-missing")
        message = str(excinfo.value)
        assert "xor-lock-missing" in message
        for name in SCHEMES.names():
            assert name in message

    def test_duplicate_registration_rejected(self):
        registry = Registry("scheme")
        registry.add(Scheme("demo", lambda netlist, seed: None))
        with pytest.raises(SpecError):
            registry.add(Scheme("demo", lambda netlist, seed: None))
        registry.add(Scheme("demo", lambda netlist, seed: None),
                     replace=True)

    def test_reserved_characters_in_names_rejected(self):
        for bad in ("", "a b", "a?b", "x=y", "p|q", "m,n"):
            with pytest.raises(SpecError):
                Registry("scheme").add(
                    Scheme(bad, lambda netlist, seed: None))

    def test_param_kind_validated(self):
        with pytest.raises(SpecError):
            Param("tuple")

    def test_param_coercion(self):
        p = Param("float", 0.5)
        assert p.coerce(1, "x", "k") == 1.0
        assert isinstance(p.coerce(1, "x", "k"), float)
        with pytest.raises(SpecError):
            p.coerce(True, "x", "k")
        with pytest.raises(SpecError):
            Param("int").coerce("3", "x", "k")


class TestThirdPartyExtension:
    def test_register_and_drive_a_new_scheme(self):
        """The README's extension story: a third-party scheme joins the
        registries and runs through the same matrix machinery."""
        from repro.api import matrix_cell

        @register_scheme(
            "test-reg-wrap", description="trilock under another name",
            params={"kappa_s": Param("int", 1, "prefix cycles")},
            replace=True)
        def lock_wrapped(netlist, seed, kappa_s):
            return lock(netlist, TriLockConfig(kappa_s=kappa_s, seed=seed))

        try:
            assert "test-reg-wrap" in SCHEMES
            locked = SCHEMES.get("test-reg-wrap").lock(
                load_benchmark("s27"), seed=2)
            assert isinstance(locked, LockedCircuit)
            value = matrix_cell("s27", 2, "test-reg-wrap", "removal")
            assert value["scheme"].startswith("test-reg-wrap?")
            assert "O" in value["metrics"]
        finally:
            SCHEMES._entries.pop("test-reg-wrap", None)

    def test_plugin_modules_load_from_environment(self, tmp_path,
                                                  monkeypatch):
        """REPRO_PLUGINS names modules whose import registers plugins —
        the hook that carries third-party schemes into CLI and campaign
        worker processes."""
        from repro.api import load_plugin_modules

        (tmp_path / "demo_lock_plugin.py").write_text(
            "from repro.api import Param, register_scheme\n"
            "from repro.core import naive_config, lock\n"
            "@register_scheme('demo-env-lock', description='env demo',\n"
            "                 params={'kappa': Param('int', 1, 'cycles')},\n"
            "                 replace=True)\n"
            "def lock_demo(netlist, seed, kappa):\n"
            "    return lock(netlist, naive_config(kappa, seed=seed))\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "demo_lock_plugin")
        try:
            assert load_plugin_modules() == ["demo_lock_plugin"]
            assert "demo-env-lock" in SCHEMES
        finally:
            SCHEMES._entries.pop("demo-env-lock", None)

    def test_missing_plugin_module_is_actionable(self):
        from repro.api import load_plugin_modules

        with pytest.raises(SpecError) as excinfo:
            load_plugin_modules("repro_no_such_plugin_module")
        assert "repro_no_such_plugin_module" in str(excinfo.value)

    def test_import_time_path_warns_instead_of_crashing(self, capsys):
        """The module-level call uses on_error='warn': a typo'd
        REPRO_PLUGINS must not brick every command at import time."""
        from repro.api import load_plugin_modules

        loaded = load_plugin_modules("repro_no_such_plugin_module",
                                     on_error="warn")
        assert loaded == []
        assert "repro_no_such_plugin_module" in capsys.readouterr().err

    def test_register_a_new_attack(self):
        @register_attack(
            "test-null-attack", description="gives up immediately",
            params={"tries": Param("int", 1, "how hard to try")},
            replace=True)
        def null_attack(locked, oracle, budget, tries):
            return AttackOutcome(attack="", success=False, seconds=0.0,
                                 metrics={"tries": tries})

        try:
            locked = SCHEMES.get("harpoon").lock(
                load_benchmark("s27"), seed=0, kappa=2)
            outcome = ATTACKS.get("test-null-attack").run(locked, tries=3)
            assert outcome.attack == "test-null-attack"
            assert outcome.metrics == {"tries": 3}
        finally:
            ATTACKS._entries.pop("test-null-attack", None)
