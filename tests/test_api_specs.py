"""Spec strings: parse/format round-trips, grids, cache-key stability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ATTACKS,
    SCHEMES,
    canonical_attack_spec,
    canonical_scheme_spec,
    expand_grid,
    format_spec,
    parse_spec,
)
from repro.campaign import CellSpec
from repro.errors import SpecError

pytestmark = pytest.mark.smoke

ALL_PLUGINS = list(SCHEMES) + list(ATTACKS)


def plugin_param_values(plugin, draw_ints, draw_floats):
    """A valid params dict for ``plugin`` from drawn scalars."""
    values = {}
    for index, (key, param) in enumerate(sorted(
            plugin.params_schema.items())):
        if param.kind == "int":
            values[key] = draw_ints[index % len(draw_ints)]
        elif param.kind == "float":
            values[key] = draw_floats[index % len(draw_floats)]
        elif param.kind == "bool":
            values[key] = draw_ints[index % len(draw_ints)] % 2 == 0
        else:
            values[key] = "cdcl"
    return values


class TestScalarRoundtrip:
    @pytest.mark.parametrize("value", [
        0, 1, -7, 10**9, True, False, None, 0.5, -3.25, 1e-9, 1e21,
        "cdcl", "cdcl,native", "race2", "a.b-c_d",
    ])
    def test_value_round_trips(self, value):
        name, params = parse_spec(format_spec("x", {"k": value}))
        assert name == "x"
        assert params["k"] == value
        assert type(params["k"]) is type(value)

    def test_ambiguous_string_rejected(self):
        for bad in ("3", "0.5", "true", "null"):
            with pytest.raises(SpecError):
                format_spec("x", {"k": bad})

    def test_reserved_characters_rejected(self):
        for bad in ("a&b", "a=b", "a?b", "a|b", " pad "):
            with pytest.raises(SpecError):
                format_spec("x", {"k": bad})


class TestEveryRegisteredPlugin:
    @pytest.mark.parametrize("plugin", ALL_PLUGINS,
                             ids=lambda p: f"{p.kind}:{p.name}")
    def test_default_spec_round_trips(self, plugin):
        spec = plugin.spec()
        name, params = parse_spec(spec)
        assert name == plugin.name
        assert format_spec(name, params) == spec
        # Canonicalising an already-canonical spec is the identity.
        canonical = canonical_scheme_spec(spec) if plugin.kind == "scheme" \
            else canonical_attack_spec(spec)
        assert canonical == spec

    @pytest.mark.parametrize("plugin", ALL_PLUGINS,
                             ids=lambda p: f"{p.kind}:{p.name}")
    @given(ints=st.lists(st.integers(0, 50), min_size=4, max_size=4),
           floats=st.lists(
               st.floats(0, 1, allow_nan=False).map(lambda f: round(f, 6)),
               min_size=2, max_size=2))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_params_round_trip(self, plugin, ints, floats):
        params = plugin_param_values(plugin, ints, floats)
        spec = plugin.spec(**params)
        name, parsed = parse_spec(spec)
        assert name == plugin.name
        # parse(format(spec)) == spec, exactly.
        assert format_spec(name, parsed) == spec
        # ...and re-resolving through the registry is idempotent.
        assert plugin.spec(**parsed) == spec

    @pytest.mark.parametrize("plugin", ALL_PLUGINS,
                             ids=lambda p: f"{p.kind}:{p.name}")
    def test_spelling_order_is_irrelevant(self, plugin):
        spec = plugin.spec()
        name, params = parse_spec(spec)
        if not params:
            pytest.skip("no parameters to permute")
        scrambled = name + "?" + "&".join(
            f"{key}={spec.split(f'{key}=')[1].split('&')[0]}"
            for key in sorted(params, reverse=True))
        assert format_spec(*parse_spec(scrambled)) == spec


class TestErrors:
    def test_unknown_scheme_is_actionable(self):
        with pytest.raises(SpecError) as excinfo:
            canonical_scheme_spec("sarlok?kappa=2")
        message = str(excinfo.value)
        assert "sarlok" in message and "did you mean 'sarlock'" in message
        assert "registered" in message

    def test_unknown_attack_is_actionable(self):
        with pytest.raises(SpecError) as excinfo:
            canonical_attack_spec("fun-sat")
        assert "seq-sat" in str(excinfo.value)

    def test_unknown_param_lists_schema(self):
        with pytest.raises(SpecError) as excinfo:
            canonical_scheme_spec("trilock?kappas=3")
        message = str(excinfo.value)
        assert "kappas" in message and "kappa_s" in message

    def test_bad_param_type_names_expectation(self):
        with pytest.raises(SpecError) as excinfo:
            canonical_scheme_spec("trilock?kappa_s=fast")
        message = str(excinfo.value)
        assert "kappa_s" in message and "int" in message and "fast" in message

    def test_malformed_specs(self):
        for bad in ("", "?", "trilock?kappa_s", "trilock?=3",
                    "trilock?kappa_s=3&kappa_s=4"):
            with pytest.raises(SpecError):
                parse_spec(bad)

    def test_malformed_parameter_reports_offending_token_and_column(self):
        with pytest.raises(SpecError) as excinfo:
            parse_spec("trilock?kappa_s")
        message = str(excinfo.value)
        assert "'kappa_s'" in message and "at column 9" in message

    def test_repeated_parameter_reports_second_occurrence_column(self):
        with pytest.raises(SpecError) as excinfo:
            parse_spec("trilock?kappa_s=3&kappa_s=4")
        message = str(excinfo.value)
        assert "'kappa_s'" in message and "at column 19" in message

    def test_grid_errors_carry_positions_too(self):
        with pytest.raises(SpecError) as excinfo:
            expand_grid("trilock?kappa_s&alpha=0.3")
        assert "at column 9" in str(excinfo.value)

    def test_unknown_name_suggests_nearest_plugin(self):
        with pytest.raises(SpecError) as excinfo:
            canonical_scheme_spec("trilok?kappa_s=2")
        assert "did you mean 'trilock'?" in str(excinfo.value)
        with pytest.raises(SpecError) as excinfo:
            canonical_attack_spec("seqsat")
        assert "did you mean 'seq-sat'?" in str(excinfo.value)

    def test_hopeless_typos_get_no_suggestion(self):
        with pytest.raises(SpecError) as excinfo:
            canonical_scheme_spec("zzzzzz?kappa=1")
        assert "did you mean" not in str(excinfo.value)


class TestGrids:
    def test_range_expansion(self):
        assert expand_grid("trilock?kappa_s=1..3") == [
            "trilock?kappa_s=1", "trilock?kappa_s=2", "trilock?kappa_s=3"]

    def test_alternatives_and_ranges_multiply(self):
        grid = expand_grid("trilock?kappa_s=1..2&alpha=0.3|0.6")
        assert grid == [
            "trilock?alpha=0.3&kappa_s=1", "trilock?alpha=0.3&kappa_s=2",
            "trilock?alpha=0.6&kappa_s=1", "trilock?alpha=0.6&kappa_s=2"]

    def test_concrete_spec_expands_to_itself(self):
        assert expand_grid("seq-sat?dip_batch=4") == ["seq-sat?dip_batch=4"]
        assert expand_grid("removal") == ["removal"]

    def test_commas_stay_literal(self):
        (spec,) = expand_grid("my-attack?label=b12,s27")
        _, params = parse_spec(spec)
        assert params["label"] == "b12,s27"

    def test_bad_ranges(self):
        with pytest.raises(SpecError):
            expand_grid("trilock?kappa_s=3..1")
        with pytest.raises(SpecError):
            expand_grid("trilock?alpha=0.1..0.3")
        with pytest.raises(SpecError):
            expand_grid("trilock?kappa_s=1|")


class TestCacheKeys:
    def test_equivalent_spellings_share_a_cell_key(self):
        base = CellSpec.matrix("s27", "trilock?kappa_s=2&alpha=0.6",
                               "seq-sat?dip_batch=1")
        reordered = CellSpec.matrix("s27", "trilock?alpha=0.6&kappa_s=2",
                                    "seq-sat")
        assert base.key() == reordered.key()

    def test_different_configs_do_not_collide(self):
        a = CellSpec.matrix("s27", "trilock?kappa_s=1", "seq-sat")
        b = CellSpec.matrix("s27", "trilock?kappa_s=2", "seq-sat")
        c = CellSpec.matrix("s27", "trilock?kappa_s=1", "removal")
        assert len({a.key(), b.key(), c.key()}) == 3

    def test_keys_stable_across_processes(self):
        # The key derives only from canonical JSON of canonical specs —
        # recomputing from scratch must reproduce it.
        spec = CellSpec.matrix("s27", "harpoon?kappa=2", "removal",
                               scale=0.5, seed=3)
        again = CellSpec.matrix("s27", "harpoon?kappa=2", "removal",
                                scale=0.5, seed=3)
        assert spec.key() == again.key()
        assert spec.params == again.params

    def test_gridded_matrix_cell_spec_rejected(self):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            CellSpec.matrix("s27", "trilock?kappa_s=1..2", "seq-sat")
