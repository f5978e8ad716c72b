"""Tests for the flat key = value configuration format."""
import pytest

from anosovlab.config import (
    MODEL_KEYS,
    PLAN_KEYS,
    SCHEMA,
    parse_config,
    parse_config_text,
    parse_observable,
    subset,
)
from anosovlab.errors import ConfigError


SAMPLE = """
# model block
model = conformal_perturbation
epsilon = 0.05        # strength
n_orbits = 250
windows = 50, 100, 200
seed_rule = both
"""


class TestParseConfig:
    def test_parses_types_and_comments(self):
        cfg = parse_config_text(SAMPLE)
        assert cfg["model"] == "conformal_perturbation"
        assert cfg["epsilon"] == 0.05
        assert cfg["n_orbits"] == 250
        assert cfg["windows"] == (50.0, 100.0, 200.0)
        assert cfg["seed_rule"] == "both"

    def test_every_schema_key_has_help(self):
        for key, (coerce, help_text) in SCHEMA.items():
            assert callable(coerce), key
            assert help_text, key

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("no_such_knob = 3")

    def test_removed_grid_dt_key(self):
        # nothing samples on a grid since the exact band edges became
        # closed form, so the key is rejected rather than ignored
        with pytest.raises(ConfigError, match="unknown key 'grid_dt'"):
            parse_config_text("grid_dt = 0.5")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("epsilon 0.05")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config_text("epsilon = ")

    def test_bad_typed_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("n_orbits = many")

    def test_bad_float_list(self):
        with pytest.raises(ConfigError, match="bad float list"):
            parse_config_text("windows = 50;100")

    def test_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("epsilon = 0.05\nbogus = 1")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SAMPLE)
        assert parse_config(path) == parse_config_text(SAMPLE)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    def test_subset_restriction(self):
        cfg = parse_config_text(SAMPLE)
        model_part = subset(cfg, MODEL_KEYS)
        assert model_part == {"model": "conformal_perturbation",
                              "epsilon": 0.05}
        plan_part = subset(cfg, PLAN_KEYS)
        assert set(plan_part) == {"n_orbits", "windows", "seed_rule"}


class TestParseObservable:
    def test_coefficients(self):
        spec = parse_observable("const=1.5, cos=2, u_half=-0.5")
        assert spec.c_const == 1.5
        assert spec.c_cos == 2.0
        assert spec.c_u_half == -0.5
        assert spec.c_bump == 0.0

    def test_bump_terms(self):
        spec = parse_observable("bump=1, bump_center=0.2+0.3j, bump_sigma=0.8")
        assert spec.c_bump == 1.0
        assert spec.bump_center == 0.2 + 0.3j
        assert spec.bump_sigma == 0.8

    @pytest.mark.parametrize("text", ["", " , ,"], ids=["empty", "commas"])
    def test_text_without_a_term_is_an_error(self, text):
        # an explicit observable is never swapped for the zero observable
        with pytest.raises(ConfigError, match="no term"):
            parse_observable(text)

    def test_unknown_term(self):
        with pytest.raises(ConfigError, match="unknown observable term"):
            parse_observable("quartic=1")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_observable("cos=loud")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="name=value"):
            parse_observable("cos")
