"""Tests for physical constants handling and config file parsing."""

import pytest

from spinforge.config import (
    GAMMA_ELECTRON,
    PhysicalConfig,
    parse_config_text,
    resolve_config,
    resonance_field,
)


class TestResonanceField:
    def test_equal_values_give_one_tesla(self):
        assert resonance_field(1.76085963e11, 1.76085963e11) == pytest.approx(1.0)

    def test_double_frequency(self):
        gamma = 1.76085963e11
        assert resonance_field(2 * gamma, gamma) == pytest.approx(2.0)

    def test_zero_frequency(self):
        assert resonance_field(0.0, GAMMA_ELECTRON) == 0.0

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            resonance_field(1.0, 0.0)


class TestPhysicalConfig:
    def test_default_is_electron_at_one_tesla_resonance(self):
        cfg = PhysicalConfig()
        assert cfg.gamma == GAMMA_ELECTRON
        assert cfg.b0 == 1.0
        assert cfg.at_resonance

    def test_natural_units(self):
        cfg = PhysicalConfig.natural_units(j_coupling=0.4)
        assert (cfg.gamma, cfg.b0, cfg.omega) == (1.0, 1.0, 1.0)
        assert cfg.j_coupling == 0.4
        assert cfg.at_resonance

    def test_detuned_config_not_at_resonance(self):
        cfg = PhysicalConfig.natural_units(omega=1.001)
        assert not cfg.at_resonance

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PhysicalConfig.natural_units(j_coupling=-1.0)

    @pytest.mark.parametrize(
        "field", ["gamma", "b0", "b1", "omega", "j_coupling", "b_prime"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_constants_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PhysicalConfig.natural_units(**{field: value})

    def test_drive_larger_than_static_field_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            PhysicalConfig.natural_units(b1=2.0)

    def test_strong_drive_warns(self):
        with pytest.warns(UserWarning, match="not small"):
            PhysicalConfig.natural_units(b1=0.5)

    def test_weak_drive_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PhysicalConfig.natural_units(b1=0.05)

    def test_replace_returns_new_value(self):
        cfg = PhysicalConfig.natural_units()
        other = cfg.replace(j_coupling=2.0)
        assert cfg.j_coupling == 0.0
        assert other.j_coupling == 2.0


class TestConfigFile:
    def test_parse_flat_keys(self):
        text = """
        # experiment constants
        gamma = 1.0
        b0 = 1.0
        omega: 1.0
        j = 0.4
        b_prime = 0.1
        b1 = 0.0
        """
        values = parse_config_text(text)
        assert values == {
            "gamma": 1.0,
            "b0": 1.0,
            "omega": 1.0,
            "j_coupling": 0.4,
            "b_prime": 0.1,
            "b1": 0.0,
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("frequency = 3")

    def test_bad_number_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_config_text("omega = fast")

    def test_resolve_precedence(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 1.0\nb0 = 1.0\nomega = 1.0\nj = 0.4\n")
        cfg = resolve_config(str(path), overrides={"j_coupling": 2.0})
        assert cfg.j_coupling == 2.0  # flag beats file
        assert cfg.omega == 1.0  # file beats default

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("gamma = 1.0\nb0 = 1.0\nomega = 1.0\nb_prime = 0.25\n")
        monkeypatch.setenv("SPINFORGE_CONFIG", str(path))
        cfg = resolve_config()
        assert cfg.b_prime == 0.25

    def test_none_overrides_are_ignored(self):
        cfg = resolve_config(natural_units=True, overrides={"omega": None})
        assert cfg.omega == 1.0
