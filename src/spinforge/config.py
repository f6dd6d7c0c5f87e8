"""Experiment constants: fields, drive frequency, exchange and energy offset.

Energies are angular frequencies (hbar = 1), fields are tesla.
"""
from __future__ import annotations

import dataclasses
import math
import os
import sys
import warnings
from dataclasses import dataclass

GAMMA_ELECTRON = 1.76085963e11  # rad s^-1 T^-1

# b1/b0 above this ratio triggers a "drive not weak" warning; above 1 it is
# rejected outright.
B1_WEAK_RATIO = 0.1

RESONANCE_RTOL = 1e-9

CONFIG_ENV_VAR = "SPINFORGE_CONFIG"

# Config-file key -> PhysicalConfig field, one row per constant. The CLI
# flags and the JSON form of a config use the same keys.
FILE_KEYS = {
    "gamma": "gamma",
    "b0": "b0",
    "b1": "b1",
    "omega": "omega",
    "j": "j_coupling",
    "b_prime": "b_prime",
}


def _builder_stacklevel() -> int:
    """``stacklevel`` that makes a warning from ``__post_init__`` name the
    line that built the config.

    It walks past this module, ``dataclasses`` (``replace``) and the
    generated ``__init__``, whose code has the file name ``<string>``.
    """
    internal = {__file__, dataclasses.__file__}
    frame, level = sys._getframe(1), 1  # level 1 is the frame that warns
    while frame is not None:
        code = frame.f_code
        generated = code.co_filename == "<string>" and code.co_name == "__init__"
        if code.co_filename not in internal and not generated:
            break
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class PhysicalConfig:
    """Constants of one register: gamma, B0, B1, omega, J, B'.

    Defaults put an electron at resonance in a 1 T Zeeman field with no
    drive, no exchange and no reference offset.
    """

    gamma: float = GAMMA_ELECTRON
    b0: float = 1.0
    b1: float = 0.0
    omega: float = GAMMA_ELECTRON
    j_coupling: float = 0.0
    b_prime: float = 0.0

    def __post_init__(self):
        for name in FILE_KEYS.values():
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.b1 > self.b0:
            raise ValueError(
                f"drive amplitude b1={self.b1} exceeds the static field b0={self.b0}"
            )
        if self.b0 > 0 and self.b1 > B1_WEAK_RATIO * self.b0:
            warnings.warn(
                f"b1={self.b1} is not small against b0={self.b0}; "
                "the weak-drive regime is assumed, not enforced",
                stacklevel=_builder_stacklevel(),
            )

    @property
    def at_resonance(self) -> bool:
        """True when the drive frequency matches gamma * b0."""
        return abs(self.omega - self.gamma * self.b0) <= RESONANCE_RTOL * self.omega

    @classmethod
    def natural_units(cls, **overrides) -> "PhysicalConfig":
        """Desk-scale constants: gamma = 1, b0 = 1, omega = 1 (resonant)."""
        values = dict(gamma=1.0, b0=1.0, b1=0.0, omega=1.0)
        values.update(overrides)
        return cls(**values)

    def replace(self, **changes) -> "PhysicalConfig":
        return dataclasses.replace(self, **changes)

    def with_derived(self, deltas: dict[str, float]) -> "PhysicalConfig":
        """This config with constants the program derived, keyed as in config files.

        A derived b1 raises no weak-drive warning: the user did not choose it.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return self.replace(**{FILE_KEYS[key]: v for key, v in deltas.items()})

    def to_json_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in FILE_KEYS.items()}


def resonance_field(omega: float, gamma: float) -> float:
    """Zeeman field matching a drive frequency: B0 = omega / gamma."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if omega < 0:
        raise ValueError(f"omega must be non-negative, got {omega}")
    return omega / gamma


def parse_config_text(text: str) -> dict[str, float]:
    """Parse flat key-value lines (key = value or key: value, # comments)."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, rhs = line.partition(sep)
                break
        else:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower()
        if key not in FILE_KEYS:
            raise ValueError(
                f"line {lineno}: unknown key {key!r}, expected one of {sorted(FILE_KEYS)}"
            )
        try:
            values[FILE_KEYS[key]] = float(rhs.strip())
        except ValueError:
            raise ValueError(f"line {lineno}: {rhs.strip()!r} is not a number") from None
    return values


def load_config_file(path: str) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def resolve_config(
    path: str | None = None,
    *,
    natural_units: bool = False,
    overrides: dict[str, float] | None = None,
) -> PhysicalConfig:
    """Build a config with precedence: overrides > file > defaults.

    When no path is given the SPINFORGE_CONFIG environment variable is
    consulted before falling back to defaults.
    """
    base = PhysicalConfig.natural_units() if natural_units else PhysicalConfig()
    values = dataclasses.asdict(base)
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path:
        values.update(load_config_file(path))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return PhysicalConfig(**values)
