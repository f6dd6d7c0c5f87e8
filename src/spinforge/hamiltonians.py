"""Lab-frame and rotating-frame Hamiltonians for 1 to 4 coupled spins.

The lab Hamiltonian is the physical one: Zeeman term, circularly polarized
drive, and equal Ising exchange between every pair. The rotating-frame
Hamiltonian is time-independent; because the drive is exactly circularly
polarized this is a frame change, not an approximation. The reference
offset B' is bookkeeping only and enters neither Hamiltonian.
"""
from __future__ import annotations

import numpy as np

from .config import PhysicalConfig
from .operators import exchange_sum, total_spin


def _drive_term(cfg: PhysicalConfig, n: int, t: float) -> np.ndarray:
    sx = total_spin("x", n)
    sy = total_spin("y", n)
    return cfg.b1 * (np.cos(cfg.omega * t) * sx - np.sin(cfg.omega * t) * sy)


def lab_hamiltonian(cfg: PhysicalConfig, n: int, t: float) -> np.ndarray:
    """Time-dependent Hamiltonian in the static frame.

    -gamma [B0 sum(S_z) + B1 (cos(wt) sum(S_x) - sin(wt) sum(S_y))]
    + J sum over pairs of S_zi S_zj (exchange absent for n = 1).
    """
    h = -cfg.gamma * (cfg.b0 * total_spin("z", n) + _drive_term(cfg, n, t))
    if n >= 2:
        h = h + cfg.j_coupling * exchange_sum(n)
    return h


def rotating_hamiltonian(cfg: PhysicalConfig, n: int) -> np.ndarray:
    """Time-independent Hamiltonian in the frame rotating at omega.

    -gamma [(B0 - omega/gamma) sum(S_z) + B1 sum(S_x)] + J sum(S_z S_z).
    At resonance the detuning term vanishes identically.
    """
    detuning_field = cfg.b0 - cfg.omega / cfg.gamma
    h = -cfg.gamma * (detuning_field * total_spin("z", n) + cfg.b1 * total_spin("x", n))
    if n >= 2:
        h = h + cfg.j_coupling * exchange_sum(n)
    return h
