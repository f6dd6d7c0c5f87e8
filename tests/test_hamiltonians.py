"""Tests for the lab-frame and rotating-frame Hamiltonians."""

import numpy as np
import pytest

from spinforge.config import PhysicalConfig
from spinforge.hamiltonians import lab_hamiltonian, rotating_hamiltonian
from spinforge.operators import (
    embed_pair_zz,
    pair_sites,
    spin,
    total_spin,
)
from spinforge.tensor import hermiticity_defect


class TestLabHamiltonian:
    def test_zeeman_only(self):
        cfg = PhysicalConfig.natural_units()
        h = lab_hamiltonian(cfg, 1, 3.7)
        assert np.allclose(h, -np.diag([0.5, -0.5]))

    def test_single_spin_at_t0(self):
        cfg = PhysicalConfig.natural_units(b1=0.05)
        h = lab_hamiltonian(cfg, 1, 0.0)
        expected = -(spin("z") + 0.05 * spin("x"))
        assert np.allclose(h, expected)

    def test_pure_ising_term(self):
        cfg = PhysicalConfig(gamma=1.0, b0=0.0, b1=0.0, omega=0.0, j_coupling=1.0)
        h = lab_hamiltonian(cfg, 2, 1.0)
        assert np.allclose(h, np.diag([0.25, -0.25, -0.25, 0.25]))

    def test_no_exchange_for_single_qubit(self):
        cfg = PhysicalConfig.natural_units(j_coupling=5.0)
        h = lab_hamiltonian(cfg, 1, 0.0)
        assert np.allclose(h, -spin("z"))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hermitian_on_time_grid(self, n):
        cfg = PhysicalConfig.natural_units(b1=0.05, j_coupling=0.4, b_prime=0.1)
        for t in np.linspace(0.0, 20.0, 17):
            assert hermiticity_defect(lab_hamiltonian(cfg, n, t)) <= 1e-12

    def test_system_size_rejected(self):
        cfg = PhysicalConfig.natural_units()
        with pytest.raises(ValueError):
            lab_hamiltonian(cfg, 5, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frame_rotation_freezes_drive(self, n):
        # e^{-i w t sum(Sz)} (drive at t) e^{+i w t sum(Sz)} = drive at 0.
        cfg = PhysicalConfig.natural_units(b1=0.07)
        sz = np.diag(total_spin("z", n)).real
        sx, sy = total_spin("x", n), total_spin("y", n)
        for t in np.linspace(0.1, 15.0, 11):
            wt = cfg.omega * t
            frame = np.diag(np.exp(-1j * wt * sz))
            drive_t = np.cos(wt) * sx - np.sin(wt) * sy
            frozen = frame @ drive_t @ frame.conj().T
            assert np.max(np.abs(frozen - sx)) <= 1e-12


class TestRotatingHamiltonian:
    def test_resonant_two_qubit_keeps_only_ising(self):
        cfg = PhysicalConfig.natural_units(j_coupling=1.0)
        h = rotating_hamiltonian(cfg, 2)
        assert np.allclose(h, np.diag([0.25, -0.25, -0.25, 0.25]))

    def test_detuned_single_qubit(self):
        cfg = PhysicalConfig(gamma=1.0, b0=1.0, b1=0.05, omega=0.9)
        h = rotating_hamiltonian(cfg, 1)
        delta = cfg.gamma * cfg.b0 - cfg.omega
        expected = -delta * spin("z") - cfg.gamma * cfg.b1 * spin("x")
        assert np.allclose(h, expected)

    def test_four_qubit_exchange_diagonal_by_pair_parity(self):
        # Oracle: sum the six pair-term diagonals by brute force. The
        # reference offset B' is bookkeeping and stays out.
        cfg = PhysicalConfig.natural_units(j_coupling=1.0, b_prime=1.0)
        h = rotating_hamiltonian(cfg, 4)
        expected = np.zeros((16, 16), dtype=complex)
        for i, j in pair_sites(4):
            expected = expected + embed_pair_zz(i, j, 4)
        assert np.allclose(h, expected)
        assert h[0, 0] == pytest.approx(6 * 0.25)

    def test_detuning_vanishes_at_resonance(self):
        cfg = PhysicalConfig.natural_units(b1=0.0, j_coupling=0.0)
        h = rotating_hamiltonian(cfg, 3)
        assert np.max(np.abs(h)) == 0

    def test_commutes_with_total_z_only_without_drive(self):
        sz = total_spin("z", 2)
        quiet = rotating_hamiltonian(
            PhysicalConfig.natural_units(j_coupling=0.4), 2
        )
        assert np.max(np.abs(quiet @ sz - sz @ quiet)) <= 1e-15
        driven = rotating_hamiltonian(
            PhysicalConfig.natural_units(j_coupling=0.4, b1=0.05), 2
        )
        assert np.max(np.abs(driven @ sz - sz @ driven)) > 1e-3
