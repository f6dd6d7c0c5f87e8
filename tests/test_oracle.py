"""Tests for the dynamics oracle: RK4 integration vs the closed form."""

import gc
import importlib.util
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinforge import oracle
from spinforge.config import PhysicalConfig
from spinforge.gates import u_phi
from spinforge.hamiltonians import lab_hamiltonian
from spinforge.operators import spin
from spinforge.oracle import (
    NORM_DRIFT_LIMIT,
    IntegrationError,
    IntegrationSettings,
    analytic_rotating,
    check_m_constancy,
    convergence_study,
    cross_validate,
    integrate_lab,
    integrate_lab_trajectory,
    lab_propagator,
    rabi_period,
    write_trajectory_csv,
)
from spinforge.tensor import basis_state
from spinforge.timing import gate_timing_table

CFG_DRIVEN = PhysicalConfig.natural_units(b1=0.05)


class TestIntegrateLab:
    def test_zero_time_echoes_input(self):
        psi0 = basis_state(1, "0")
        out = integrate_lab(CFG_DRIVEN, 1, psi0, 0.0)
        assert np.array_equal(out, psi0)

    def test_zeeman_eigenstate_keeps_population(self):
        cfg = PhysicalConfig.natural_units()  # b1 = 0
        t = 7.3
        out = integrate_lab(cfg, 1, basis_state(1, "0"), t, IntegrationSettings(1e-3))
        assert abs(out[0]) ** 2 == pytest.approx(1.0, abs=1e-10)
        # Pure phase e^{i gamma B0 t / 2} on the up amplitude.
        assert np.angle(out[0]) == pytest.approx(
            math.remainder(t / 2, 2 * math.pi), abs=1e-8
        )

    def test_rabi_pi_pulse_flips_population(self):
        t_pi = math.pi / (CFG_DRIVEN.gamma * CFG_DRIVEN.b1)
        out = integrate_lab(
            CFG_DRIVEN, 1, basis_state(1, "0"), t_pi, IntegrationSettings(t_pi / 10_000)
        )
        assert abs(out[0]) ** 2 <= 1e-6
        assert abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_unstable_step_rejected(self):
        with pytest.raises(ValueError, match="stability"):
            integrate_lab(
                CFG_DRIVEN, 1, basis_state(1, "0"), 100.0, IntegrationSettings(dt=5.0)
            )

    def test_norm_preserved_without_renormalization(self):
        period = rabi_period(CFG_DRIVEN)
        out = integrate_lab(
            CFG_DRIVEN,
            1,
            basis_state(1, "0"),
            period,
            IntegrationSettings(period / 10_000),
        )
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-8

    def test_norm_drift_halving_gives_32x_reduction(self):
        # Fixed interval, no renormalization: the accumulated
        # pre-renormalization drift scales one power below the step count,
        # so halving dt cuts it ~32x.
        cfg = CFG_DRIVEN
        psi0 = (basis_state(1, "0") + basis_state(1, "1")) / math.sqrt(2)
        t_final = 10.0

        def total_drift(dt):
            out = integrate_lab(cfg, 1, psi0, t_final, IntegrationSettings(dt))
            return abs(np.linalg.norm(out) - 1.0)

        d1 = total_drift(0.1)
        d2 = total_drift(0.05)
        assert d1 > 0 and d2 > 0
        assert d1 / d2 == pytest.approx(32, rel=0.35)

    def test_drift_check_fires_at_the_first_step_past_the_limit(self):
        # At dt * radius = 0.099 the RK4 norm loss is ~7e-9 per step, so
        # the 1e-4 drift limit is crossed after about 15000 steps.
        cfg = CFG_DRIVEN
        radius = float(np.max(np.abs(np.linalg.eigvalsh(lab_hamiltonian(cfg, 1, 0.0)))))
        dt = 0.099 / radius
        psi0 = basis_state(1, "0")
        with pytest.raises(IntegrationError) as exc:
            integrate_lab(cfg, 1, psi0, 30_000 * dt, IntegrationSettings(dt))
        found = re.search(r"at t=(\S+) \(step (\d+), dt=(\S+)\);", str(exc.value))
        assert found, str(exc.value)
        t, step, dt_used = float(found[1]), int(found[2]), float(found[3])
        assert 10_000 < step < 30_000
        assert t == step * dt_used
        settings_ = IntegrationSettings(dt_used)
        out = integrate_lab(cfg, 1, psi0, (step - 1) * dt_used, settings_)
        assert abs(np.linalg.norm(out) - 1.0) <= NORM_DRIFT_LIMIT

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            IntegrationSettings(dt=0.0)


class TestAnalyticRotating:
    def test_resonant_single_qubit_closed_form(self):
        # psi(t) = e^{i w t Sz} e^{i gamma B1 t Sx} psi(0) at resonance.
        cfg = CFG_DRIVEN
        t = 3.21
        psi0 = basis_state(1, "0")
        got = analytic_rotating(cfg, 1, psi0, t)
        a_z = cfg.omega * t / 2
        a_x = cfg.gamma * cfg.b1 * t / 2
        uz = np.diag([np.exp(1j * a_z), np.exp(-1j * a_z)])
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        ux = math.cos(a_x) * np.eye(2) + 1j * math.sin(a_x) * sx
        assert np.allclose(got, uz @ ux @ psi0, atol=1e-12)

    def test_pure_phase_without_drive(self):
        cfg = PhysicalConfig.natural_units()
        for t in (0.3, 2.0, 11.0):
            out = analytic_rotating(cfg, 1, basis_state(1, "1"), t)
            assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)

    def test_two_qubit_diagonal_matches_gate_window(self):
        # J != 0, B1 = 0: diagonal phases agree with the evolution operator
        # once the bookkeeping offset is multiplied back in.
        sched = gate_timing_table("cz", PhysicalConfig.natural_units())
        wcfg = sched.window_config("t1")
        t1 = sched.solutions["t1"].duration
        gate = u_phi(2, sched.solutions["t1"], wcfg)
        for bits in ("00", "01", "10", "11"):
            psi = analytic_rotating(wcfg, 2, basis_state(2, bits), t1)
            phased = np.exp(-1j * wcfg.b_prime * t1) * psi
            assert np.allclose(phased, gate @ basis_state(2, bits), atol=1e-12)

    def test_exactly_unitary(self):
        cfg = PhysicalConfig.natural_units(b1=0.08, j_coupling=0.3)
        rng = np.random.default_rng(3)
        for _ in range(25):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi0 = amps / np.linalg.norm(amps)
            out = analytic_rotating(cfg, 2, psi0, rng.uniform(0, 20))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_offset_phase_flag(self):
        cfg = PhysicalConfig.natural_units(b_prime=0.1)
        t = 2.0
        plain = analytic_rotating(cfg, 1, basis_state(1, "0"), t)
        shifted = analytic_rotating(cfg, 1, basis_state(1, "0"), t, include_offset=True)
        assert np.allclose(shifted, np.exp(-1j * 0.1 * t) * plain, atol=1e-15)


def m_constancy_per_sample(cfg, times):
    """Reference for ``check_m_constancy``: one 2x2 matrix product per time."""
    sx, sy, sz = spin("x"), spin("y"), spin("z")
    worst = 0.0
    for t in times:
        wt = cfg.omega * t
        frame = np.diag(np.exp(-1j * wt * np.diag(sz)))
        m = frame @ (math.cos(wt) * sx - math.sin(wt) * sy) @ frame.conj().T
        worst = max(worst, float(np.max(np.abs(m - sx))))
    return worst


class TestMConstancy:
    def test_zero_time_is_exact(self):
        assert check_m_constancy(CFG_DRIVEN, [0.0]) == 0.0

    def test_hundred_random_times(self):
        rng = np.random.default_rng(11)
        times = rng.uniform(0.0, 10.0 / CFG_DRIVEN.omega, size=100)
        assert check_m_constancy(CFG_DRIVEN, times) <= 1e-12

    def test_zero_frequency_trivial(self):
        cfg = PhysicalConfig(gamma=1.0, b0=0.0, b1=0.0, omega=0.0)
        assert check_m_constancy(cfg, [0.0, 1.0, 5.0]) <= 1e-15

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match=r"^need at least one sample time$"):
            check_m_constancy(CFG_DRIVEN, [])

    @pytest.mark.parametrize(
        "times, bad",
        [([0.0, math.nan, math.inf], "nan"), ([1.0, 2.0, -math.inf, math.nan], "-inf")],
    )
    def test_first_non_finite_time_is_named(self, times, bad):
        with pytest.raises(ValueError, match=rf"^sample_times must be finite, got {bad}$"):
            check_m_constancy(CFG_DRIVEN, times)

    @given(
        omega=st.floats(0.0, 10.0),
        times=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_sample_loop(self, omega, times):
        cfg = PhysicalConfig(gamma=1.0, b0=omega, b1=0.0, omega=omega)
        got = check_m_constancy(cfg, times)
        assert abs(got - m_constancy_per_sample(cfg, times)) <= 1e-15


class TestCrossValidation:
    def test_rabi_period_agreement(self):
        period = rabi_period(CFG_DRIVEN)
        cv = cross_validate(
            CFG_DRIVEN,
            1,
            basis_state(1, "0"),
            period,
            IntegrationSettings(period / 10_000),
        )
        assert cv.max_amp_dev <= 1e-6

    def test_driveless_case_is_exact(self):
        cfg = PhysicalConfig.natural_units(j_coupling=0.4, b_prime=0.0)
        cv = cross_validate(
            cfg, 2, basis_state(2, "10"), 5.0, IntegrationSettings(5e-4)
        )
        assert cv.max_amp_dev <= 1e-10

    def test_fourth_order_convergence(self):
        period = rabi_period(CFG_DRIVEN)
        devs = convergence_study(
            CFG_DRIVEN, 1, basis_state(1, "0"), period, period / 1_000, halvings=2
        )
        ratios = [devs[i] / devs[i + 1] for i in range(len(devs) - 1)]
        for r in ratios:
            assert r == pytest.approx(16, rel=0.3)

    def test_gate_window_corollary(self):
        # The lab propagator over the controlled-Z window reproduces the
        # evolution operator once the offset phase is applied.
        sched = gate_timing_table("cz", PhysicalConfig.natural_units())
        wcfg = sched.window_config("t1")
        duration = sched.solutions["t1"].duration
        u_lab = lab_propagator(wcfg, 2, duration, IntegrationSettings(duration / 20_000))
        gate = u_phi(2, sched.solutions["t1"], wcfg)
        dev = np.max(np.abs(np.exp(-1j * wcfg.b_prime * duration) * u_lab - gate))
        assert dev <= 1e-8

    def test_three_qubit_window_corollary(self):
        sched = gate_timing_table("ccnot", PhysicalConfig.natural_units())
        wcfg = sched.window_config("t1")
        duration = sched.solutions["t1"].duration
        u_lab = lab_propagator(wcfg, 3, duration, IntegrationSettings(duration / 10_000))
        gate = u_phi(3, sched.solutions["t1"], wcfg)
        dev = np.max(np.abs(np.exp(-1j * wcfg.b_prime * duration) * u_lab - gate))
        assert dev <= 1e-6

    def test_routes_agree_with_drive_and_exchange_together(self):
        # The closed form stays exact even when the drive and the exchange
        # term do not commute; the integrator must track it.
        cfg = PhysicalConfig.natural_units(b1=0.08, j_coupling=0.4)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 = amps / np.linalg.norm(amps)
        cv = cross_validate(cfg, 2, psi0, 30.0, IntegrationSettings(1e-3))
        assert cv.max_amp_dev <= 1e-8

    def test_active_drive_breaks_the_factored_window(self):
        # With the drive left on through a phase window, the true propagator
        # is not the product of the separate factors; the gap is order one.
        # This is why derived schedules switch the drive off in-window.
        base = PhysicalConfig.natural_units(j_coupling=2.0, b_prime=0.5)
        sched = gate_timing_table("cz", base, mode="shared-constants")
        duration = sched.solutions["t1"].duration
        driven = base.replace(b1=2 * np.pi / duration)  # one full drive cycle
        gate = u_phi(2, sched.solutions["t1"], driven)
        u_lab = lab_propagator(driven, 2, duration, IntegrationSettings(duration / 20_000))
        dev = np.max(np.abs(np.exp(-1j * driven.b_prime * duration) * u_lab - gate))
        assert dev > 1e-2


class TestTrajectory:
    def test_trajectory_shape_and_csv(self, tmp_path):
        t_final = 1.0
        times, states = integrate_lab_trajectory(
            CFG_DRIVEN, 1, basis_state(1, "0"), t_final, IntegrationSettings(0.01)
        )
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(t_final)
        assert states.shape == (len(times), 2)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(str(path), times, states)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,re_0,im_0,re_1,im_1"
        assert len(lines) == len(times) + 1
        # Values round-trip at double precision.
        first = lines[1].split(",")
        assert float(first[1]) == states[0][0].real

    def test_rabi_period_requires_drive(self):
        with pytest.raises(ValueError, match="b1"):
            rabi_period(PhysicalConfig.natural_units())


# ---------------------------------------------------------------------------
# The step-map loop against a textbook stage-form RK4
# ---------------------------------------------------------------------------

# Step counts on both sides of 64-step chunk edges. The stage-form tests
# fix the oracle's chunk rule at 64 steps for every n, so these cross edges
# at every n; the oracle's own 4-qubit chunks are tested separately.
CHUNK_EDGE_STEPS = (1, 63, 64, 65, 129)


def chunks_of_64_steps():
    """The oracle with 64-step chunks at every n, as a context manager."""
    return mock.patch.object(oracle, "_chunk_steps", lambda dim, diagonal=False: 64)


def stage_form_rk4(cfg, n, psi0, t_final, steps):
    """Classical RK4 on the state, H rebuilt at t, t + dt/2 and t + dt.

    Returns (times, states) including the initial state, like
    integrate_lab_trajectory.
    """
    dt = t_final / steps
    psi = psi0.astype(complex)
    times, states = [0.0], [psi.copy()]
    t = 0.0
    for step in range(1, steps + 1):
        h_start = lab_hamiltonian(cfg, n, t)
        h_mid = lab_hamiltonian(cfg, n, t + dt / 2)
        h_end = lab_hamiltonian(cfg, n, t + dt)
        k1 = -1j * (h_start @ psi)
        k2 = -1j * (h_mid @ (psi + (dt / 2) * k1))
        k3 = -1j * (h_mid @ (psi + (dt / 2) * k2))
        k4 = -1j * (h_end @ (psi + dt * k3))
        psi = psi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = step * dt
        times.append(t)
        states.append(psi.copy())
    return np.array(times), np.array(states)


@st.composite
def oracle_cases(draw):
    """A resonant or detuned config, a random state and a step size.

    The drive is weak, or off at n >= 2 as in every coupled phase window,
    where the oracle steps on the step maps' diagonals. dt stays under
    0.02 so dt * spectral radius is below the oracle's 0.1 stability
    limit for every drawn config at n <= 4.
    """
    drive_off = draw(st.booleans())
    n = draw(st.integers(2 if drive_off else 1, 4))
    b0 = draw(st.floats(0.5, 1.5))
    detuning = draw(st.sampled_from([1.0, 1.0, 0.8, 1.25]))
    cfg = PhysicalConfig(
        gamma=1.0,
        b0=b0,
        b1=0.0 if drive_off else b0 * draw(st.floats(0.01, 0.1)),
        omega=b0 * detuning,
        j_coupling=draw(st.floats(0.0, 0.5)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    steps = draw(st.sampled_from(CHUNK_EDGE_STEPS))
    dt = draw(st.floats(0.002, 0.02))
    return cfg, n, amps / np.linalg.norm(amps), steps * dt, steps


class TestStepMapReference:
    @given(case=oracle_cases())
    @settings(max_examples=40, deadline=None)
    def test_integrate_lab_matches_stage_form(self, case):
        cfg, n, psi0, t_final, steps = case
        settings_ = IntegrationSettings(t_final / steps)
        with chunks_of_64_steps():
            got = integrate_lab(cfg, n, psi0, t_final, settings_)
        _, ref = stage_form_rk4(cfg, n, psi0, t_final, steps)
        assert np.max(np.abs(got - ref[-1])) <= 1e-12

    @given(case=oracle_cases())
    @settings(max_examples=15, deadline=None)
    def test_trajectory_matches_stage_form_step_for_step(self, case):
        cfg, n, psi0, t_final, steps = case
        settings_ = IntegrationSettings(t_final / steps)
        with chunks_of_64_steps():
            times, states = integrate_lab_trajectory(cfg, n, psi0, t_final, settings_)
        ref_times, ref_states = stage_form_rk4(cfg, n, psi0, t_final, steps)
        assert np.array_equal(times, ref_times)
        assert states.shape == ref_states.shape
        assert np.max(np.abs(states - ref_states)) <= 1e-12

    @pytest.mark.parametrize("steps", [1, 255, 256, 257, 513])
    def test_four_qubit_chunk_edges_match_stage_form(self, steps):
        # The oracle's own chunk rule, unpatched: 256 steps per chunk at n = 4.
        assert oracle._chunk_steps(16) == 256
        cfg = PhysicalConfig(gamma=1.0, b0=1.1, b1=0.06, omega=0.9, j_coupling=0.3)
        rng = np.random.default_rng(steps)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 = amps / np.linalg.norm(amps)
        t_final = steps * 0.015
        settings_ = IntegrationSettings(t_final / steps)
        times, states = integrate_lab_trajectory(cfg, 4, psi0, t_final, settings_)
        ref_times, ref_states = stage_form_rk4(cfg, 4, psi0, t_final, steps)
        assert np.array_equal(times, ref_times)
        assert np.max(np.abs(states - ref_states)) <= 1e-12
        final = integrate_lab(cfg, 4, psi0, t_final, settings_)
        assert np.max(np.abs(final - ref_states[-1])) <= 1e-12

    @pytest.mark.parametrize("b1", [0.06, 0.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_propagator_columns_are_basis_state_integrations(self, n, b1):
        cfg = PhysicalConfig.natural_units(b1=b1, omega=0.9, j_coupling=0.3)
        t_final = 65 * 0.01
        settings_ = IntegrationSettings(0.01)
        u = lab_propagator(cfg, n, t_final, settings_)
        for col in range(2**n):
            psi = integrate_lab(cfg, n, basis_state(n, format(col, f"0{n}b")), t_final, settings_)
            assert np.array_equal(u[:, col], psi)

    def test_fourth_order_at_three_qubits_with_exchange(self):
        cfg = PhysicalConfig.natural_units(b1=0.08, j_coupling=0.4)
        rng = np.random.default_rng(7)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        devs = convergence_study(cfg, 3, amps / np.linalg.norm(amps), 20.0, 0.04, halvings=2)
        for coarse, fine in zip(devs, devs[1:]):
            assert coarse / fine == pytest.approx(16, rel=0.05)


CONVERGENCE_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"


@pytest.fixture
def convergence_script():
    spec = importlib.util.spec_from_file_location("convergence_script", CONVERGENCE_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestConvergenceScript:
    def test_exits_zero_at_fourth_order(self):
        done = subprocess.run(
            [sys.executable, str(CONVERGENCE_SCRIPT)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "observed order: 4.00" in done.stdout

    def test_exits_one_off_fourth_order(self, convergence_script, monkeypatch, capsys):
        # A third-order stepper: the deviation falls 8x per halving.
        monkeypatch.setattr(
            convergence_script, "convergence_study",
            lambda *args, halvings, **kwargs: [8.0**-k for k in range(halvings + 1)],
        )
        monkeypatch.setattr(sys, "argv", ["convergence_study.py", "--halvings", "2"])
        assert convergence_script.main() == 1
        assert "outside 4 +/- 0.2" in capsys.readouterr().err

    def test_needs_at_least_one_halving(self, convergence_script, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["convergence_study.py", "--halvings", "0"])
        with pytest.raises(SystemExit) as exc:
            convergence_script.main()
        assert exc.value.code == 2
        assert "--halvings must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Chunk propagators shared by the columns of one lab_propagator call
# ---------------------------------------------------------------------------

CFG_COUPLED = PhysicalConfig.natural_units(b1=0.06, omega=0.9, j_coupling=0.3)
CFG_DRIVE_OFF = CFG_COUPLED.replace(b1=0.0)


def drift_dt():
    """A step at dt * radius = 0.099: the 1e-4 drift limit falls near step 15000."""
    radius = float(np.max(np.abs(np.linalg.eigvalsh(lab_hamiltonian(CFG_DRIVEN, 1, 0.0)))))
    return 0.099 / radius


def first_step_past_the_drift_limit(cfg, n, psi0, steps, dt):
    """The failing step of a plain loop: one step map, one norm per step."""
    h0, a, b = oracle._drive_parts(cfg, n)
    coeffs = oracle._step_coefficients(-1j * h0, -1j * a, -1j * b, cfg.omega, dt)
    psi = psi0.astype(complex)
    step = 0
    while step < steps:
        count = min(oracle._chunk_steps(len(psi0)), steps - step)
        for r in oracle._step_maps(coeffs, cfg.omega, step * dt, dt, count):
            psi = r @ psi
            step += 1
            if abs(np.linalg.norm(psi) - 1.0) > NORM_DRIFT_LIMIT:
                return step
    return None


def three_chunk_steps(n):
    """Steps of a window of two whole chunks and a last chunk of two steps."""
    return 2 * oracle._chunk_steps(2**n) + 2


class TestSharedWindows:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_maps_built_once_per_chunk_per_window(self, n, monkeypatch):
        calls = {"step_maps": 0, "integrate_lab": 0}
        step_maps, integrate = oracle._step_maps, oracle.integrate_lab

        def counted_step_maps(*args):
            calls["step_maps"] += 1
            return step_maps(*args)

        def counted_integrate(*args):
            calls["integrate_lab"] += 1
            return integrate(*args)

        monkeypatch.setattr(oracle, "_step_maps", counted_step_maps)
        monkeypatch.setattr(oracle, "integrate_lab", counted_integrate)
        lab_propagator(CFG_COUPLED, n, three_chunk_steps(n) * 0.01, IntegrationSettings(0.01))
        assert calls == {"step_maps": 3, "integrate_lab": 2**n}  # chunk + chunk + 2 steps

    @pytest.mark.parametrize("cfg", [CFG_COUPLED, CFG_DRIVE_OFF], ids=["driven", "drive_off"])
    def test_standalone_integration_holds_one_chunk(self, cfg):
        # The whole 4-qubit window of 10 000 steps would be 41 MiB.
        settings_ = IntegrationSettings(0.01)
        for n in range(1, 5):
            psi0 = basis_state(n, "01" * (n // 2) + "0" * (n % 2))
            tracemalloc.start()
            try:
                integrate_lab(cfg, n, psi0, 10_000 * 0.01, settings_)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, (n, peak)

    @pytest.mark.parametrize("fail_at_column", [None, 2])
    def test_no_window_kept_after_the_call(self, fail_at_column, monkeypatch):
        built, columns = [], []
        step_maps, integrate = oracle._step_maps, oracle.integrate_lab

        def tracked_step_maps(*args):
            maps = step_maps(*args)
            built.append(weakref.ref(maps))
            return maps

        def failing_integrate(*args):
            if len(columns) == fail_at_column:
                raise RuntimeError("column failed")
            columns.append(integrate(*args))
            return columns[-1]

        monkeypatch.setattr(oracle, "_step_maps", tracked_step_maps)
        monkeypatch.setattr(oracle, "integrate_lab", failing_integrate)
        if fail_at_column is None:
            lab_propagator(CFG_COUPLED, 2, three_chunk_steps(2) * 0.01, IntegrationSettings(0.01))
        else:
            with pytest.raises(RuntimeError, match="column failed"):
                lab_propagator(CFG_COUPLED, 2, three_chunk_steps(2) * 0.01, IntegrationSettings(0.01))
        assert len(built) == 3
        assert oracle._shared_windows.get() is None
        gc.collect()
        assert all(ref() is None for ref in built)

    def test_drift_error_names_a_first_step_inside_a_chunk(self):
        dt = drift_dt()
        psi0 = basis_state(1, "0")
        expected = first_step_past_the_drift_limit(CFG_DRIVEN, 1, psi0, 30_000, dt)
        chunk = oracle._chunk_steps(2)
        assert expected is not None and 8 <= expected % chunk <= chunk - 8
        settings_ = IntegrationSettings(dt)
        with pytest.raises(IntegrationError, match=rf"\(step {expected}, ") as exc:
            integrate_lab(CFG_DRIVEN, 1, psi0, 30_000 * dt, settings_)
        assert f"at t={expected * dt!r} " in str(exc.value)
        with pytest.raises(IntegrationError, match=rf"\(step {expected}, "):
            lab_propagator(CFG_DRIVEN, 1, 30_000 * dt, settings_)


def diagonal_chunk_steps(n):
    """Steps of a drive-off window of two whole diagonal chunks and two steps more."""
    return 2 * oracle._chunk_steps(2**n, diagonal=True) + 2


def refuse_dense_maps(monkeypatch):
    """Make building a dense step map or its prefix products fail the test."""

    def refused(*args):
        raise AssertionError("a drive-off window built dense step maps")

    monkeypatch.setattr(oracle, "_step_maps", refused)
    monkeypatch.setattr(oracle, "_prefix_products", refused)


class TestDriveOffWindows:
    """With the drive off the step maps are diagonal, and so are their products."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_dense_step_map_is_built(self, n, monkeypatch):
        refuse_dense_maps(monkeypatch)
        t_final = diagonal_chunk_steps(n) * 0.01
        u = lab_propagator(CFG_DRIVE_OFF, n, t_final, IntegrationSettings(0.01))
        assert np.count_nonzero(u - np.diag(np.diag(u))) == 0

    def test_four_qubit_window_is_built_once_per_call(self, monkeypatch):
        # 20 000 steps of 16 diagonal entries hold 5 MiB, under
        # _SHARED_WINDOW_BYTES; as dense 16×16 maps they would hold 82 MB.
        counts = []
        prefix_products = oracle._diagonal_prefix_products

        def counted(*args):
            counts.append(args[-1])
            return prefix_products(*args)

        monkeypatch.setattr(oracle, "_diagonal_prefix_products", counted)
        lab_propagator(CFG_DRIVE_OFF, 4, 20_000 * 0.01, IntegrationSettings(0.01))
        assert counts == [4096] * 4 + [20_000 - 4 * 4096]

    def test_drift_error_names_a_first_step_inside_a_chunk(self):
        # The basis state of the largest |energy| drifts first; at
        # dt * radius = 0.099 it passes the limit in the second chunk.
        energies = np.diag(lab_hamiltonian(CFG_DRIVE_OFF, 3, 0.0)).real
        dt = 0.099 / np.max(np.abs(energies))
        psi0 = basis_state(3, format(int(np.argmax(np.abs(energies))), "03b"))
        expected = first_step_past_the_drift_limit(CFG_DRIVE_OFF, 3, psi0, 30_000, dt)
        chunk = oracle._chunk_steps(8, diagonal=True)
        assert expected is not None and chunk < expected and 8 <= expected % chunk <= chunk - 8
        settings_ = IntegrationSettings(dt)
        with pytest.raises(IntegrationError, match=rf"\(step {expected}, ") as exc:
            integrate_lab(CFG_DRIVE_OFF, 3, psi0, 30_000 * dt, settings_)
        assert f"at t={expected * dt!r} " in str(exc.value)
        with pytest.raises(IntegrationError, match=rf"\(step {expected}, "):
            lab_propagator(CFG_DRIVE_OFF, 3, 30_000 * dt, settings_)

    def test_fourth_order_at_three_qubits_with_exchange(self, monkeypatch):
        # A closed-form step would leave no dt^4 error to fall 16x per halving.
        refuse_dense_maps(monkeypatch)
        cfg = PhysicalConfig.natural_units(j_coupling=0.4)
        rng = np.random.default_rng(7)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        devs = convergence_study(cfg, 3, amps / np.linalg.norm(amps), 20.0, 0.04, halvings=2)
        for coarse, fine in zip(devs, devs[1:]):
            assert coarse / fine == pytest.approx(16, rel=0.05)


class TestBadInputsNamed:
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            IntegrationSettings(dt)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("settings_", [None, IntegrationSettings(0.01)])
    def test_non_finite_t_final(self, t_final, settings_):
        psi0 = basis_state(1, "0")
        with pytest.raises(ValueError, match="t_final must be finite"):
            integrate_lab(CFG_DRIVEN, 1, psi0, t_final, settings_)
        with pytest.raises(ValueError, match="t_final must be finite"):
            integrate_lab_trajectory(CFG_DRIVEN, 1, psi0, t_final, settings_)

    @pytest.mark.parametrize("t_final, dt", [(1e300, 1e-300), (1.0, 1e-300), (1e300, 0.01)])
    def test_step_count_overflow(self, t_final, dt):
        with pytest.raises(ValueError, match=r"t_final / dt = .* step limit"):
            integrate_lab(CFG_DRIVEN, 1, basis_state(1, "0"), t_final, IntegrationSettings(dt))

    def test_default_step_underflow_names_t_final(self):
        psi0 = basis_state(1, "0")
        message = r"t_final = 1e-320 is too small for the default step"
        with pytest.raises(ValueError, match=message):
            integrate_lab(CFG_DRIVEN, 1, psi0, 1e-320)
        with pytest.raises(ValueError, match=message):
            integrate_lab_trajectory(CFG_DRIVEN, 1, psi0, 1e-320)

    def test_tiny_t_final_with_explicit_dt_takes_one_step(self):
        times, _ = integrate_lab_trajectory(
            CFG_DRIVEN, 1, basis_state(1, "0"), 1e-320, IntegrationSettings(0.01)
        )
        assert list(times) == [0.0, 1e-320]

    def test_non_finite_sample_time(self):
        with pytest.raises(ValueError, match="sample_times must be finite, got nan"):
            check_m_constancy(CFG_DRIVEN, [0.0, math.nan])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_analytic_time(self, t):
        with pytest.raises(ValueError, match=f"t must be finite, got {t}"):
            analytic_rotating(CFG_DRIVEN, 1, basis_state(1, "0"), t)

    @pytest.mark.parametrize("cfg", [CFG_COUPLED, CFG_DRIVE_OFF], ids=["driven", "drive_off"])
    def test_non_finite_step_maps_raise_not_return_nan(self, cfg, monkeypatch):
        # Step maps that overflow give NaN states, and NaN > limit is False:
        # the drift check must fail them, not pass them. Only the diagonals
        # turn NaN, so a drive-off window keeps its diagonal path.
        step_coefficients = oracle._step_coefficients

        def nan_diagonals(*args):
            coeffs = step_coefficients(*args)
            diag = np.arange(coeffs.shape[-1])
            coeffs[:, diag, diag] = np.nan
            return coeffs

        monkeypatch.setattr(oracle, "_step_coefficients", nan_diagonals)
        with pytest.raises(IntegrationError, match=r"norm drift nan at t=0\.01 \(step 1,"):
            integrate_lab(cfg, 2, basis_state(2, "01"), 1.0, IntegrationSettings(0.01))

    def test_non_finite_hamiltonian_is_named(self):
        # At n = 4 the Zeeman term's 2·b0 overflows, and the product with
        # -gamma gives NaN imaginary parts. The window names the Hamiltonian
        # before any step, and numpy warns of nothing: tier-1 turns a
        # RuntimeWarning into an error.
        cfg = PhysicalConfig.natural_units(b0=1e308)
        message = "the lab Hamiltonian of 4 spins is not finite at gamma = 1.0, b0 = 1e+308"
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate_lab(cfg, 4, basis_state(4, "0000"), 1e-300)
        with pytest.raises(ValueError, match=re.escape(message)):
            lab_propagator(cfg, 4, 1e-300, IntegrationSettings(1e-304))

    def test_stability_check_fails_a_nan_radius(self, monkeypatch):
        monkeypatch.setattr(oracle, "_spectral_radius", lambda h: math.nan)
        with pytest.raises(ValueError, match=r"dt \* spectral_radius = nan exceeds"):
            integrate_lab(CFG_DRIVEN, 1, basis_state(1, "0"), 1.0, IntegrationSettings(0.01))

    @pytest.mark.parametrize("n", [0, 5])
    def test_propagator_names_the_system_size(self, n):
        with pytest.raises(ValueError, match=f"system size {n} outside 1..4"):
            lab_propagator(CFG_DRIVEN, n, 1.0, IntegrationSettings(0.01))


class TestStepCount:
    def test_whole_multiples_of_dt_take_that_many_steps(self):
        wrong = [s for s in range(1, 40_001) if oracle._step_count(s * 0.01, 0.01) != s]
        assert wrong == []

    def test_trajectory_of_a_whole_multiple_records_one_row_per_step(self):
        # 25603 * 0.01 / 0.01 rounds to 25603 + 3.6e-12: an absolute 1e-12 slack took 25604 steps.
        times, states = integrate_lab_trajectory(
            CFG_DRIVEN, 1, basis_state(1, "0"), 25603 * 0.01, IntegrationSettings(0.01)
        )
        assert len(times) == len(states) == 25604
        assert times[-1] == 25603 * 0.01

    @pytest.mark.parametrize("s", [1, 7, 300, 2000, 25603, 40_000, 10**6])
    def test_ratios_past_an_integer_round_up(self, s):
        assert oracle._step_count(s * (1 + 1e-9), 1.0) == s + 1
        assert oracle._step_count(s + 0.5, 1.0) == s + 1

    def test_a_span_shorter_than_dt_takes_one_step(self):
        assert oracle._step_count(0.004, 0.01) == 1

    @pytest.mark.parametrize(
        "t_final, settings, plan",
        [
            (1.0, IntegrationSettings(0.15), (7, 1 / 7)),
            (2.5, None, (10_000, 2.5 / 10_000)),
            (0.004, IntegrationSettings(0.01), (1, 0.004)),
        ],
    )
    def test_step_plan_is_the_trajectory_the_oracle_takes(self, t_final, settings, plan):
        assert oracle.step_plan(t_final, settings) == plan
        times, _ = integrate_lab_trajectory(CFG_DRIVEN, 1, basis_state(1, "0"), t_final, settings)
        assert len(times) == plan[0] + 1
        assert times[1] == plan[1]

    @pytest.mark.parametrize("t_final", [0.0, -1.0, math.nan, math.inf])
    def test_step_plan_needs_a_positive_finite_span(self, t_final):
        with pytest.raises(ValueError, match="t_final must be finite and > 0"):
            oracle.step_plan(t_final)


# ---------------------------------------------------------------------------
# Step maps from the Fourier expansion of R - I in the drive phase
# ---------------------------------------------------------------------------


def stage_form_step_maps(g0, ga, gb, omega, t0, dt, count):
    """Classical RK4 stages applied to the identity, G rebuilt at t, t + dt/2, t + dt.

    All ``count`` steps side by side: step k starts at t = t0 + k dt.
    """

    def generator(t):
        return g0 + np.cos(omega * t)[:, None, None] * ga + np.sin(omega * t)[:, None, None] * gb

    eye = np.eye(len(g0))
    t = t0 + np.arange(count) * dt
    k1 = generator(t)
    k2 = generator(t + dt / 2) @ (eye + (dt / 2) * k1)
    k3 = generator(t + dt / 2) @ (eye + (dt / 2) * k2)
    k4 = generator(t + dt) @ (eye + dt * k3)
    return eye + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


@st.composite
def generator_cases(draw):
    """Random Hermitian static and drive parts of -iH, far from any symmetry.

    Unlike a physical register, whose matrix elements carry at most n
    harmonics of the drive, these make every harmonic up to the fourth
    appear in R - I, so a truncated expansion shows.
    """
    dim = 2 ** draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(3):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (m + m.conj().T) / 2
        parts.append(-1j * h / np.linalg.norm(h, 2))
    omega = draw(st.floats(0.5, 2.0))
    dt = draw(st.floats(0.01, 0.033))  # dt * |H| <= 0.033 (1 + sqrt 2) < 0.1
    t0 = draw(st.floats(0.0, 1e4)) / omega  # drive phases up to 1e4 rad
    count = draw(st.sampled_from([1, 7, oracle._chunk_steps(dim)]))
    return (*parts, omega, t0, dt, count)


class TestFourierStepMaps:
    @given(case=generator_cases())
    @settings(max_examples=40, deadline=None)
    def test_step_maps_match_the_stage_form(self, case):
        g0, ga, gb, omega, t0, dt, count = case
        coeffs = oracle._step_coefficients(g0, ga, gb, omega, dt)
        got = oracle._step_maps(coeffs, omega, t0, dt, count)
        ref = stage_form_step_maps(g0, ga, gb, omega, t0, dt, count)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170])
    def test_coefficients_do_not_depend_on_the_decade(self, scale):
        # A step depends on dt·G and ω·dt alone: G and ω scaled by s with dt
        # scaled by 1/s must give the same coefficients, at decades where
        # products of unscaled generators underflow or overflow.
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        g0, ga, gb = -0.5j * (m + m.conj().transpose(0, 2, 1))
        ref = oracle._step_coefficients(g0, ga, gb, 1.1, 0.01)
        scaled = (scale * g0, scale * ga, scale * gb, scale * 1.1, 0.01 / scale)
        got = oracle._step_coefficients(*scaled)
        assert np.max(np.abs(got - ref)) <= 1e-15


# ---------------------------------------------------------------------------
# Prefix products in blocks of isqrt(count) steps
# ---------------------------------------------------------------------------


def random_unitaries(rng, count, dim):
    """``count`` random d×d unitaries: their products keep norm 1 at any length."""
    z = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return np.linalg.qr(z)[0]


class CountedMatmul(np.ndarray):
    """An array whose views count the products they take part in as left factor."""

    calls = 0

    def __matmul__(self, other):
        CountedMatmul.calls += 1
        return np.matmul(np.asarray(self), np.asarray(other))


class TestPrefixProducts:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_every_length_matches_the_plain_product(self, dim):
        # 1..300 holds every perfect square up to 289 and the lengths on both sides.
        rng = np.random.default_rng(dim)
        maps = random_unitaries(rng, 300, dim)
        ref = np.empty_like(maps)
        ref[0] = maps[0]
        for j in range(1, len(maps)):
            ref[j] = maps[j] @ ref[j - 1]
        for count in range(1, 301):
            got = oracle._prefix_products(maps[:count].copy())
            assert np.max(np.abs(got - ref[:count])) <= 1e-13, count

    @pytest.mark.parametrize("count", [256, 1024, 4096, 16384])
    def test_a_chunk_takes_about_two_root_count_products(self, count):
        # The chunk lengths of n = 4..1: blocks of isqrt(count) steps.
        maps = np.broadcast_to(np.eye(2, dtype=complex), (count, 2, 2)).copy()
        CountedMatmul.calls = 0
        oracle._prefix_products(maps.view(CountedMatmul))
        assert CountedMatmul.calls <= 2 * math.isqrt(count)


def site_swap(n, i, j):
    """Permutation matrix that exchanges sites i and j (qubit 1 most significant)."""
    dim = 2**n
    perm = np.zeros((dim, dim))
    for col in range(dim):
        bits = list(format(col, f"0{n}b"))
        bits[i - 1], bits[j - 1] = bits[j - 1], bits[i - 1]
        perm[int("".join(bits), 2), col] = 1.0
    return perm


class TestSiteSymmetry:
    @pytest.mark.parametrize("n", [3, 4])
    def test_propagator_commutes_with_every_site_swap(self, n):
        # Every site sees the same field and every pair the same exchange.
        u = lab_propagator(CFG_COUPLED, n, 2000 * 0.01, IntegrationSettings(0.01))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                perm = site_swap(n, i, j)
                assert np.max(np.abs(perm @ u @ perm.T - u)) <= 1e-12
