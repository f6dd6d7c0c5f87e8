"""Independent dynamics ground truth.

Two routes to the same state: fixed-step RK4 integration of the
time-dependent lab-frame Schrödinger equation, and the closed-form
rotating-frame solution (outer Larmor factor times the exponential of the
time-independent rotating-frame Hamiltonian). The closed form is exact --
the circularly polarized drive makes the frame change exact, not an
approximation -- so the integrator is validated against it and the gate
layer is validated against both.
"""
from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .config import PhysicalConfig
from .hamiltonians import lab_hamiltonian, rotating_hamiltonian
from .operators import check_system_size, spin, total_spin
from .tensor import basis_state, identity, require_normalized

STABILITY_LIMIT = 0.1       # dt * spectral radius of H must stay below this
NORM_DRIFT_LIMIT = 1e-4     # norm drift that counts as unstable
MAX_STEPS = 10**9           # largest step count one integration accepts
_CHUNK_BYTES = 1 << 20      # bytes of RK4 step maps built per batch
_HARMONICS = 4              # degree in the drive phase of one RK4 step's map
_SHARED_WINDOW_BYTES = 64 << 20  # largest window lab_propagator keeps for its columns

# Windows shared by the columns of one lab_propagator call, keyed by
# (cfg, n, n_steps, dt); None outside such a call.
_shared_windows: ContextVar[dict | None] = ContextVar("_shared_windows", default=None)


class IntegrationError(RuntimeError):
    """Step-size instability detected during integration."""


@dataclass(frozen=True)
class IntegrationSettings:
    """Fixed-step RK4 controls.

    States are never renormalized: the natural RK4 norm drift is O(dt^5)
    per step and stays far below tolerance at sane step sizes.
    """

    dt: float

    def __post_init__(self):
        if not math.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


def _drive_parts(cfg: PhysicalConfig, n: int):
    """Static part and the two quadrature parts of the lab Hamiltonian."""
    h0 = lab_hamiltonian(cfg.replace(b1=0.0), n, 0.0)
    sx = total_spin("x", n)
    sy = total_spin("y", n)
    a = -cfg.gamma * cfg.b1 * sx
    b = cfg.gamma * cfg.b1 * sy
    return h0, a, b


def _spectral_radius(h: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def _harmonics(phases):
    """Rows [1, cos mθ, sin mθ for m = 1.._HARMONICS], one row per phase θ."""
    m_theta = np.multiply.outer(phases, np.arange(1, _HARMONICS + 1))
    rows = np.empty((len(phases), 2 * _HARMONICS + 1))
    rows[:, 0] = 1.0
    np.cos(m_theta, out=rows[:, 1 : _HARMONICS + 1])
    np.sin(m_theta, out=rows[:, _HARMONICS + 1 :])
    return rows


def _step_coefficients(g0, ga, gb, omega, dt):
    """Fourier coefficients of the RK4 increment R(θ) - I in the drive phase θ.

    The generator G = -iH = g0 + cos(θ) ga + sin(θ) gb is taken at the
    phases θ, θ + ω dt/2 and θ + ω dt of one step's start, middle and end.
    With A1, A2, A4 those three generators, the classical stages applied to
    the identity are M1 = A2 (I + dt/2 A1), M2 = A2 (I + dt/2 M1),
    M3 = A4 (I + dt M2), and R = I + dt/6 (A1 + 2 M1 + 2 M2 + M3): the
    textbook RK4 step. R - I is a product of at most four G's, so it is a
    trig polynomial of degree _HARMONICS in θ. Sampled at 2·_HARMONICS + 1
    equally spaced phases, a discrete Fourier sum recovers it exactly.
    Returns the coefficient matrices stacked in the order of _harmonics.
    """
    samples = 2 * _HARMONICS + 1
    theta = 2 * np.pi * np.arange(samples) / samples
    wt = theta[:, None] + (omega * dt / 2) * np.arange(3)
    g = g0 + np.cos(wt)[..., None, None] * ga + np.sin(wt)[..., None, None] * gb
    a1, a2, a4 = g[:, 0], g[:, 1], g[:, 2]
    m1 = a2 + (dt / 2) * (a2 @ a1)
    m2 = a2 + (dt / 2) * (a2 @ m1)
    m3 = a4 + dt * (a4 @ m2)
    increments = (dt / 6) * (a1 + 2 * m1 + 2 * m2 + m3)
    fourier = _harmonics(theta).T * (2 / samples)
    fourier[0] /= 2  # the constant term has weight 1/samples
    return (fourier @ increments.reshape(samples, -1)).reshape(samples, *g0.shape)


def _step_maps(coeffs, omega, t0, dt, count):
    """RK4 step maps R_k, psi_{k+1} = R_k psi_k, of ``count`` steps from t0.

    Each R_k is I plus the increment expansion of _step_coefficients at the
    step's drive phase ω (t0 + k dt): one real product of the (count, 9)
    harmonics with the coefficients' real and imaginary parts.
    """
    dim = coeffs.shape[-1]
    flat = coeffs.reshape(len(coeffs), -1).view(float)
    phases = omega * (t0 + np.arange(count) * dt)
    maps = (_harmonics(phases) @ flat).view(complex)
    maps[:, :: dim + 1] += 1
    return maps.reshape(count, dim, dim)


def _chunk_steps(dim):
    """Steps per chunk of step maps: as many d×d complex maps as fit _CHUNK_BYTES."""
    return _CHUNK_BYTES // (16 * dim * dim)


def _prefix_products(p):
    """Turn step maps R_1, R_2, ... into P_j = R_j ... R_1, in place.

    Blocks of isqrt(len(p)) steps take their prefixes side by side, then
    each block takes the product of the blocks before it, and the few
    steps past the last whole block follow one by one: about 2·√len(p)
    products instead of one Python-level product per step. A block's
    prefixes, stacked row-wise, take that carry as one (size·d)×d by d×d
    product.
    """
    size = math.isqrt(len(p))
    full = len(p) - len(p) % size
    dim = p.shape[-1]
    blocks = p[:full].reshape(-1, size, dim, dim)
    for j in range(1, size):
        blocks[:, j] = blocks[:, j] @ blocks[:, j - 1]
    flat = blocks.reshape(len(blocks), -1, dim)
    for i in range(1, len(blocks)):
        flat[i] = flat[i] @ blocks[i - 1, -1]
    for j in range(full, len(p)):
        p[j] = p[j] @ p[j - 1]
    return p


def _chunk_propagators(g0, ga, gb, omega, dt, n_steps):
    """Per chunk of steps, the prefix products P_j = R_j ... R_1 of its step maps.

    P_j advances the state at the chunk's start by j steps. Each chunk is
    yielded as its P_j stacked row-wise, so all the chunk's states come
    from one matrix-vector product. The step maps' Fourier coefficients
    are fixed once for the whole window.
    """
    dim = g0.shape[0]
    steps = _chunk_steps(dim)
    coeffs = _step_coefficients(g0, ga, gb, omega, dt)
    for start in range(0, n_steps, steps):
        count = min(steps, n_steps - start)
        p = _prefix_products(_step_maps(coeffs, omega, start * dt, dt, count))
        yield p.reshape(count * dim, dim)


def _window(cfg, n, n_steps, dt):
    """The chunk propagators of a window, after the stability check.

    Inside lab_propagator the first column builds the whole window and the
    other columns reuse it; elsewhere the chunks are built one at a time.
    """
    shared = _shared_windows.get()
    key = (cfg, n, n_steps, dt)
    if shared is not None and key in shared:
        return shared[key]
    h0, a, b = _drive_parts(cfg, n)
    radius = _spectral_radius(h0 + a)  # H(0): cos 0 = 1, sin 0 = 0
    if dt * radius > STABILITY_LIMIT:
        raise ValueError(
            f"dt * spectral_radius = {dt * radius:.3g} exceeds the "
            f"stability heuristic {STABILITY_LIMIT}; shrink dt"
        )
    chunks = _chunk_propagators(-1j * h0, -1j * a, -1j * b, cfg.omega, dt, n_steps)
    if shared is None or n_steps * 16 * 4**n > _SHARED_WINDOW_BYTES:
        return chunks
    shared[key] = list(chunks)
    return shared[key]


def _step_count(t_final, dt):
    """Fixed RK4 steps that cover t_final with steps no longer than dt.

    The slack is relative: a ratio t_final / dt up to 1e-12·ratio above an
    integer s gives s steps, so t_final = s·dt takes s steps however its
    division rounds. An absolute slack gives such a t_final an extra step
    once s is in the tens of thousands.
    """
    ratio = t_final / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(
            f"t_final / dt = {ratio:.3g} steps exceeds the step limit {MAX_STEPS}"
        )
    return max(1, math.ceil(ratio * (1 - 1e-12)))


def step_plan(
    t_final: float, settings: IntegrationSettings | None = None
) -> tuple[int, float]:
    """The RK4 step count and step length that cover t_final > 0.

    The step is t_final / n_steps, at most ``settings.dt``; without
    settings the requested step is t_final / 10000.
    """
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
    if settings is None:
        default_dt = t_final / 10_000
        if default_dt == 0:
            raise ValueError(
                f"t_final = {t_final!r} is too small for the default step "
                "t_final / 10000, which underflows to 0; give dt explicitly"
            )
        settings = IntegrationSettings(dt=default_dt)
    n_steps = _step_count(t_final, settings.dt)
    return n_steps, t_final / n_steps


def _integrate(cfg, n, psi0, t_final, settings, record=None):
    psi = require_normalized(psi0).astype(complex)
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < 0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if record is not None:
        record.append((0.0, psi.copy()))
    if t_final == 0:
        return psi
    n_steps, dt = step_plan(t_final, settings)

    step = 0
    for stacked in _window(cfg, n, n_steps, dt):
        raw = (stacked @ psi).reshape(-1, len(psi))
        pairs = raw.view(float)  # re, im side by side
        drift = np.abs(np.sqrt(np.einsum("ij,ij->i", pairs, pairs)) - 1.0)
        if not drift.max() <= NORM_DRIFT_LIMIT:  # a NaN drift fails too
            first_bad = int(np.argmax(~(drift <= NORM_DRIFT_LIMIT)))
            at = step + 1 + first_bad
            raise IntegrationError(
                f"norm drift {drift[first_bad]:.3e} at t={at * dt!r} (step {at}, "
                f"dt={dt!r}); the step size is unstable"
            )
        if record is not None:
            record.extend(((step + 1 + j) * dt, state) for j, state in enumerate(raw))
        psi = raw[-1]
        step += len(raw)
    return psi


def integrate_lab(
    cfg: PhysicalConfig,
    n: int,
    psi0: np.ndarray,
    t_final: float,
    settings: IntegrationSettings | None = None,
) -> np.ndarray:
    """Integrate the lab-frame Schrödinger equation with fixed-step RK4.

    The Hamiltonian is evaluated at the sub-step times, so the drive's
    explicit time dependence is honored to full fourth order.
    """
    return _integrate(cfg, n, psi0, t_final, settings)


def integrate_lab_trajectory(
    cfg: PhysicalConfig,
    n: int,
    psi0: np.ndarray,
    t_final: float,
    settings: IntegrationSettings | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Like integrate_lab but returns (times, states) for every step."""
    record: list[tuple[float, np.ndarray]] = []
    _integrate(cfg, n, psi0, t_final, settings, record=record)
    times = np.array([t for t, _ in record])
    states = np.array([s for _, s in record])
    return times, states


def write_trajectory_csv(path: str, times: np.ndarray, states: np.ndarray) -> None:
    dim = states.shape[1]
    header = "t," + ",".join(f"re_{i},im_{i}" for i in range(dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for t, state in zip(times, states):
            cells = [repr(float(t))]
            for z in state:
                cells.append(repr(float(z.real)))
                cells.append(repr(float(z.imag)))
            fh.write(",".join(cells) + "\n")


def analytic_rotating(
    cfg: PhysicalConfig,
    n: int,
    psi0: np.ndarray,
    t: float,
    include_offset: bool = False,
) -> np.ndarray:
    """Closed-form state at time t via the rotating frame.

    psi(t) = exp(i w t sum S_z) exp(-i H_R t) psi(0), with H_R the
    time-independent rotating-frame Hamiltonian. Exact for any detuning;
    no time discretization enters. With ``include_offset`` the constant
    reference energy B' multiplies in the bookkeeping phase exp(-i B' t).
    """
    psi = require_normalized(psi0).astype(complex)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    h_r = rotating_hamiltonian(cfg, n, with_offset=False)
    evals, evecs = np.linalg.eigh(h_r)
    inner = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    sz_diag = np.diag(total_spin("z", n)).real
    outer = np.exp(1j * cfg.omega * t * sz_diag)
    result = outer * (inner @ psi)
    if include_offset:
        result = result * np.exp(-1j * cfg.b_prime * t)
    return result


def check_m_constancy(cfg: PhysicalConfig, sample_times) -> float:
    """Max deviation of the frame-rotated drive direction from S_x.

    M(t) = exp(-i w t S_z) (S_x cos wt - S_y sin wt) exp(i w t S_z) is
    time independent and equals S_x; this measures how far the identity
    holds at the sampled times.
    """
    times = list(sample_times)
    if not times:
        raise ValueError("need at least one sample time")
    sx, sy, sz = spin("x"), spin("y"), spin("z")
    worst = 0.0
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"sample_times must be finite, got {t}")
        wt = cfg.omega * t
        frame = np.diag(np.exp(-1j * wt * np.diag(sz)))
        drive = math.cos(wt) * sx - math.sin(wt) * sy
        m = frame @ drive @ frame.conj().T
        worst = max(worst, float(np.max(np.abs(m - sx))))
    return worst


@dataclass(frozen=True)
class CrossValidation:
    """Elementwise agreement between the integrated and closed-form states."""

    max_amp_dev: float
    integrated: np.ndarray
    analytic: np.ndarray


def cross_validate(
    cfg: PhysicalConfig,
    n: int,
    psi0: np.ndarray,
    t_final: float,
    settings: IntegrationSettings | None = None,
) -> CrossValidation:
    """Run both propagation routes and report their maximum deviation."""
    integrated = integrate_lab(cfg, n, psi0, t_final, settings)
    analytic = analytic_rotating(cfg, n, psi0, t_final)
    dev = float(np.max(np.abs(integrated - analytic)))
    return CrossValidation(dev, integrated, analytic)


def convergence_study(
    cfg: PhysicalConfig,
    n: int,
    psi0: np.ndarray,
    t_final: float,
    base_dt: float,
    halvings: int = 2,
) -> list[float]:
    """Cross-validation deviations at base_dt, base_dt/2, ... (RK4: ~16x per halving)."""
    devs = []
    dt = base_dt
    for _ in range(halvings + 1):
        devs.append(cross_validate(cfg, n, psi0, t_final, IntegrationSettings(dt)).max_amp_dev)
        dt /= 2
    return devs


def lab_propagator(
    cfg: PhysicalConfig,
    n: int,
    duration: float,
    settings: IntegrationSettings | None = None,
) -> np.ndarray:
    """Lab-frame propagator over a window, column by column from basis states.

    The columns share one set of chunk propagators, built by the first
    column and freed when this returns.
    """
    check_system_size(n)
    dim = 2**n
    u = identity(dim)
    token = _shared_windows.set({})
    try:
        for col in range(dim):
            bits = format(col, f"0{n}b")
            u[:, col] = integrate_lab(cfg, n, basis_state(n, bits), duration, settings)
    finally:
        _shared_windows.reset(token)
    return u


def rabi_period(cfg: PhysicalConfig) -> float:
    """Duration of one full population cycle at resonance: 2 pi / (gamma B1)."""
    if cfg.b1 <= 0:
        raise ValueError("rabi period needs a positive drive amplitude b1")
    return 2 * math.pi / (cfg.gamma * cfg.b1)
