"""Independent references and output checkers for the benchmark jobs.

Nothing here calls spinforge: targets, congruences and the closed-form
propagator are rebuilt from plain numpy and fractions, so a job passes only
when the program agrees with a second derivation. Each checker returns the
largest residual it measured and raises CheckFailed on a wrong output.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

EXACT_TOL = 1e-12       # matrices, up to a global phase
CONGRUENCE_TOL = 1e-9   # rad
ORACLE_TOL = 1e-6       # RK4 against the closed form

EXIT_OK = 0
EXIT_INFEASIBLE = 2

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_P0 = (_I2 + _Z) / 2    # |0> = spin up
_P1 = (_I2 - _Z) / 2

# Controlled-X powers of the 3- and 4-qubit circuit components.
COMPONENT_ALPHA = {
    "cx_half": Fraction(1, 2),
    "cx_neg_half": Fraction(-1, 2),
    "cx_quarter": Fraction(1, 4),
    "cx_neg_quarter": Fraction(-1, 4),
    "cnot": Fraction(1),
}
COMPONENT_SIZE = {"cx_half": 3, "cx_neg_half": 3, "cx_quarter": 4, "cx_neg_quarter": 4}


class CheckFailed(AssertionError):
    """A job's output disagrees with the benchmark's own reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Canonical gate targets
# ---------------------------------------------------------------------------

def _on_site(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for s in range(1, n + 1):
        out = np.kron(out, op if s == site else _I2)
    return out


def x_power(alpha: Fraction) -> np.ndarray:
    """Principal power of X: 1 on (|0>+|1>), e^{i pi alpha} on (|0>-|1>)."""
    return (_I2 + _X) / 2 + np.exp(1j * math.pi * float(alpha)) * (_I2 - _X) / 2


def controlled(block: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    """|0><0| on the control, or |1><1| on the control times block on the target."""
    return _on_site(_P0, control, n) + _on_site(_P1, control, n) @ _on_site(block, target, n)


def multi_controlled_x(n: int) -> np.ndarray:
    """X on qubit n when every other qubit is |1>: identity with the last two rows swapped."""
    m = np.eye(2**n, dtype=complex)
    m[[-2, -1]] = m[[-1, -2]]
    return m


def gate_target(name: str) -> np.ndarray:
    """Canonical matrix of a CLI gate name (whole gate or kind:c,t[@n])."""
    whole = {
        "not": lambda: _X.copy(),
        "hadamard_like": lambda: np.array([[1, -1], [1, 1]], dtype=complex) / math.sqrt(2),
        "cz": lambda: np.diag([1, 1, 1, -1]).astype(complex),
        "cnot": lambda: controlled(_X, 1, 2, 2),
        "ccnot": lambda: multi_controlled_x(3),
        "cccnot": lambda: multi_controlled_x(4),
    }
    if name in whole:
        return whole[name]()
    kind, _, rest = name.partition(":")
    sites, _, n_text = rest.partition("@")
    control, target = (int(s) for s in sites.split(","))
    n = int(n_text) if n_text else COMPONENT_SIZE[kind]
    return controlled(x_power(COMPONENT_ALPHA[kind]), control, target, n)


def phase_aligned_dev(u: np.ndarray, v: np.ndarray) -> float:
    """max|u - e^{i phi} v| with phi = arg tr(v^dagger u)."""
    require(u.shape == v.shape, f"shape {u.shape} != {v.shape}")
    overlap = np.trace(v.conj().T @ u)
    phase = np.angle(overlap) if abs(overlap) > 1e-14 else 0.0
    return float(np.max(np.abs(u - np.exp(1j * phase) * v)))


def matrix_from_doc(doc: dict) -> np.ndarray:
    rows = doc["rows"]
    m = np.array([[complex(re_, im) for re_, im in row] for row in rows])
    require(m.shape == (doc["dim"], doc["dim"]), "matrix rows do not match dim")
    return m


# ---------------------------------------------------------------------------
# CLI output helpers
# ---------------------------------------------------------------------------

def json_document(stdout: str) -> dict:
    """The --json document, which the CLI prints after the human summary."""
    return json.loads(stdout[stdout.find("\n{") + 1:])


def require_exit(code: int, expected: int) -> None:
    require(code == expected, f"exit code {code}, expected {expected}")


def check_build(job, code: int, stdout: str) -> float:
    """`build <name> --json`: both matrices against the canonical target."""
    require_exit(code, EXIT_OK)
    doc = json_document(stdout)
    require(doc["status"] == "ok", f"status {doc['status']!r}")
    target = gate_target(job.params["gate"])
    pulse = matrix_from_doc(doc["payload"]["pulse_matrix"])
    ideal = matrix_from_doc(doc["payload"]["ideal_matrix"])
    dev_pulse = phase_aligned_dev(pulse, target)
    dev_ideal = phase_aligned_dev(ideal, target)
    require(dev_pulse <= EXACT_TOL, f"pulse matrix off target by {dev_pulse:.3e}")
    require(dev_ideal <= EXACT_TOL, f"ideal matrix off target by {dev_ideal:.3e}")
    return max(dev_pulse, dev_ideal)


# Checks `verify <scope>` reports without --oracle, and the audit size.
VERIFY_CHECK_COUNT = {"not": 2, "cz": 1, "cnot": 1, "ccnot": 5, "cccnot": 5}
AUDIT_REPORTS = 12
_NUMBER = r"([-+0-9.eE]+)"


def check_verify(job, code: int, stdout: str) -> float:
    """`verify <scope> --json`: every expected check present, passed and in tolerance."""
    require_exit(code, EXIT_OK)
    doc = json_document(stdout)
    payload = doc["payload"]
    scope = job.params["gate"]
    require(doc["status"] == "ok" and payload["all_passed"], "verification failed")
    checks = payload["checks"]
    require(
        len(checks) == VERIFY_CHECK_COUNT[scope],
        f"{len(checks)} checks for {scope}, expected {VERIFY_CHECK_COUNT[scope]}",
    )
    worst = 0.0
    for c in checks:
        require(c["passed"], f"check failed: {c['name']}")
        for m in re.finditer(r"(?:max_dev|defect)=" + _NUMBER, c["detail"]):
            worst = max(worst, float(m.group(1)))
        for m in re.finditer(r"F=" + _NUMBER, c["detail"]):
            require(1 - float(m.group(1)) <= EXACT_TOL, f"fidelity {m.group(1)}")
        m = re.fullmatch(r"(\d+) reports", c["detail"])
        if m:
            require(int(m.group(1)) == AUDIT_REPORTS, f"{m.group(1)} audit reports")
    require(worst <= EXACT_TOL, f"reported deviation {worst:.3e}")
    return worst


# ---------------------------------------------------------------------------
# Timing congruences
# ---------------------------------------------------------------------------

def congruence_residual(coefficient: float, duration: float, k: int, residue: Fraction) -> float:
    """|coefficient * duration - (2k + residue) pi| for a non-negative integer witness."""
    require(k >= 0, f"negative witness {k}")
    return abs(coefficient * duration - (2 * k + float(residue)) * math.pi)


def _parse_residue(text: str) -> Fraction:
    return Fraction(text.removesuffix("*pi")) if text else Fraction(0)


def _check_windows(job, windows: dict[str, tuple[float, list[tuple[float, int, Fraction]]]]) -> float:
    """Congruences of every window, and each duration within its constructed bound."""
    expected = job.params["max_durations"]
    require(list(windows) == list(expected), f"windows {list(windows)}, expected {list(expected)}")
    worst = 0.0
    for label, (duration, rows) in windows.items():
        require(duration > 0, f"{label}: duration {duration!r}")
        require(
            duration <= expected[label] * (1 + 1e-12),
            f"{label}: duration {duration!r} exceeds the constructed {expected[label]!r}",
        )
        for coefficient, k, residue in rows:
            r = congruence_residual(coefficient, duration, k, residue)
            require(r <= CONGRUENCE_TOL, f"{label}: congruence residual {r:.3e} rad")
            worst = max(worst, r)
    return worst


def check_schedule_json(job, code: int, stdout: str) -> float:
    """Feasible `schedule --mode shared-constants --json`: congruences and knobs."""
    require_exit(code, EXIT_OK)
    doc = json_document(stdout)
    require(doc["status"] == "ok", f"status {doc['status']!r}")
    knobs = job.params["knob_by_kind"]
    windows = {}
    for w in doc["payload"]["windows"]:
        rows = []
        for c in w["constraints"]:
            expected = float(Fraction(c["level"])) * knobs[c["kind"]]
            require(
                abs(c["coefficient"] - expected) <= 1e-12 * max(expected, 1e-300),
                f"{w['segment']}: {c['kind']} coefficient {c['coefficient']!r}, "
                f"expected {expected!r}",
            )
            rows.append((c["coefficient"], c["witness"], Fraction(c["residue_over_pi"])))
        windows[w["segment"]] = (w["duration_seconds"], rows)
    return _check_windows(job, windows)


def check_schedule_csv(job, code: int, stdout: str) -> float:
    """Derive-constants `schedule --csv`: every CSV row meets its congruence."""
    require_exit(code, EXIT_OK)
    lines = stdout.strip().splitlines()
    require(lines[0] == "gate,segment,coefficient,residue,witness,duration_seconds", "CSV header")
    windows: dict[str, tuple[float, list]] = {}
    for line in lines[1:]:
        gate, label, coeff, residue, k, duration = line.split(",")
        require(gate == job.params["gate"], f"gate column {gate!r}")
        if not coeff:
            continue  # totals row
        rows = windows.setdefault(label, (float(duration), []))[1]
        rows.append((float(coeff), int(k), _parse_residue(residue)))
    return _check_windows(job, windows)


_CONGRUENCE = re.compile(r"\*t(?:/\d+)? = ")


def check_infeasible(job, code: int, stdout: str) -> float:
    """Expected-infeasible schedule: exit code 2 and a named congruence."""
    require_exit(code, EXIT_INFEASIBLE)
    doc = json_document(stdout)
    require(doc["status"] == "infeasible", f"status {doc['status']!r}")
    message = doc["payload"]["message"]
    require(bool(_CONGRUENCE.search(message)), f"no congruence named in {message!r}")
    return 0.0


# ---------------------------------------------------------------------------
# Closed-form rotating-frame dynamics
# ---------------------------------------------------------------------------

def _sz_diag(n: int) -> np.ndarray:
    """Per-basis-state S_z of every site; bit 0 is spin up (+1/2), qubit 1 most significant."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    return 0.5 - bits


def closed_form_propagator(knobs: dict, n: int, t: float) -> np.ndarray:
    """exp(i w t sum Sz) exp(-i H_R t), with the time-independent rotating-frame H_R.

    H_R = -gamma [(b0 - w/gamma) sum Sz + b1 sum Sx] + J sum_{i<j} Szi Szj.
    """
    gamma, b0, b1 = knobs["gamma"], knobs["b0"], knobs["b1"]
    omega, j = knobs["omega"], knobs["j"]
    sz = _sz_diag(n)
    sz_total = sz.sum(axis=1)
    zz = sum(sz[:, i] * sz[:, k] for i in range(n) for k in range(i + 1, n)) if n > 1 else 0.0
    sx_total = sum(_on_site(_X / 2, site, n) for site in range(1, n + 1))
    h_r = np.diag(-gamma * (b0 - omega / gamma) * sz_total + j * zz) - gamma * b1 * sx_total
    evals, evecs = np.linalg.eigh(h_r)
    inner = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    return np.exp(1j * omega * t * sz_total)[:, None] * inner


def check_propagator(job, result: dict) -> float:
    """RK4 window propagator against the closed form, and against u_phi with the offset phase."""
    n, t = job.params["n"], result["duration"]
    u_lab = result["u_lab"]
    exact = closed_form_propagator(result["knobs"], n, t)
    dev_exact = float(np.max(np.abs(u_lab - exact)))
    phased = np.exp(-1j * result["knobs"]["b_prime"] * t) * u_lab
    dev_gate = float(np.max(np.abs(phased - result["u_gate"])))
    require(dev_exact <= ORACLE_TOL, f"lab propagator off the closed form by {dev_exact:.3e}")
    require(dev_gate <= ORACLE_TOL, f"lab propagator off u_phi by {dev_gate:.3e}")
    return max(dev_exact, dev_gate)


def check_simulate(job, code: int, stdout: str) -> float:
    """`simulate --json`: final amplitudes against the closed-form state."""
    require_exit(code, EXIT_OK)
    doc = json_document(stdout)
    require(doc["status"] == "ok", f"status {doc['status']!r}")
    p = job.params
    amplitudes = np.array([complex(re_, im) for re_, im in doc["payload"]["amplitudes"]])
    psi0 = np.zeros(2 ** p["n"], dtype=complex)
    psi0[int(p["psi0"], 2)] = 1.0
    exact = closed_form_propagator(p["knobs"], p["n"], p["t_final"]) @ psi0
    require(amplitudes.shape == exact.shape, f"{amplitudes.size} amplitudes")
    dev = float(np.max(np.abs(amplitudes - exact)))
    require(dev <= ORACLE_TOL, f"final state off the closed form by {dev:.3e}")
    return dev


# Per-layer residual metric of each checker, and the tolerance of each metric.
RESIDUAL_METRIC = {
    check_build: "gates.max_dev",
    check_schedule_json: "timing.max_residual_rad",
    check_schedule_csv: "timing.max_residual_rad",
    check_propagator: "oracle.max_dev",
    check_simulate: "oracle.max_dev",
}
TOLERANCE = {
    "gates.max_dev": EXACT_TOL,
    "timing.max_residual_rad": CONGRUENCE_TOL,
    "oracle.max_dev": ORACLE_TOL,
}
