"""Dense complex matrix kernel for registers of up to four qubits.

All operators live in dimensions 2, 4, 8 or 16 and are plain complex
numpy arrays treated as immutable values: every function returns a fresh
array and never mutates its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 16
UNITARY_TOL = 1e-12
HERMITIAN_TOL = 1e-10
NORM_TOL = 1e-12

_VALID_DIMS = (2, 4, 8, 16)


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex array of an admissible dimension."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in _VALID_DIMS:
        raise ValueError(f"dimension {a.shape[0]} not in {_VALID_DIMS}")
    return a


def identity(dim: int) -> np.ndarray:
    if dim not in _VALID_DIMS:
        raise ValueError(f"dimension {dim} not in {_VALID_DIMS}")
    return np.eye(dim, dtype=complex)


def dagger(u) -> np.ndarray:
    return np.asarray(u, dtype=complex).conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor on the most significant bits.

    The product dimension must stay within the four-qubit limit of 16.
    Entry (i*q + k, j*q + l) is a[i, j] * b[k, l], formed as one broadcast
    product and reshaped, the same arithmetic as ``np.kron``.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValueError(
            f"kron product dimension {dim} exceeds the supported maximum {MAX_DIM}"
        )
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(dim, dim)


def hermiticity_defect(h) -> float:
    h = np.asarray(h, dtype=complex)
    return float(np.max(np.abs(h - h.conj().T)))


def unitarity_defect(u) -> float:
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    return unitarity_defect(u) <= tol


def require_unitary(u, tol: float = UNITARY_TOL, what: str = "matrix") -> np.ndarray:
    u = as_matrix(u)
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"{what} is not unitary: max|U†U - I| = {defect:.3e}")
    return u


def expm_pauli(generator, angle: float) -> np.ndarray:
    """Evaluate exp(i * angle * G) for a Hermitian generator G.

    When G squares to the identity the closed form cos(x)I + i sin(x)G is
    used; otherwise the exponential is taken through the spectral
    decomposition of G.
    """
    g = as_matrix(generator)
    defect = hermiticity_defect(g)
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"generator is not Hermitian: max|G - G†| = {defect:.3e}"
        )
    dim = g.shape[0]
    eye = np.eye(dim, dtype=complex)
    if np.max(np.abs(g @ g - eye)) <= 1e-12:
        return np.cos(angle) * eye + 1j * np.sin(angle) * g
    evals, evecs = np.linalg.eigh(g)
    phases = np.exp(1j * angle * evals)
    return (evecs * phases) @ evecs.conj().T


@dataclass(frozen=True)
class FidelityReport:
    """Phase-invariant comparison of two same-sized unitaries.

    ``fidelity`` is |tr(U†V)| / dim, ``global_phase_rad`` is the phase phi
    with U ≈ e^{i phi} V, and ``max_abs_dev`` is the largest entrywise
    deviation after that phase has been removed.
    """

    fidelity: float
    global_phase_rad: float
    max_abs_dev: float
    gate_label: str = ""

    def to_json_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "global_phase_rad": self.global_phase_rad,
            "max_abs_dev": self.max_abs_dev,
            "gate_label": self.gate_label,
        }


def phase_fidelity(u, v, gate_label: str = "") -> FidelityReport:
    """Compare unitaries u and v modulo a global phase.

    Fidelity 1 means u = e^{i phi} v; the reported phase is the phi that
    best aligns v with u.
    """
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    require_unitary(u, tol=1e-9, what="first operand")
    require_unitary(v, tol=1e-9, what="second operand")
    dim = u.shape[0]
    overlap = np.trace(v.conj().T @ u)
    fidelity = float(np.abs(overlap)) / dim
    phase = float(np.angle(overlap)) if np.abs(overlap) > 1e-14 else 0.0
    max_dev = float(np.max(np.abs(u - np.exp(1j * phase) * v)))
    return FidelityReport(fidelity, phase, max_dev, gate_label)


def matrix_to_json(m) -> dict:
    """Encode a matrix as {"dim": d, "rows": [[[re, im], ...], ...]}."""
    m = as_matrix(m)
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return {"dim": int(m.shape[0]), "rows": rows}


def matrix_from_json(doc: dict) -> np.ndarray:
    dim = int(doc["dim"])
    rows = doc["rows"]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError("row structure does not match declared dimension")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        for j, (re, im) in enumerate(row):
            out[i, j] = complex(re, im)
    return as_matrix(out)


def basis_state(n_qubits: int, bits: str) -> np.ndarray:
    """Computational basis state for a bitstring, qubit 1 most significant.

    '0' is spin up, '1' is spin down.
    """
    if len(bits) != n_qubits or any(b not in "01" for b in bits):
        raise ValueError(f"need a {n_qubits}-character bitstring of 0/1, got {bits!r}")
    index = int(bits, 2)
    state = np.zeros(2**n_qubits, dtype=complex)
    state[index] = 1.0
    return state


def require_normalized(state, tol: float = NORM_TOL) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state is not normalized: |psi| = {norm!r}")
    return state
