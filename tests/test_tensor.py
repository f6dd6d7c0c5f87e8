"""Tests for the dense matrix kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinforge.tensor import (
    basis_state,
    dagger,
    expm_pauli,
    identity,
    kron,
    matrix_from_json,
    matrix_to_json,
    phase_fidelity,
    require_normalized,
    unitarity_defect,
)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_reference(a, b):
    """Naive quadruple-loop Kronecker product, the independent oracle."""
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k, j * nb + l] = a[i, j] * b[k, l]
    return out


complex_entries = st.complex_numbers(
    max_magnitude=10, allow_nan=False, allow_infinity=False
)


@st.composite
def small_matrices(draw, dim=2):
    entries = draw(
        st.lists(complex_entries, min_size=dim * dim, max_size=dim * dim)
    )
    return np.array(entries, dtype=complex).reshape(dim, dim)


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(identity(2), identity(2)), identity(4))

    def test_sigma_z_with_identity(self):
        assert np.allclose(kron(SIGMA_Z, identity(2)), np.diag([1, 1, -1, -1]))

    def test_sigma_x_squared_is_antidiagonal(self):
        got = kron(SIGMA_X, SIGMA_X)
        expected = kron_reference(SIGMA_X, SIGMA_X)
        assert np.array_equal(got, expected)
        assert np.array_equal(got, np.fliplr(np.eye(4)))

    def test_dimension_overflow_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            kron(identity(8), identity(4))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            kron(np.ones((2, 3)), identity(2))

    @given(a=small_matrices(), b=small_matrices())
    @settings(max_examples=60)
    def test_matches_reference_oracle(self, a, b):
        assert np.allclose(kron(a, b), kron_reference(a, b))

    @given(a=small_matrices(), b=small_matrices(), c=small_matrices())
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.allclose(left, right)

    @given(
        a=small_matrices(),
        b=small_matrices(),
        c=small_matrices(),
        lam=st.floats(-5, 5),
    )
    @settings(max_examples=60)
    def test_bilinear(self, a, b, c, lam):
        assert np.allclose(
            kron(a + lam * b, c), kron(a, c) + lam * kron(b, c)
        )
        assert np.allclose(
            kron(c, a + lam * b), kron(c, a) + lam * kron(c, b)
        )


# Every (left, right) factor dimension pair with a product of at most 16.
ADMISSIBLE_PAIRS = [
    (da, db) for da in (2, 4, 8, 16) for db in (2, 4, 8, 16) if da * db <= 16
]


class TestKronKernel:
    @pytest.mark.parametrize("da,db", ADMISSIBLE_PAIRS)
    def test_equals_numpy_kron_exactly(self, da, db):
        rng = np.random.default_rng(da * 100 + db)
        a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        assert np.array_equal(kron(a, b), np.kron(a, b))
        ints_a, ints_b = np.eye(da, dtype=int), np.arange(db * db).reshape(db, db)
        assert np.array_equal(kron(ints_a, ints_b), np.kron(ints_a, ints_b))

    @pytest.mark.parametrize("da,db", [(16, 2), (2, 16), (8, 4), (4, 8), (16, 16)])
    def test_products_above_sixteen_rejected(self, da, db):
        with pytest.raises(ValueError, match="exceeds"):
            kron(identity(da), identity(db))

    @pytest.mark.parametrize("shape", [(2, 3), (4, 2), (4,), (2, 2, 2)])
    def test_non_square_rejected_on_either_side(self, shape):
        with pytest.raises(ValueError, match="square"):
            kron(np.ones(shape), identity(2))
        with pytest.raises(ValueError, match="square"):
            kron(identity(2), np.ones(shape))

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_inadmissible_dimension_rejected(self, dim):
        with pytest.raises(ValueError, match="not in"):
            kron(np.eye(dim), identity(2))
        with pytest.raises(ValueError, match="not in"):
            kron(identity(2), np.eye(dim))

    @pytest.mark.parametrize("da,db", ADMISSIBLE_PAIRS)
    def test_result_never_aliases_an_input(self, da, db):
        a, b = identity(da), identity(db)
        out = kron(a, b)
        assert not np.shares_memory(out, a)
        assert not np.shares_memory(out, b)
        out[...] = 7
        assert np.array_equal(a, identity(da))
        assert np.array_equal(b, identity(db))


class TestExpmPauli:
    def test_zero_angle(self):
        assert np.allclose(expm_pauli(SIGMA_X, 0.0), identity(2))

    def test_sigma_z_quarter_turn(self):
        # e^{i pi/2 sigma_z} = i sigma_z = diag(i, -i)
        got = expm_pauli(SIGMA_Z, math.pi / 2)
        assert np.allclose(got, np.diag([1j, -1j]), atol=1e-15)

    def test_diagonal_pair_generator(self):
        # Oracle: exponentiate the diagonal entrywise.
        g = kron(SIGMA_Z, SIGMA_Z)
        angle = -math.pi / 4
        expected = np.diag(np.exp(1j * angle * np.diag(g)))
        got = expm_pauli(g, angle)
        assert np.allclose(got, expected, atol=1e-15)
        assert np.allclose(
            np.diag(got),
            [
                np.exp(-1j * math.pi / 4),
                np.exp(1j * math.pi / 4),
                np.exp(1j * math.pi / 4),
                np.exp(-1j * math.pi / 4),
            ],
        )

    def test_non_hermitian_rejected(self):
        g = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            expm_pauli(g, 1.0)

    def test_result_unitary(self):
        g = kron(SIGMA_X, SIGMA_X)
        assert unitarity_defect(expm_pauli(g, 0.7)) <= 1e-12

    @given(a=st.floats(-10, 10), b=st.floats(-10, 10))
    @settings(max_examples=80)
    def test_additive_for_identical_generator(self, a, b):
        g = kron(SIGMA_Z, SIGMA_X)
        combined = expm_pauli(g, a) @ expm_pauli(g, b)
        direct = expm_pauli(g, a + b)
        assert np.max(np.abs(combined - direct)) <= 1e-12

    @given(x=st.floats(-10, 10))
    @settings(max_examples=80)
    def test_analytic_matches_spectral_path(self, x):
        # Hermitian with G^2 = I: closed form against spectral decomposition.
        g = (SIGMA_X + SIGMA_Z) / math.sqrt(2)
        closed = math.cos(x) * identity(2) + 1j * math.sin(x) * g
        evals, evecs = np.linalg.eigh(g)
        spectral = (evecs * np.exp(1j * x * evals)) @ evecs.conj().T
        assert np.max(np.abs(closed - spectral)) <= 1e-12
        assert np.max(np.abs(expm_pauli(g, x) - spectral)) <= 1e-12

    def test_general_hermitian_uses_spectral_path(self):
        g = np.array([[1.0, 0.3], [0.3, -0.2]], dtype=complex)  # g @ g != I
        got = expm_pauli(g, 0.9)
        evals, evecs = np.linalg.eigh(g)
        expected = (evecs * np.exp(1j * 0.9 * evals)) @ evecs.conj().T
        assert np.allclose(got, expected, atol=1e-13)


class TestPhaseFidelity:
    def test_identical_inputs(self):
        r = phase_fidelity(SIGMA_X, SIGMA_X)
        assert r.fidelity == pytest.approx(1.0, abs=1e-15)
        assert r.global_phase_rad == pytest.approx(0.0, abs=1e-15)
        assert r.max_abs_dev <= 1e-15

    def test_pure_global_phase(self):
        r = phase_fidelity(SIGMA_X, -1j * SIGMA_X)
        assert r.fidelity == pytest.approx(1.0, abs=1e-15)
        assert r.global_phase_rad == pytest.approx(math.pi / 2, abs=1e-15)

    def test_traceless_product(self):
        r = phase_fidelity(identity(2), SIGMA_X)
        assert r.fidelity == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            phase_fidelity(identity(2), identity(4))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            phase_fidelity(2 * identity(2), identity(2))

    @given(phi=st.floats(-math.pi, math.pi))
    @settings(max_examples=100)
    def test_invariant_under_global_phase(self, phi):
        u = expm_pauli((SIGMA_X + SIGMA_Z) / math.sqrt(2), 0.83)
        r = phase_fidelity(u, np.exp(1j * phi) * u)
        assert r.fidelity == pytest.approx(1.0, abs=1e-12)
        assert r.max_abs_dev <= 1e-12

    @given(
        a=st.floats(-math.pi, math.pi),
        b=st.floats(-math.pi, math.pi),
        c=st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=80)
    def test_fidelity_bounded_for_random_unitaries(self, a, b, c):
        u = expm_pauli(SIGMA_X, a) @ expm_pauli(SIGMA_Z, b)
        v = expm_pauli(SIGMA_Z, c) @ expm_pauli(SIGMA_X, -b)
        r = phase_fidelity(u, v)
        assert -1e-12 <= r.fidelity <= 1 + 1e-12

    def test_report_json_shape(self):
        r = phase_fidelity(SIGMA_X, SIGMA_X, gate_label="x-check")
        doc = r.to_json_dict()
        assert set(doc) == {"fidelity", "global_phase_rad", "max_abs_dev", "gate_label"}
        assert doc["gate_label"] == "x-check"


class TestJsonEncoding:
    def test_round_trip_exact(self):
        u = expm_pauli(kron(SIGMA_X, SIGMA_Z), 0.1234567890123)
        doc = matrix_to_json(u)
        assert doc["dim"] == 4
        back = matrix_from_json(doc)
        assert np.array_equal(u, back)

    def test_bad_row_structure_rejected(self):
        with pytest.raises(ValueError, match="row structure"):
            matrix_from_json({"dim": 2, "rows": [[[1, 0]]]})


class TestStates:
    def test_basis_state_indexing(self):
        psi = basis_state(2, "10")
        assert np.array_equal(psi, [0, 0, 1, 0])

    def test_basis_state_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            basis_state(2, "2x")

    def test_normalization_guard(self):
        with pytest.raises(ValueError, match="normalized"):
            require_normalized(np.array([1.0, 1.0]))
        require_normalized(np.array([1.0, 0.0]))


def test_dagger_is_conjugate_transpose():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert np.array_equal(dagger(m), m.conj().T)
