"""Tests for Pauli/spin operator construction and embeddings."""

import itertools

import numpy as np
import pytest

from spinforge.operators import (
    check_pauli_string,
    embed_pair_zz,
    embed_single,
    embed_sigma,
    exchange_sum,
    pair_sites,
    pauli,
    pauli_string,
    spin,
    total_spin,
    z_diagonal,
)
from spinforge.tensor import hermiticity_defect, unitarity_defect


def kron_chain(*mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


I2 = np.eye(2, dtype=complex)


class TestPauli:
    def test_definitions(self):
        assert np.array_equal(pauli("z"), np.diag([1, -1]))
        assert np.array_equal(pauli("x"), [[0, 1], [1, 0]])
        assert np.array_equal(pauli("y"), [[0, -1j], [1j, 0]])

    def test_hermitian_unitary_traceless(self):
        for axis in "xyz":
            p = pauli(axis)
            assert hermiticity_defect(p) == 0
            assert unitarity_defect(p) <= 1e-15
            assert np.trace(p) == 0

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            pauli("w")

    def test_spin_is_half_pauli(self):
        for axis in "xyz":
            assert np.array_equal(spin(axis), pauli(axis) / 2)


class TestEmbedSingle:
    def test_site1_of_2(self):
        assert np.allclose(
            embed_single("z", 1, 2), np.diag([0.5, 0.5, -0.5, -0.5])
        )

    def test_site2_of_2(self):
        assert np.allclose(
            embed_single("z", 2, 2), np.diag([0.5, -0.5, 0.5, -0.5])
        )

    def test_site3_of_3_by_kron_oracle(self):
        expected = kron_chain(I2, I2, pauli("x") / 2)
        assert np.array_equal(embed_single("x", 3, 3), expected)

    def test_out_of_range_site_rejected(self):
        with pytest.raises(ValueError, match="site"):
            embed_single("z", 3, 2)
        with pytest.raises(ValueError, match="system size"):
            embed_single("z", 1, 5)

    def test_eigenvalues_are_half_integers(self):
        for n in (1, 2, 3, 4):
            for site in range(1, n + 1):
                evals = np.linalg.eigvalsh(embed_single("y", site, n))
                assert np.allclose(np.sort(np.unique(np.round(evals, 12))), [-0.5, 0.5])


class TestEmbedPairZZ:
    def test_pair_12_of_2(self):
        assert np.allclose(
            embed_pair_zz(1, 2, 2), np.diag([0.25, -0.25, -0.25, 0.25])
        )

    def test_pair_13_of_3_by_kron_oracle(self):
        expected = kron_chain(pauli("z") / 2, I2, pauli("z") / 2)
        got = embed_pair_zz(1, 3, 3)
        assert np.array_equal(got, expected)
        assert np.allclose(
            np.diag(got),
            [0.25, -0.25, 0.25, -0.25, -0.25, 0.25, -0.25, 0.25],
        )

    def test_symmetric_in_sites(self):
        assert np.array_equal(embed_pair_zz(2, 1, 3), embed_pair_zz(1, 2, 3))

    def test_equal_sites_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            embed_pair_zz(2, 2, 3)

    def test_equals_product_of_singles(self):
        for n in (2, 3, 4):
            for i, j in pair_sites(n):
                prod = embed_single("z", i, n) @ embed_single("z", j, n)
                assert np.allclose(embed_pair_zz(i, j, n), prod)


class TestAlgebraicProperties:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_distinct_site_operators_commute(self, n):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for a, b in itertools.product("xyz", repeat=2):
                op_a = embed_single(a, i, n)
                op_b = embed_single(b, j, n)
                comm = op_a @ op_b - op_b @ op_a
                assert np.max(np.abs(comm)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_embedded_spin_squares_to_quarter_identity(self, n):
        for site in range(1, n + 1):
            for axis in "xyz":
                s = embed_single(axis, site, n)
                assert np.allclose(s @ s, np.eye(2**n) / 4)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pair_sum_is_diagonal(self, n):
        total = exchange_sum(n)
        off_diag = total - np.diag(np.diag(total))
        assert np.max(np.abs(off_diag)) == 0
        assert len(pair_sites(n)) == n * (n - 1) // 2

    def test_total_spin_matches_sum(self):
        for n in (1, 2, 3, 4):
            expected = sum(embed_single("x", s, n) for s in range(1, n + 1))
            assert np.allclose(total_spin("x", n), expected)


class TestPauliString:
    def test_empty_is_identity(self):
        assert np.array_equal(pauli_string({}, 2), np.eye(4))

    def test_two_site_string(self):
        expected = kron_chain(pauli("z"), I2, pauli("z"))
        assert np.array_equal(pauli_string({1: "z", 3: "z"}, 3), expected)

    def test_sigma_embedding(self):
        assert np.array_equal(embed_sigma("x", 2, 2), kron_chain(I2, pauli("x")))

    @pytest.mark.parametrize("factors", [{1: "w"}, {1: "z", 2: "X"}, {2: ""}])
    def test_unknown_axis_names_the_accepted_axes(self, factors):
        with pytest.raises(ValueError, match=r"unknown Pauli axis .*\('x', 'y', 'z'\)"):
            pauli_string(factors, 2)

    def test_sigma_embedding_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown Pauli axis 'w'"):
            embed_sigma("w", 1, 2)

    def test_single_site_result_is_a_fresh_array(self):
        out = pauli_string({1: "x"}, 1)
        out[0, 1] = 42
        assert np.array_equal(pauli("x"), [[0, 1], [1, 0]])
        assert np.array_equal(pauli_string({1: "x"}, 1), [[0, 1], [1, 0]])


class TestZDiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_pauli_string_for_every_site_subset(self, n):
        for size in range(n + 1):
            for sites in itertools.combinations(range(1, n + 1), size):
                expected = pauli_string(dict.fromkeys(sites, "z"), n).diagonal()
                assert np.array_equal(z_diagonal(sites, n), expected), sites

    def test_repeated_site_counts_once(self):
        expected = pauli_string(dict(zip((2, 2, 3), "zzz")), 3).diagonal()
        assert np.array_equal(z_diagonal((2, 2, 3), 3), expected)

    def test_result_is_read_only(self):
        diagonal = z_diagonal((1,), 2)
        with pytest.raises(ValueError):
            diagonal[0] = 5.0
        assert np.array_equal(z_diagonal((1,), 2), [1, 1, -1, -1])

    @pytest.mark.parametrize(
        "sites, n",
        [((0,), 2), ((3,), 2), ((1, 5), 4), ((-1,), 1), ((1,), 0), ((1,), 5), ((), 9)],
    )
    def test_rejects_what_pauli_string_rejects(self, sites, n):
        with pytest.raises(ValueError) as expected:
            pauli_string(dict.fromkeys(sites, "z"), n)
        with pytest.raises(ValueError) as got:
            z_diagonal(sites, n)
        assert str(got.value) == str(expected.value)


class TestCheckPauliString:
    @pytest.mark.parametrize(
        "factors, n",
        [({1: "w"}, 2), ({3: "x"}, 2), ({1: "x"}, 0), ({5: "q"}, 2), ({1: "y", 2: ""}, 2)],
    )
    def test_raises_what_pauli_string_raises(self, factors, n):
        with pytest.raises(ValueError) as expected:
            pauli_string(factors, n)
        with pytest.raises(ValueError) as got:
            check_pauli_string(factors, n)
        assert str(got.value) == str(expected.value)

    def test_accepts_a_valid_string(self):
        assert check_pauli_string({1: "x", 3: "y"}, 3) is None
