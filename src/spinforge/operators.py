"""Pauli matrices and spin-1/2 operators embedded in multi-qubit space.

Site 1 is the leftmost Kronecker factor, i.e. the most significant bit of
the basis index. Spin operators carry the 1/2 factor (S = sigma/2);
integer-angle gate formulas double angles explicitly instead.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import as_matrix, check_system_size, kron

AXES = ("x", "y", "z")

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_SIGMA = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def _sigma(axis: str) -> np.ndarray:
    try:
        return _SIGMA[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected one of {AXES}") from None


def pauli(axis: str) -> np.ndarray:
    """Standard 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    return _sigma(axis).copy()


def spin(axis: str) -> np.ndarray:
    """Spin-1/2 operator S = sigma/2."""
    return pauli(axis) / 2


def _check_site(site: int, n: int) -> None:
    check_system_size(n)
    if not 1 <= site <= n:
        raise ValueError(f"site {site} outside 1..{n}")


def _check_sites(sites: Iterable[int], n: int) -> None:
    check_system_size(n)
    for site in sites:
        _check_site(site, n)


def embed_factors(factors: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Kronecker product with the given 2x2 matrix at each listed site.

    ``factors`` maps site index (1-based) to a 2x2 matrix; unlisted sites
    get the identity. An empty mapping yields the full identity. The
    result is always a fresh array, never one of the factors.
    """
    _check_sites(factors, n)
    out = as_matrix(factors.get(1, IDENTITY_2)).copy()
    for site in range(2, n + 1):
        out = kron(out, factors.get(site, IDENTITY_2))
    return out


def pauli_string(factors: dict[int, str], n: int) -> np.ndarray:
    """Kronecker product with the given Pauli at each listed site.

    ``factors`` maps site index (1-based) to an axis; unlisted sites get
    the identity. An empty mapping yields the full identity.
    """
    return embed_factors({site: _sigma(axis) for site, axis in factors.items()}, n)


def check_pauli_string(factors: dict[int, str], n: int) -> None:
    """Raise the ValueError ``pauli_string(factors, n)`` raises, building nothing."""
    for axis in factors.values():
        _sigma(axis)
    _check_sites(factors, n)


def z_diagonal(sites: Iterable[int], n: int) -> np.ndarray:
    """Diagonal of the z string on ``sites``: ±1 per basis state, read-only.

    Entry b is (-1)^(number of listed sites whose bit of b is 1), site 1
    being the most significant bit. Sites are validated as ``pauli_string``
    validates them, and a repeated site counts once, as in
    ``pauli_string(dict(zip(sites, axes)), n)``.
    """
    sites = tuple(sites)
    _check_sites(sites, n)
    index = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for site in set(sites):
        parity ^= (index >> (n - site)) & 1
    diagonal = 1.0 - 2.0 * parity
    diagonal.flags.writeable = False
    return diagonal


def embed_sigma(axis: str, site: int, n: int) -> np.ndarray:
    """Pauli matrix on one site, identity elsewhere."""
    return pauli_string({site: axis}, n)


def embed_single(axis: str, site: int, n: int) -> np.ndarray:
    """Spin operator S_axis on one site, identity elsewhere (eigenvalues ±1/2)."""
    return embed_sigma(axis, site, n) / 2


def embed_pair_zz(i: int, j: int, n: int) -> np.ndarray:
    """Ising pair term S_zi · S_zj (diagonal, entries ±1/4), symmetric in (i, j)."""
    _check_site(i, n)
    _check_site(j, n)
    if i == j:
        raise ValueError(f"pair term needs two distinct sites, got ({i}, {j})")
    return pauli_string({i: "z", j: "z"}, n) / 4


def total_spin(axis: str, n: int) -> np.ndarray:
    """Sum of S_axis over all sites."""
    check_system_size(n)
    return sum(embed_single(axis, site, n) for site in range(1, n + 1))


def pair_sites(n: int) -> list[tuple[int, int]]:
    """All site pairs i < j, C(n, 2) of them."""
    check_system_size(n)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def exchange_sum(n: int) -> np.ndarray:
    """Sum of all Ising pair terms S_zi · S_zj over i < j (diagonal)."""
    check_system_size(n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for i, j in pair_sites(n):
        out = out + embed_pair_zz(i, j, n)
    return out
