"""SU(3) operator algebra: Gell-Mann basis, shift operators, structure constants.

Everything here is dense 3x3 complex arithmetic on numpy arrays. The basis
matrices and the derived constant tables are built once, cached, and returned
as read-only arrays, so they can be shared freely between threads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import _SQRT3, ATOL_EXACT, ATOL_NUMERIC

__all__ = [
    "ConsistencyError",
    "StructureConstants",
    "anticommutator",
    "commutator",
    "derive_structure_constants",
    "gellmann",
    "gellmann_basis",
    "gellmann_coefficients",
    "shift_operator",
    "structure_constants",
]


class ConsistencyError(RuntimeError):
    """An internal algebraic self-check failed beyond numerical tolerance."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=1)
def gellmann_basis() -> np.ndarray:
    """Return lambda_0, ..., lambda_8 as one read-only (9, 3, 3) complex array.

    lambda_0 is the identity; lambda_1..lambda_8 are the traceless Hermitian
    generators normalized so that Tr[lambda_k lambda_l] = 2 delta_kl.
    """
    lam = np.zeros((9, 3, 3), dtype=complex)
    lam[0] = np.eye(3)
    lam[1] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    lam[2] = [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]
    lam[3] = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    lam[4] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
    lam[5] = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
    lam[6] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    lam[7] = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
    lam[8] = np.diag([1.0, 1.0, -2.0]) / _SQRT3
    return _readonly(lam)


def _gellmann_traces(m: np.ndarray) -> np.ndarray:
    """Tr[lambda_k m] for k = 0..8 of a matrix or stack: (..., 3, 3) -> complex (..., 9)."""
    return np.einsum("kij,...ji->...k", gellmann_basis(), m)


def _real_part(values: np.ndarray, what: str, tol: float) -> np.ndarray:
    """A real copy of ``values``; ConsistencyError if any imaginary part is NaN or above ``tol``."""
    residue = np.abs(values.imag).max(initial=0.0)  # 0 for an empty stack; NaN still propagates
    if not residue <= tol:
        raise ConsistencyError(f"{what} not real (residue {residue:.3e})")
    return values.real.copy()


def gellmann(k: int) -> np.ndarray:
    """Return the k-th basis matrix, k in 0..8 (0 is the identity)."""
    # numpy would take a bool as a mask, not as an index.
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= 8:
        raise ValueError(f"Gell-Mann index must be an integer in 0..8, got {k}")
    return gellmann_basis()[k]


_SHIFT_PATTERNS = {
    # (row, col) of the single unit entry for the raising operator, and the
    # diagonal of the corresponding "three" operator.
    "T": ((0, 1), (1.0, -1.0, 0.0)),
    "V": ((0, 2), (1.0, 0.0, -1.0)),
    "U": ((1, 2), (0.0, 1.0, -1.0)),
}


@lru_cache(maxsize=None)
def shift_operator(family: str, kind: str) -> np.ndarray:
    """Return a shift operator of the T (1-2), V (1-3), or U (2-3) family.

    ``kind`` is one of ``plus``, ``minus``, ``three``. The plus operator of
    each family maps the lower basis state of its transition to the upper one
    (e.g. T_plus |2> = |1>); minus is its adjoint and three is diagonal.
    """
    if family not in _SHIFT_PATTERNS:
        raise ValueError(f"unknown shift family {family!r}, expected T, V, or U")
    (row, col), diag = _SHIFT_PATTERNS[family]
    op = np.zeros((3, 3), dtype=complex)
    if kind == "plus":
        op[row, col] = 1.0
    elif kind == "minus":
        op[col, row] = 1.0
    elif kind == "three":
        op[np.diag_indices(3)] = diag
    else:
        raise ValueError(f"unknown shift kind {kind!r}, expected plus, minus, or three")
    return _readonly(op)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return the commutator a b - b a."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return the anticommutator a b + b a."""
    return a @ b + b @ a


class StructureConstants(NamedTuple):
    """Structure constant tables of the generator algebra, shape (8, 8, 8).

    Entry ``[l, m, n]`` refers to generators lambda_{l+1}, lambda_{m+1},
    lambda_{n+1}. ``f`` is totally antisymmetric and ``d`` totally symmetric,
    exactly (see :func:`derive_structure_constants`).
    """

    f: np.ndarray
    d: np.ndarray


def _by_sorted_index(table: np.ndarray, antisymmetric: bool) -> np.ndarray:
    """Each [l, m, n] read at its sorted triple, times sign((m-l)(n-l)(n-m)) if antisymmetric."""
    index = np.indices(table.shape)
    l, m, n = index
    # (lo, mid, hi) by reductions: np.sort would page in numpy's SIMD sorts, 0.3 MB of RSS.
    lo, hi = index.min(axis=0), index.max(axis=0)
    out = table[lo, index.sum(axis=0) - lo - hi, hi]
    return out * np.sign((m - l) * (n - l) * (n - m)) if antisymmetric else out


def derive_structure_constants(basis) -> StructureConstants:
    """Derive f and d tables from a 9-element generator basis.

    ``basis`` must have shape (9, 3, 3), or ValueError is raised. From the
    traces T_lmn = Tr[lambda_l lambda_m lambda_n] (one contraction),
    f_lmn = Tr[[lambda_l, lambda_m] lambda_n] / 4i = (T_lmn - T_mln) / 4i and
    d_lmn = Tr[{lambda_l, lambda_m} lambda_n] / 4 = (T_lmn + T_mln) / 4. Each
    entry is read at its sorted index triple (f times the permutation's sign),
    so f is exactly antisymmetric and d exactly symmetric, whatever the rounding.
    The traces must be real (imaginary residue at most 1e-14) for a valid
    Hermitian basis; anything larger, or NaN, raises :class:`ConsistencyError`.
    """
    lam = np.asarray(basis, dtype=complex)
    if lam.shape != (9, 3, 3):
        raise ValueError(f"a generator basis must have shape (9, 3, 3), got {lam.shape}")
    t = np.einsum("lij,mjk,nki->lmn", lam[1:], lam[1:], lam[1:])
    d = _real_part(_by_sorted_index((t + t.swapaxes(0, 1)) / 4.0, False), "d-traces", ATOL_EXACT)
    f = _real_part(_by_sorted_index((t - t.swapaxes(0, 1)) / 4.0j, True), "f-traces", ATOL_EXACT)
    return StructureConstants(f=_readonly(f), d=_readonly(d))


@lru_cache(maxsize=1)
def structure_constants() -> StructureConstants:
    """Structure constants of the canonical basis, derived once and cached."""
    return derive_structure_constants(gellmann_basis())


def gellmann_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Expand a Hermitian 3x3 matrix as h_0 lambda_0 + sum_k h_k lambda_k.

    Returns the real coefficient vector (h_0, ..., h_8) with
    h_0 = Tr[H] / 3 and h_k = Tr[lambda_k H] / 2 for k >= 1. Raises
    :class:`ConsistencyError` if any coefficient has an imaginary residue
    above 1e-12 (a non-Hermitian input) or a NaN one (a non-finite input).
    """
    h = _gellmann_traces(matrix) / np.array([3.0] + [2.0] * 8)
    return _real_part(h, "expansion coefficients", ATOL_NUMERIC)
