"""SU(3) operator algebra: Gell-Mann basis, shift operators, structure constants.

Everything here is dense 3x3 complex arithmetic on numpy arrays. The basis
matrices and the derived constant tables are built once, cached, and returned
as read-only arrays, so they can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

__all__ = [
    "ATOL_EXACT",
    "ATOL_NUMERIC",
    "ConsistencyError",
    "PERMUTATION_SIGN",
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

#: Tolerance for identities that are exact in exact arithmetic.
ATOL_EXACT = 1e-14
#: Tolerance for identities reached through compounded floating arithmetic.
ATOL_NUMERIC = 1e-12

#: Sign of each permutation of (0, 1, 2): +1 if even, -1 if odd.
PERMUTATION_SIGN = {
    (0, 1, 2): 1.0, (0, 2, 1): -1.0, (1, 0, 2): -1.0,
    (1, 2, 0): 1.0, (2, 0, 1): 1.0, (2, 1, 0): -1.0,
}

_SQRT3 = np.sqrt(3.0)


class ConsistencyError(RuntimeError):
    """An internal algebraic self-check failed beyond numerical tolerance."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=1)
def gellmann_basis() -> tuple[np.ndarray, ...]:
    """Return (lambda_0, ..., lambda_8) as read-only 3x3 complex arrays.

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
    return tuple(_readonly(lam[k]) for k in range(9))


def gellmann(k: int) -> np.ndarray:
    """Return the k-th basis matrix, k in 0..8 (0 is the identity)."""
    if not 0 <= k <= 8:
        raise ValueError(f"Gell-Mann index must be in 0..8, got {k}")
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


@dataclass(frozen=True)
class StructureConstants:
    """Structure constant tables of the generator algebra, shape (8, 8, 8).

    Entry ``[l, m, n]`` refers to generators lambda_{l+1}, lambda_{m+1},
    lambda_{n+1}. ``f`` is totally antisymmetric and ``d`` totally symmetric,
    exactly: only canonically ordered index triples are evaluated with the
    trace formulas and all other entries are filled in by (anti)symmetry.
    """

    f: np.ndarray
    d: np.ndarray


def derive_structure_constants(basis) -> StructureConstants:
    """Derive f and d tables from a 9-element generator basis.

    Uses f_lmn = Tr[[lambda_l, lambda_m] lambda_n] / 4i and
    d_lmn = Tr[{lambda_l, lambda_m} lambda_n] / 4. The traces must be real
    (imaginary residue at most 1e-14) for a valid Hermitian basis; anything
    larger raises :class:`ConsistencyError`.
    """
    lam = [np.asarray(basis[k], dtype=complex) for k in range(9)]
    f = np.zeros((8, 8, 8))
    d = np.zeros((8, 8, 8))
    for triple in combinations_with_replacement(range(8), 3):
        a, b, c = (lam[i + 1] for i in triple)
        td = np.trace(anticommutator(a, b) @ c) / 4.0
        if abs(td.imag) > ATOL_EXACT:
            raise ConsistencyError(
                f"d-trace for {triple} has imaginary residue {td.imag:.3e}"
            )
        for perm in set(permutations(triple)):
            d[perm] = td.real
        if len(set(triple)) < 3:
            continue  # f vanishes identically on repeated indices
        tf = np.trace(commutator(a, b) @ c) / 4.0j
        if abs(tf.imag) > ATOL_EXACT:
            raise ConsistencyError(
                f"f-trace for {triple} has imaginary residue {tf.imag:.3e}"
            )
        for perm, sign in PERMUTATION_SIGN.items():
            f[tuple(triple[i] for i in perm)] = sign * tf.real
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
    above 1e-12 (a non-Hermitian input).
    """
    h = np.empty(9, dtype=complex)
    lam = gellmann_basis()
    h[0] = np.trace(matrix) / 3.0
    for k in range(1, 9):
        h[k] = np.einsum("ij,ji->", lam[k], matrix) / 2.0
    if np.abs(h.imag).max() > ATOL_NUMERIC:
        raise ConsistencyError(
            f"expansion coefficients not real (residue {np.abs(h.imag).max():.3e})"
        )
    return h.real.copy()
