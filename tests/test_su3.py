import itertools
import math

import numpy as np
import pytest

from qutrit_bloch import checks
from qutrit_bloch.model import F_REFERENCE, PERMUTATION_SIGN
from qutrit_bloch.su3 import (
    ConsistencyError,
    anticommutator,
    commutator,
    derive_structure_constants,
    gellmann,
    gellmann_basis,
    gellmann_coefficients,
    shift_operator,
    structure_constants,
)

SQ3 = math.sqrt(3.0)

def test_gellmann_explicit_matrices():
    assert np.array_equal(gellmann(0), np.eye(3))
    assert np.array_equal(gellmann(1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert np.allclose(gellmann(8), np.diag([1, 1, -2]) / SQ3, atol=1e-16)


def test_gellmann_index_out_of_range():
    with pytest.raises(ValueError):
        gellmann(9)
    with pytest.raises(ValueError):
        gellmann(-1)


@pytest.mark.parametrize("k", [1.5, np.float64(2.0), "3", True],
                         ids=["float", "numpy-float", "str", "bool"])
def test_gellmann_refuses_non_integer_index(k):
    with pytest.raises(ValueError, match="must be an integer in 0..8"):
        gellmann(k)
    assert np.array_equal(gellmann(np.int64(3)), gellmann(3))


def test_basis_is_readonly():
    lam = gellmann_basis()
    assert type(lam) is np.ndarray and lam.shape == (9, 3, 3) and lam.dtype == complex
    assert not lam.flags.writeable
    assert len(lam) == 9 and all(np.array_equal(m, gellmann(k)) for k, m in enumerate(lam))
    with pytest.raises(ValueError):
        gellmann(3)[0, 0] = 5.0


def test_shift_operator_examples():
    e = np.eye(3)
    assert np.array_equal(shift_operator("T", "plus") @ e[1], e[0])
    assert np.array_equal(shift_operator("V", "three"), np.diag([1.0, 0.0, -1.0]))
    assert np.array_equal(shift_operator("U", "plus") @ e[0], np.zeros(3))


@pytest.mark.parametrize("family", ["T", "V", "U"])
def test_shift_plus_minus_adjoint(family):
    plus = shift_operator(family, "plus")
    minus = shift_operator(family, "minus")
    assert np.array_equal(minus, plus.conj().T)
    three = shift_operator(family, "three")
    assert np.array_equal(three, three.conj().T)


def test_commutator_basics():
    t_plus = shift_operator("T", "plus")
    assert np.array_equal(commutator(t_plus, t_plus), np.zeros((3, 3)))
    lam = gellmann_basis()
    assert np.abs(commutator(lam[1], lam[2]) - 2j * lam[3]).max() <= 1e-14


def test_structure_constant_exact_symmetry():
    sc = structure_constants()
    assert np.array_equal(sc.f, -np.transpose(sc.f, (1, 0, 2)))
    assert np.array_equal(sc.f, -np.transpose(sc.f, (0, 2, 1)))
    assert np.array_equal(sc.d, np.transpose(sc.d, (1, 0, 2)))
    assert np.array_equal(sc.d, np.transpose(sc.d, (0, 2, 1)))


def reference_structure_constants(lam):
    """The per-triple trace loop the one T_lmn contraction must match bit for bit."""
    f = np.zeros((8, 8, 8), dtype=complex)
    d = np.zeros((8, 8, 8), dtype=complex)
    for triple in itertools.combinations_with_replacement(range(8), 3):
        a, b, c = (lam[i + 1] for i in triple)
        td = np.trace(anticommutator(a, b) @ c) / 4.0
        for perm in set(itertools.permutations(triple)):
            d[perm] = td
        if len(set(triple)) < 3:
            continue  # f vanishes identically on repeated indices
        tf = np.trace(commutator(a, b) @ c) / 4.0j
        for perm, sign in PERMUTATION_SIGN.items():
            f[tuple(triple[i] for i in perm)] = sign * tf
    return f.real, d.real


def test_structure_constants_match_per_triple_traces():
    f, d = reference_structure_constants(gellmann_basis())
    sc = structure_constants()
    assert np.array_equal(sc.f, f)
    assert np.array_equal(sc.d, d)


def test_rotated_basis_tables_are_exactly_symmetric():
    # U lam_k U^dagger has the same f and d; its rounded traces break the symmetry
    # in the last bit, and reading each entry at its sorted index triple restores it.
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    sc = derive_structure_constants(u @ gellmann_basis() @ u.conj().T)
    for axes in [(1, 0, 2), (0, 2, 1)]:
        assert np.array_equal(sc.f, -sc.f.transpose(axes))
        assert np.array_equal(sc.d, sc.d.transpose(axes))
    assert np.abs(sc.f - structure_constants().f).max() <= 1e-15
    assert np.abs(sc.d - structure_constants().d).max() <= 1e-15


@pytest.mark.parametrize("values,antisymmetric", [
    (F_REFERENCE, True),
    (checks.D_REFERENCE, False),
], ids=["f", "d"])
def test_reference_tables_match_per_permutation_fill(values, antisymmetric):
    table = np.zeros((8, 8, 8))
    for (l, m, n), v in values.items():
        triple = (l - 1, m - 1, n - 1)
        for perm, sign in PERMUTATION_SIGN.items():
            table[tuple(triple[i] for i in perm)] = v * (sign if antisymmetric else 1.0)
    assert np.array_equal(checks._reference_table(values, antisymmetric), table)


def test_anticommutator_expansion_from_d():
    lam = gellmann_basis()
    sc = structure_constants()
    stack = np.stack(lam[1:])
    for l in range(8):
        for m in range(8):
            recon = (4.0 / 3.0) * (l == m) * lam[0] + 2.0 * np.einsum(
                "n,nij->ij", sc.d[l, m], stack
            )
            assert np.abs(anticommutator(lam[l + 1], lam[m + 1]) - recon).max() <= 1e-12


def reference_expansion_residuals():
    """The per-pair loops the stacked product table of ``verify`` must match bit for bit."""
    lam = gellmann_basis()
    sc = structure_constants()
    commutators = products = 0.0
    for l in range(8):
        for m in range(8):
            recon = 2j * np.einsum("n,nij->ij", sc.f[l, m], lam[1:])
            residual = np.abs(commutator(lam[l + 1], lam[m + 1]) - recon).max()
            commutators = max(commutators, residual)
            recon = (2.0 / 3.0) * (l == m) * lam[0] + np.einsum(
                "n,nij->ij", sc.d[l, m] + 1j * sc.f[l, m], lam[1:]
            )
            products = max(products, np.abs(lam[l + 1] @ lam[m + 1] - recon).max())
    return commutators, products


def test_algebra_suite_matches_per_pair_loops():
    residuals = {r.name: r.residual for r in checks.algebra_suite().results}
    commutators, products = reference_expansion_residuals()
    assert commutators > 0.0 and products > 0.0  # rounding shows, so equality is bitwise
    assert residuals["algebra/commutator-reconstruction"] == commutators
    assert residuals["algebra/product-expansion"] == products


def test_derive_structure_constants_rejects_bad_basis():
    broken = list(gellmann_basis())
    bad = broken[1].copy()
    bad[0, 0] = 1e-3j  # non-Hermitian perturbation leaves complex traces
    broken[1] = bad
    with pytest.raises(ConsistencyError, match=r"not real \(residue 1.500e-03\)"):
        derive_structure_constants(broken)


def test_derive_structure_constants_refuses_wrong_shape():
    with pytest.raises(ValueError, match=r"shape \(9, 3, 3\), got \(5, 3, 3\)"):
        derive_structure_constants(np.zeros((5, 3, 3)))


def test_derive_structure_constants_refuses_nan_entry():
    broken = np.array(gellmann_basis())
    broken[1, 0, 0] = np.nan
    with pytest.raises(ConsistencyError, match=r"not real \(residue nan\)"):
        derive_structure_constants(broken)


def test_gellmann_coefficients_roundtrip():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = (a + a.conj().T) / 2.0
    h = gellmann_coefficients(herm)
    lam = gellmann_basis()
    recon = h[0] * lam[0] + sum(h[k] * lam[k] for k in range(1, 9))
    assert np.abs(recon - herm).max() <= 1e-14


def reference_coefficients(matrix):
    """The per-k trace loop the one batched trace map must match bit for bit."""
    lam = gellmann_basis()
    h = np.empty(9, dtype=complex)
    h[0] = np.trace(matrix) / 3.0
    for k in range(1, 9):
        h[k] = np.einsum("ij,ji->", lam[k], matrix) / 2.0
    return h.real


def test_gellmann_coefficients_match_per_k_reference():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(500, 3, 3)) + 1j * rng.normal(size=(500, 3, 3))
    for herm in a + a.conj().transpose(0, 2, 1):
        assert np.array_equal(gellmann_coefficients(herm), reference_coefficients(herm))
    # A real matrix (every rotating Hamiltonian) keeps h_1..h_8 bit for bit; its
    # h_0 is now a complex division, Tr/3 as Tr * (1/3), within an ulp of the old.
    for sym in a.real + a.real.transpose(0, 2, 1):
        h, ref = gellmann_coefficients(sym), reference_coefficients(sym)
        assert np.array_equal(h[1:], ref[1:])
        assert abs(h[0] - ref[0]) <= np.spacing(abs(ref[0]))


def test_gellmann_coefficients_rejects_non_hermitian():
    with pytest.raises(ConsistencyError, match="expansion coefficients not real"):
        gellmann_coefficients(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))


@pytest.mark.parametrize("matrix", [
    np.diag([np.nan, 0.0, 0.0]),
    np.full((3, 3), np.nan),
], ids=["one-nan", "all-nan"])
def test_gellmann_coefficients_refuse_nan(matrix):
    with pytest.raises(ConsistencyError, match=r"not real \(residue nan\)"):
        gellmann_coefficients(matrix)
