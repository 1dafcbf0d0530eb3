import math

import numpy as np
import pytest

from qutrit_bloch.checks import D_REFERENCE, F_REFERENCE, SHIFT_ACTIONS
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


def test_gellmann_orthogonality_and_traces():
    lam = gellmann_basis()
    for k in range(1, 9):
        assert abs(np.trace(lam[k])) <= 1e-14
        assert np.abs(lam[k] - lam[k].conj().T).max() <= 1e-14
        for l in range(1, 9):
            expected = 2.0 if k == l else 0.0
            assert abs(np.trace(lam[k] @ lam[l]).real - expected) <= 1e-14
    assert np.trace(lam[0]) == 3.0


def test_basis_is_readonly():
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


def test_all_27_shift_actions_exact():
    e = np.eye(3, dtype=complex)
    for (family, kind), actions in SHIFT_ACTIONS.items():
        op = shift_operator(family, kind)
        for src, action in enumerate(actions):
            expected = np.zeros(3, dtype=complex)
            if action is not None:
                expected[action[0] - 1] = action[1]
            assert np.array_equal(op @ e[src], expected), (family, kind, src + 1)


@pytest.mark.parametrize("family", ["T", "V", "U"])
def test_shift_commutation_relations(family):
    # The closures follow from the explicit matrices: [X+, X3] = -2 X+ and
    # [X-, X3] = +2 X-.
    plus = shift_operator(family, "plus")
    minus = shift_operator(family, "minus")
    three = shift_operator(family, "three")
    assert np.array_equal(commutator(plus, minus), three)
    assert np.array_equal(commutator(plus, three), -2.0 * plus)
    assert np.array_equal(commutator(minus, three), 2.0 * minus)


def test_commutator_basics():
    t_plus = shift_operator("T", "plus")
    assert np.array_equal(commutator(t_plus, t_plus), np.zeros((3, 3)))
    lam = gellmann_basis()
    assert np.abs(commutator(lam[1], lam[2]) - 2j * lam[3]).max() <= 1e-14


def test_structure_constant_values():
    sc = structure_constants()
    assert abs(sc.f[0, 1, 2] - 1.0) <= 1e-14
    assert sc.f[0, 0, 1] == 0.0
    assert abs(sc.d[7, 7, 7] + 1.0 / SQ3) <= 1e-14
    for (l, m, n), v in F_REFERENCE.items():
        assert abs(sc.f[l - 1, m - 1, n - 1] - v) <= 1e-14, (l, m, n)
    for (l, m, n), v in D_REFERENCE.items():
        assert abs(sc.d[l - 1, m - 1, n - 1] - v) <= 1e-14, (l, m, n)


def test_structure_constant_tables_have_no_extra_entries():
    sc = structure_constants()
    f_support = {tuple(sorted(idx)) for idx in zip(*np.nonzero(np.abs(sc.f) > 1e-14))}
    d_support = {tuple(sorted(idx)) for idx in zip(*np.nonzero(np.abs(sc.d) > 1e-14))}
    assert f_support == {tuple(sorted(i - 1 for i in k)) for k in F_REFERENCE}
    assert d_support == {tuple(sorted(i - 1 for i in k)) for k in D_REFERENCE}


def test_structure_constant_exact_symmetry():
    sc = structure_constants()
    assert np.array_equal(sc.f, -np.transpose(sc.f, (1, 0, 2)))
    assert np.array_equal(sc.f, -np.transpose(sc.f, (0, 2, 1)))
    assert np.array_equal(sc.d, np.transpose(sc.d, (1, 0, 2)))
    assert np.array_equal(sc.d, np.transpose(sc.d, (0, 2, 1)))


def test_commutator_reconstruction_from_f():
    lam = gellmann_basis()
    sc = structure_constants()
    stack = np.stack(lam[1:])
    for l in range(8):
        for m in range(8):
            recon = 2j * np.einsum("n,nij->ij", sc.f[l, m], stack)
            assert np.abs(commutator(lam[l + 1], lam[m + 1]) - recon).max() <= 1e-12


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


def test_derive_structure_constants_rejects_bad_basis():
    broken = list(gellmann_basis())
    bad = broken[1].copy()
    bad[0, 0] = 1e-3j  # non-Hermitian perturbation leaves complex traces
    broken[1] = bad
    with pytest.raises(ConsistencyError):
        derive_structure_constants(broken)


def test_gellmann_coefficients_roundtrip():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = (a + a.conj().T) / 2.0
    h = gellmann_coefficients(herm)
    lam = gellmann_basis()
    recon = h[0] * lam[0] + sum(h[k] * lam[k] for k in range(1, 9))
    assert np.abs(recon - herm).max() <= 1e-14


def test_gellmann_coefficients_rejects_non_hermitian():
    with pytest.raises(ConsistencyError):
        gellmann_coefficients(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))
