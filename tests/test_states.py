import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qutrit_bloch import checks
from qutrit_bloch.states import (
    BLOCH_NORM_SQ,
    AngleParams,
    BlochRegionError,
    bloch_from_amplitudes,
    bloch_from_density,
    bloch_geometric,
    cardinal_state,
    density_from_bloch,
    density_from_state,
    purity,
    state_from_angles,
    validate_density,
    validate_pure_state,
)
from qutrit_bloch.su3 import ConsistencyError, gellmann_basis

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)

angles_strategy = st.builds(
    AngleParams,
    theta1=st.floats(0.0, math.pi),
    theta2=st.floats(0.0, math.pi),
    phi1=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    phi2=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)


def sample_angles(count, seed_=11):
    rng = np.random.default_rng(seed_)
    return [
        AngleParams(t1, t2, p1, p2)
        for t1, t2, p1, p2 in zip(
            rng.uniform(0, math.pi, count), rng.uniform(0, math.pi, count),
            rng.uniform(0, 2 * math.pi, count), rng.uniform(0, 2 * math.pi, count),
        )
    ]


@pytest.mark.parametrize("field,value", [
    ("theta1", -0.1), ("theta1", math.pi + 0.1),
    ("theta2", 3.5), ("phi1", -1e-9), ("phi2", 2 * math.pi),
])
def test_angle_ranges_rejected(field, value):
    kwargs = {"theta1": 1.0, "theta2": 1.0, "phi1": 1.0, "phi2": 1.0}
    kwargs[field] = value
    with pytest.raises(ValueError):
        AngleParams(**kwargs)


def test_angle_params_reject_one_bad_entry_of_an_array():
    ok = np.full(5, 1.0)
    bad = ok.copy()
    bad[3] = math.pi + 1e-9
    AngleParams(ok, ok, ok, ok)
    with pytest.raises(ValueError):
        AngleParams(ok, bad, ok, ok)
    bad[3] = 2 * math.pi
    with pytest.raises(ValueError):
        AngleParams(ok, ok, ok, bad)


def test_array_angles_match_scalar_calls_row_by_row():
    sample = sample_angles(300)
    batch = AngleParams(*(np.array([getattr(a, f) for a in sample])
                          for f in ("theta1", "theta2", "phi1", "phi2")))
    amps, geo = state_from_angles(batch), bloch_geometric(batch)
    assert amps.shape == (300, 3) and geo.shape == (300, 8)
    # scalar phases broadcast against arrays of polar angles
    assert bloch_geometric(AngleParams(batch.theta1, batch.theta2)).shape == (300, 8)
    for a, c, n in zip(sample, amps, geo):
        assert np.abs(state_from_angles(a) - c).max() <= 1e-15
        assert np.abs(bloch_geometric(a) - n).max() <= 1e-15
    rhos = density_from_state(amps)
    assert rhos.shape == (300, 3, 3)
    assert np.array_equal(rhos[7], density_from_state(amps[7]))
    traced = bloch_from_density(rhos)
    assert traced.shape == (300, 8)
    assert np.abs(traced[7] - bloch_from_density(rhos[7])).max() <= 1e-15


def test_scalar_angles_keep_single_shapes():
    a = AngleParams(1.0, 2.0, 3.0, 4.0)
    assert state_from_angles(a).shape == (3,)
    assert bloch_geometric(a).shape == (8,)
    assert density_from_state(state_from_angles(a)).shape == (3, 3)
    assert bloch_from_density(density_from_state(state_from_angles(a))).shape == (8,)


def test_state_from_angles_poles():
    c = state_from_angles(AngleParams(0.0, 2.0, 1.0, 5.0))
    assert np.allclose(c, [1, 0, 0], atol=1e-15)

    c = state_from_angles(AngleParams(math.pi, math.pi, 1.0, 5.0))
    assert np.allclose(c, [0, np.exp(1j), 0], atol=1e-15)


def test_state_from_angles_generic_point():
    c = state_from_angles(AngleParams(math.pi / 2, math.pi / 3, 0.4, 1.3))
    expected = np.array(
        [1 / SQ2, np.exp(0.4j) / (2 * SQ2), np.exp(1.3j) * SQ3 / (2 * SQ2)]
    )
    assert np.allclose(c, expected, atol=1e-15)


CARDINAL_EXPECTED = {
    "one": (1, 0, 0),
    "two": (0, 1, 0),
    "three": (0, 0, 1),
    "superpose12": (1 / SQ2, 1 / SQ2, 0),
    "superpose23": (0, 1 / SQ2, 1 / SQ2),
    "superpose13": (1 / SQ2, 0, 1 / SQ2),
    "superposeAll": (1 / SQ2, 1 / (2 * SQ2), SQ3 / (2 * SQ2)),
}


@pytest.mark.parametrize("label,expected", CARDINAL_EXPECTED.items())
def test_cardinal_states(label, expected):
    angles, amps = cardinal_state(label)
    assert np.allclose(amps, expected, atol=1e-15)
    assert np.allclose(state_from_angles(angles), amps, atol=1e-16)


def test_cardinal_unknown_label():
    with pytest.raises(ValueError):
        cardinal_state("superpose31")


def test_density_projector_and_idempotency():
    rho = density_from_state(np.array([1.0, 0, 0]))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.array_equal(rho, expected)

    equal = np.ones(3) / SQ3
    rho = density_from_state(equal)
    assert np.allclose(rho, np.full((3, 3), 1 / 3), atol=1e-15)

    for a in sample_angles(50):
        rho = density_from_state(state_from_angles(a))
        assert np.abs(rho @ rho - rho).max() <= 1e-12
        assert abs(purity(rho) - 1.0) <= 1e-12


def test_bloch_from_density_examples():
    n = bloch_from_density(np.diag([1.0, 0, 0]).astype(complex))
    assert np.allclose(n, [0, 0, 1, 0, 0, 0, 0, 1 / SQ3], atol=1e-15)

    n = bloch_from_density(np.eye(3, dtype=complex) / 3)
    assert np.abs(n).max() <= 1e-15

    n = bloch_from_density(density_from_state(np.ones(3) / SQ3))
    assert np.allclose(n, [2 / 3, 0, 0, 2 / 3, 0, 2 / 3, 0, 0], atol=1e-15)
    assert abs(n @ n - BLOCH_NORM_SQ) <= 1e-15


def test_bloch_from_density_rejects_non_hermitian():
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 0.5
    bad[0, 0] = 1.0
    with pytest.raises(ConsistencyError):
        bloch_from_density(bad)


def test_bloch_from_amplitudes_matches_trace_map():
    amps = np.array([state_from_angles(a) for a in sample_angles(200)])
    direct = bloch_from_amplitudes(amps)
    for c, n in zip(amps, direct):
        assert np.abs(bloch_from_density(density_from_state(c)) - n).max() <= 1e-14
    single = bloch_from_amplitudes(amps[0])
    assert single.shape == (8,)
    assert np.array_equal(single, direct[0])


def test_bloch_geometric_poles():
    n = bloch_geometric(AngleParams(0.0, 1.2, 0.3, 0.4))
    assert np.allclose(n, [0, 0, 1, 0, 0, 0, 0, 1 / SQ3], atol=1e-15)

    # theta1=pi, theta2=0 puts all weight on level 3
    n = bloch_geometric(AngleParams(math.pi, 0.0, 0.3, 0.4))
    assert np.allclose(n, [0, 0, 0, 0, 0, 0, 0, -2 / SQ3], atol=1e-15)
    assert abs(n @ n - BLOCH_NORM_SQ) <= 1e-15


@seed(2)
@settings(max_examples=150, deadline=None)
@given(angles_strategy)
def test_seven_sphere_and_map_equivalence(a):
    geo = bloch_geometric(a)
    assert abs(geo @ geo - BLOCH_NORM_SQ) <= 1e-12
    via_trace = bloch_from_density(density_from_state(state_from_angles(a)))
    assert np.abs(geo - via_trace).max() <= 1e-12


def test_density_from_bloch_examples():
    assert np.allclose(density_from_bloch(np.zeros(8)), np.eye(3) / 3, atol=1e-16)
    n1 = np.array([0, 0, 1, 0, 0, 0, 0, 1 / SQ3])
    assert np.allclose(density_from_bloch(n1), np.diag([1.0, 0, 0]), atol=1e-15)


def test_density_bloch_roundtrip():
    for a in sample_angles(100):
        n = bloch_geometric(a)
        rho = density_from_bloch(n)
        validate_density(rho)
        assert np.abs(bloch_from_density(rho) - n).max() <= 1e-12


def test_density_from_bloch_rejects_unphysical_vector():
    # The antipode of a pure-state vector has an eigenvalue -1/3.
    n = -np.array([0, 0, 1, 0, 0, 0, 0, 1 / SQ3])
    with pytest.raises(BlochRegionError):
        density_from_bloch(n)


def reference_density_from_bloch(n):
    """The per-vector reconstruction the stacked one must match bit for bit."""
    lam = gellmann_basis()
    rho = lam[0] + 1.5 * sum(n[k] * lam[k + 1] for k in range(8))
    return rho / 3.0


def reference_random_mixtures(count):
    """The per-sample mixture loop the array version must match bit for bit."""
    rng = np.random.default_rng(checks.MIXTURE_SEED)
    out = [np.eye(3, dtype=complex) / 3.0]
    for _ in range(count - 2):
        parts = rng.integers(1, 5)
        weights = rng.dirichlet(np.ones(parts))
        rho = np.zeros((3, 3), dtype=complex)
        for w in weights:
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            c /= np.linalg.norm(c)
            rho += w * density_from_state(c)
        out.append(rho)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    out.append(density_from_state(c / np.linalg.norm(c)))
    return np.array(out)


def test_density_from_bloch_stack_matches_per_vector_reference():
    n = bloch_geometric(checks.sample_angles(100))
    rho = density_from_bloch(n)
    assert rho.shape == (100, 3, 3)
    expected = np.array([reference_density_from_bloch(v) for v in n])
    assert np.array_equal(rho, expected)
    assert np.array_equal(density_from_bloch(n[7]), expected[7])
    assert np.array_equal(density_from_bloch(n.reshape(4, 25, 8)), expected.reshape(4, 25, 3, 3))


def test_density_from_bloch_stack_with_one_unphysical_row_raises():
    n = bloch_geometric(checks.sample_angles(5))
    n[3] = -n[3]  # the antipode of a pure state has an eigenvalue -1/3
    with pytest.raises(BlochRegionError):
        density_from_bloch(n)
    density_from_bloch(np.delete(n, 3, axis=0))


@pytest.mark.parametrize("shape", [(), (7,), (9,), (8, 3)])
def test_density_from_bloch_rejects_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"must have shape \(8,\), got"):
        density_from_bloch(np.zeros(shape))


def test_random_mixtures_match_per_sample_reference():
    rhos = checks.random_mixtures(checks.MIXTURE_SAMPLES)
    assert rhos.shape == (checks.MIXTURE_SAMPLES, 3, 3)
    assert np.array_equal(rhos, reference_random_mixtures(checks.MIXTURE_SAMPLES))


def test_unit_amplitudes_match_linalg_norm():
    normals = np.random.default_rng(3).normal(size=(5000, 2, 3))
    expected = []
    for re, im in normals:
        c = re + 1j * im
        expected.append(c / np.linalg.norm(c))
    assert np.array_equal(checks._unit_amplitudes(normals), np.array(expected))


def test_batched_purity_and_roundtrip_match_per_matrix_loops():
    rhos = checks.random_mixtures(checks.MIXTURE_SAMPLES)
    assert np.array_equal(purity(rhos), [purity(r) for r in rhos])
    assert isinstance(purity(rhos[5]), float)
    n = bloch_from_amplitudes(state_from_angles(checks.sample_angles(100)))
    worst = 0.0
    for v in n:
        worst = max(worst, np.abs(bloch_from_density(density_from_bloch(v)) - v).max())
    roundtrip = {r.name: r for r in checks.state_suite().results}["state/bloch-roundtrip"]
    assert roundtrip.residual == worst


def test_purity_examples():
    assert abs(purity(np.eye(3) / 3) - 1 / 3) <= 1e-15
    assert abs(purity(np.diag([0.5, 0.5, 0.0])) - 0.5) <= 1e-15
    assert abs(purity(density_from_state(np.array([1.0, 0, 0]))) - 1.0) <= 1e-15


def test_purity_identity_and_bounds_on_mixtures():
    rng = np.random.default_rng(23)
    for _ in range(300):
        weights = rng.dirichlet(np.ones(rng.integers(1, 5)))
        rho = np.zeros((3, 3), dtype=complex)
        for w in weights:
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            rho += w * density_from_state(c / np.linalg.norm(c))
        p = purity(rho)
        n = bloch_from_density(rho)
        assert abs(p - (1 + 1.5 * (n @ n)) / 3) <= 1e-12
        assert 1 / 3 - 1e-12 <= p <= 1 + 1e-12


def test_validate_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        validate_pure_state(np.array([1.0, 1.0, 0.0]))


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        validate_density(np.diag([1.5, -0.5, 0.0]).astype(complex))
