import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qutrit_bloch import checks
from qutrit_bloch.model import BLOCH_NORM_SQ
from qutrit_bloch.states import (
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
)
from qutrit_bloch.su3 import ConsistencyError, gellmann_basis

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)

# verify's bounds, for the tests that hold a check's quantity to them.
SPHERE_TOL = checks.CHECKS["state/seven-sphere-norm-4/3"].bound
MAP_TOL = checks.CHECKS["state/geometric-trace-map-equivalence"].bound
IDEMPOTENCY_TOL = checks.CHECKS["state/pure-idempotency"].bound
ROUNDTRIP_TOL = checks.CHECKS["state/bloch-roundtrip"].bound
PURITY_TOL = checks.CHECKS["state/purity-identity"].bound
PURITY_BOUNDS_TOL = checks.CHECKS["state/purity-bounds"].bound

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


@pytest.mark.parametrize("field,value", [
    ("theta1", 1j), ("phi2", np.array([0.5, 1.0 + 1e-3j, 0.5])),
], ids=["scalar", "array"])
def test_complex_angles_rejected(field, value):
    kwargs = {"theta1": 1.0, "theta2": 1.0, "phi1": 1.0, "phi2": 1.0}
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field}=.* is not real$"):
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
        assert np.abs(rho @ rho - rho).max() <= IDEMPOTENCY_TOL
        assert abs(purity(rho) - 1.0) <= IDEMPOTENCY_TOL


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


NAN_RHO = np.full((3, 3), np.nan)


@pytest.mark.parametrize("rho", [
    NAN_RHO,
    np.diag([np.nan, 0.0, 1.0]),
    np.stack([np.eye(3) / 3, NAN_RHO]),
], ids=["all-nan", "one-nan", "stack"])
def test_bloch_from_density_refuses_nan(rho):
    with pytest.raises(ConsistencyError, match="residue nan"):
        bloch_from_density(rho)


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
    assert abs(geo @ geo - BLOCH_NORM_SQ) <= SPHERE_TOL
    via_trace = bloch_from_density(density_from_state(state_from_angles(a)))
    assert np.abs(geo - via_trace).max() <= MAP_TOL


def test_density_from_bloch_examples():
    assert np.allclose(density_from_bloch(np.zeros(8)), np.eye(3) / 3, atol=1e-16)
    n1 = np.array([0, 0, 1, 0, 0, 0, 0, 1 / SQ3])
    assert np.allclose(density_from_bloch(n1), np.diag([1.0, 0, 0]), atol=1e-15)


def test_density_bloch_roundtrip():
    for a in sample_angles(100):
        n = bloch_geometric(a)
        rho = density_from_bloch(n)
        assert np.abs(rho - rho.conj().T).max() <= 1e-14
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        assert np.abs(bloch_from_density(rho) - n).max() <= ROUNDTRIP_TOL


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


@pytest.mark.parametrize("shape", [(8,), (3, 8)], ids=["vector", "stack"])
def test_density_from_bloch_refuses_huge_vector(shape):
    # Refused before the reconstruction, which would overflow (an error under -W error).
    with pytest.raises(BlochRegionError, match=r"component above 2/sqrt\(3\)"):
        density_from_bloch(np.full(shape, 1e308))


@pytest.mark.parametrize("scale", [1 + 1e-11, 1 + 2.9e-10])
def test_density_from_bloch_component_guard_defers_to_eigenvalue_check(scale):
    # |3> scaled past 2/sqrt(3) has rho_11 = -(scale - 1)/3, within PSD_TOL: admitted.
    n = bloch_from_amplitudes(cardinal_state("three")[1])
    assert density_from_bloch(n * scale)[0, 0].real < 0
    with pytest.raises(BlochRegionError):  # rho_11 below -PSD_TOL
        density_from_bloch(n * (1 + 3.1e-10))


@pytest.mark.parametrize("label", CARDINAL_EXPECTED)
def test_cardinal_bloch_vectors_roundtrip(label):
    # |3> has n8 = -2/sqrt(3), one ulp above sqrt(4/3) in magnitude: still admitted.
    n = bloch_from_amplitudes(cardinal_state(label)[1])
    assert np.abs(bloch_from_density(density_from_bloch(n)) - n).max() <= 1e-15


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(8,), (3, 8)], ids=["vector", "stack"])
def test_density_from_bloch_refuses_non_finite(shape, value):
    n = np.zeros(shape)
    n[..., 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        density_from_bloch(n)


@pytest.mark.parametrize("shape", [(), (7,), (9,), (8, 3)])
def test_density_from_bloch_rejects_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"must have shape \(8,\), got"):
        density_from_bloch(np.zeros(shape))


@pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 4), (2, 2, 3)])
def test_amplitude_maps_reject_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"must have shape \(3,\) or \(N, 3\), got"):
        bloch_from_amplitudes(np.ones(shape))
    if shape[-1:] != (3,):  # a stack of any depth is a stack of triples
        with pytest.raises(ValueError, match=r"must have shape \(3,\), got"):
            density_from_state(np.ones(shape))


def test_empty_stacks_map_to_empty_stacks():
    assert bloch_from_density(np.empty((0, 3, 3))).shape == (0, 8)
    assert density_from_bloch(np.empty((0, 8))).shape == (0, 3, 3)


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
        assert abs(p - (1 + 1.5 * (n @ n)) / 3) <= PURITY_TOL
        assert 1 / 3 - PURITY_BOUNDS_TOL <= p <= 1 + PURITY_BOUNDS_TOL

