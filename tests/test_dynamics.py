import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qutrit_bloch import checks, dynamics, figures, model
from qutrit_bloch.checks import lambda_generator_reference
from qutrit_bloch.dynamics import (
    adjoint_generator,
    bloch_trajectory,
    integrate_bloch_ode,
    lambda_closed_form,
    propagate_exact,
    rabi_frequency,
    resonance_split_check,
    rk4_error_estimate,
    rotating_hamiltonian,
    sector_initial_norms,
)
from qutrit_bloch.model import BLOCH_NORM_SQ, Configuration, SimParams, sector_index_sets
from qutrit_bloch.states import (
    bloch_from_amplitudes,
    bloch_from_density,
    density_from_state,
)
from qutrit_bloch.su3 import ConsistencyError, gellmann_basis

SQ3 = math.sqrt(3.0)
EQUAL = (1 / SQ3, 1 / SQ3, 1 / SQ3)

FIG_LAMBDA = dict(config=Configuration.LAMBDA, kappa_a=0.3, kappa_b=0.2)
FIG_VEE = dict(config=Configuration.VEE, kappa_a=0.3, kappa_b=0.2)
FIG_XI = dict(config=Configuration.XI, kappa_a=0.2, kappa_b=0.3)

# verify's bounds, for the tests that hold a check's quantity to them.
UNITARITY_TOL = checks.CHECKS["dynamics/unitarity"].bound
SECTOR_TOL = checks.CHECKS["dynamics/sector-conservation-at-resonance"].bound
SECTOR_SUM_TOL = checks.CHECKS["dynamics/sector-sum-4/3"].bound
CLOSED_FORM_TOL = checks.CHECKS["dynamics/lambda-closed-form"].bound


def params(base, delta=0.0, **kw):
    return SimParams(delta=delta, **base, **kw)


def test_sim_params_validation():
    with pytest.raises(ValueError):
        params(FIG_LAMBDA, c0=(1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        SimParams(Configuration.LAMBDA, -0.1, 0.2, 0.0)
    with pytest.raises(ValueError, match="coupling_convention must be one of half, full"):
        params(FIG_LAMBDA, coupling_convention="double")
    with pytest.raises(ValueError, match="'bogus' is not a valid Configuration"):
        SimParams("bogus", 0.3, 0.2, 0.0)
    assert SimParams("lambda", 0.3, 0.2, 0.0) == SimParams(Configuration.LAMBDA, 0.3, 0.2, 0.0)
    for c0 in [(math.nan, 0.0, 0.0), (1.0, complex(0.0, math.nan), 0.0),
               (math.inf, 0.0, 0.0), (1e200, 0.0, 0.0)]:
        with pytest.raises(ValueError, match="not normalized"):
            params(FIG_LAMBDA, c0=c0)


def test_rotating_hamiltonian_lambda_example():
    h = rotating_hamiltonian(params(FIG_LAMBDA))
    expected = np.array([[0, 0.1, 0.15], [0.1, 0, 0], [0.15, 0, 0]])
    assert np.array_equal(h, expected)


def test_rotating_hamiltonian_xi_detuning_only():
    h = rotating_hamiltonian(SimParams(Configuration.XI, 0.0, 0.0, 20.0))
    assert np.array_equal(h, np.diag([20.0, 0.0, -20.0]))


def test_rotating_hamiltonian_vee_structure():
    h = rotating_hamiltonian(params(FIG_VEE, delta=0.6))
    assert np.allclose(np.diag(h), [0.2, 0.2, -0.4], atol=1e-16)
    assert h[0, 2] == 0.15 and h[1, 2] == 0.1 and h[0, 1] == 0.0


@pytest.mark.parametrize("base", [FIG_LAMBDA, FIG_VEE, FIG_XI])
@pytest.mark.parametrize("delta", [0.0, 0.2, 20.0])
def test_hamiltonian_symmetric(base, delta):
    h = rotating_hamiltonian(params(base, delta=delta))
    assert np.array_equal(h, h.T)


def test_full_convention_doubles_couplings():
    half = rotating_hamiltonian(params(FIG_LAMBDA))
    full = rotating_hamiltonian(params(FIG_LAMBDA, coupling_convention="full"))
    assert np.array_equal(full, 2.0 * half)


def test_propagate_identity_at_t0():
    p = params(FIG_LAMBDA, delta=0.2)
    amps = propagate_exact(p, np.array([0.0]))
    assert np.abs(amps[0] - np.array(p.c0)).max() <= 1e-15


@pytest.mark.parametrize("base", [FIG_LAMBDA, FIG_VEE, FIG_XI])
@pytest.mark.parametrize("delta", [0.0, 0.2, 1.2, 20.0])
def test_propagate_unitarity(base, delta):
    amps = propagate_exact(params(base, delta=delta), np.linspace(0, 100, 301))
    norms = (np.abs(amps) ** 2).sum(axis=1)
    assert np.abs(norms - 1.0).max() <= UNITARITY_TOL


def reference_propagate(p, times):
    """:func:`propagate_exact`'s formula with a new array for each step."""
    energies, vectors = np.linalg.eigh(rotating_hamiltonian(p))
    weights = vectors.T @ np.array(p.c0)
    phases = np.exp(-1j * np.outer(times, energies))
    return (phases * weights) @ vectors.T


def reference_bloch(c):
    """:func:`bloch_from_amplitudes`' formulas on a stack, as one ``np.stack``."""
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    p1, p2, p3 = np.abs(c1) ** 2, np.abs(c2) ** 2, np.abs(c3) ** 2
    x12, x13, x23 = c1.conj() * c2, c1.conj() * c3, c2.conj() * c3
    return np.stack([2.0 * x12.real, 2.0 * x12.imag, p1 - p2, 2.0 * x13.real, 2.0 * x13.imag,
                     2.0 * x23.real, 2.0 * x23.imag, (p1 + p2 - 2.0 * p3) / SQ3], axis=-1)


@pytest.mark.parametrize("label", sorted(figures.parameter_sets()))
def test_in_place_propagation_and_bloch_map_match_reference(label):
    # Building the result in place keeps every bit of the figure runs verify checks.
    p = figures.parameter_sets()[label]
    amps = propagate_exact(p, checks.FIGURE_GRID)
    assert np.array_equal(amps, reference_propagate(p, checks.FIGURE_GRID))
    assert np.array_equal(bloch_from_amplitudes(amps), reference_bloch(amps))


def test_in_place_propagation_and_bloch_map_match_reference_on_random_input():
    rng = np.random.default_rng(31)
    c = rng.normal(size=(1001, 3)) + 1j * rng.normal(size=(1001, 3))
    n = bloch_from_amplitudes(c)
    assert np.array_equal(n, reference_bloch(c))
    assert np.array_equal(bloch_from_amplitudes(c[7]), n[7])
    times = np.cumsum(rng.uniform(0.01, 1.0, size=1001))
    c0 = c[0] / np.linalg.norm(c[0])
    for config in Configuration:
        p = SimParams(config, *rng.uniform(0.1, 2.0, size=3), c0=tuple(c0))
        assert np.array_equal(propagate_exact(p, times), reference_propagate(p, times))


def test_lambda_rabi_return():
    # With c0 = |1> at resonance the population returns (up to a global
    # minus) after one full cycle 2 pi / Omega of the bright doublet.
    p = params(FIG_LAMBDA, c0=(1.0, 0.0, 0.0))
    omega = rabi_frequency(p)
    assert abs(omega - math.sqrt(0.13)) <= 1e-15
    amps = propagate_exact(p, np.array([2 * math.pi / omega]))
    assert np.abs(amps[0] - [-1.0, 0.0, 0.0]).max() <= 1e-12


def test_closed_form_initial_condition_and_oracle_agreement():
    for delta in (0.0, 0.2, 1.2):
        p = params(FIG_LAMBDA, delta=delta)
        assert np.abs(lambda_closed_form(p, 0.0) - np.array(p.c0)).max() <= 1e-15
        times = np.array([1.0, 5.0, 25.0, 77.3])
        exact = propagate_exact(p, times)
        assert np.abs(lambda_closed_form(p, times) - exact).max() <= CLOSED_FORM_TOL


def test_closed_form_complex_initial_state():
    p = params(FIG_LAMBDA, delta=0.2, c0=(0.5, 0.5j, math.sqrt(0.5)))
    times = np.array([3.3, 42.0])
    assert np.abs(lambda_closed_form(p, times) - propagate_exact(p, times)).max() <= 1e-12


def test_closed_form_guards():
    with pytest.raises(ValueError):
        lambda_closed_form(params(FIG_VEE), 1.0)
    with pytest.raises(ValueError):
        lambda_closed_form(params(FIG_LAMBDA, coupling_convention="full"), 1.0)
    with pytest.raises(ValueError):
        lambda_closed_form(SimParams(Configuration.LAMBDA, 0.0, 0.0, 1.0), 1.0)


def test_trajectory_initial_bloch_vector():
    p = params(FIG_LAMBDA, c0=(1.0, 0.0, 0.0))
    traj = bloch_trajectory(p, np.array([0.0, 1.0]))
    assert np.allclose(traj.bloch[0], [0, 0, 1, 0, 0, 0, 0, 1 / SQ3], atol=1e-15)


def test_trajectory_sector_norms_fig_lambda():
    traj = bloch_trajectory(params(FIG_LAMBDA), np.linspace(0, 100, 1001))
    assert np.abs(traj.sector4 - 4 / 9).max() <= SECTOR_TOL
    assert np.abs(traj.sector2 - 8 / 9).max() <= SECTOR_TOL


def test_trajectory_derivative_matches_liouville():
    # dn/dt = M n on the trajectory, against an independent route:
    # dn_k/dt = Tr[lam_k (-i [H, rho])].
    lam = gellmann_basis()
    for base, delta in ((FIG_LAMBDA, 0.7), (FIG_VEE, 0.3), (FIG_XI, 20.0)):
        p = params(base, delta=delta)
        traj = bloch_trajectory(p, np.array([0.0, 2.0, 11.0]))
        h = rotating_hamiltonian(p)
        for c, dn in zip(traj.amplitudes, traj.bloch @ adjoint_generator(p).T):
            rho = density_from_state(c)
            drho = -1j * (h @ rho - rho @ h)
            direct = np.array([np.trace(lam[k] @ drho).real for k in range(1, 9)])
            assert np.abs(dn - direct).max() <= 1e-13


def test_adjoint_generator_row8():
    m = adjoint_generator(params(FIG_LAMBDA, delta=0.7))
    row8 = m[7].copy()
    assert abs(row8[4] - SQ3 / 2 * 0.3) <= 1e-15
    row8[4] = 0.0
    assert np.abs(row8).max() == 0.0


def test_adjoint_generator_free_evolution_zero():
    m = adjoint_generator(SimParams(Configuration.LAMBDA, 0.0, 0.0, 0.0))
    assert np.abs(m).max() == 0.0


@pytest.mark.parametrize("base,delta", [
    (FIG_LAMBDA, 1.2), (FIG_VEE, 0.2), (FIG_XI, 20.0),
])
def test_adjoint_generator_exactly_antisymmetric(base, delta):
    m = adjoint_generator(params(base, delta=delta))
    assert np.array_equal(m, -m.T)


@pytest.mark.parametrize("kappa_a,kappa_b,delta", [
    (0.3, 0.2, 1.2), (0.7, 0.11, 3.0),
])
def test_lambda_generator_matches_reference_table(kappa_a, kappa_b, delta):
    p = SimParams(Configuration.LAMBDA, kappa_a, kappa_b, delta)
    bound = checks.CHECKS["dynamics/lambda-generator-reference"].bound
    assert np.abs(adjoint_generator(p) - lambda_generator_reference(p)).max() <= bound


def test_integrate_constant_when_generator_vanishes():
    p = SimParams(Configuration.VEE, 0.0, 0.0, 0.0, c0=(1.0, 0.0, 0.0))
    traj = integrate_bloch_ode(p, np.linspace(0, 10, 11), 0.1)
    assert np.array_equal(traj.bloch, np.tile(traj.bloch[0], (11, 1)))
    assert traj.amplitudes is None


def test_integrate_matches_exact_on_fig_lambda():
    p = params(FIG_LAMBDA)
    times = np.arange(0.0, 100.0 + 1e-12, 0.5)
    rk = integrate_bloch_ode(p, times, 0.01)
    exact = bloch_trajectory(p, times)
    assert np.abs(rk.bloch - exact.bloch).max() <= checks.RK4_TOL
    drift = abs(rk.bloch[-1] @ rk.bloch[-1] - BLOCH_NORM_SQ)
    assert drift <= 1e-8


def test_integrate_converges_on_stiff_ladder():
    # At delta=20 the fastest Bloch frequency is about 2*delta; a step small
    # enough to resolve it brings RK4 back within the cross-oracle band.
    p = params(FIG_XI, delta=20.0)
    times = np.arange(0.0, 10.0 + 1e-12, 0.5)
    rk = integrate_bloch_ode(p, times, 5e-4)
    exact = bloch_trajectory(p, times)
    assert np.abs(rk.bloch - exact.bloch).max() <= checks.RK4_TOL


def reference_rk4(p, times, dt):
    """The per-step RK4 loop that the step-matrix powers must reproduce."""
    m = adjoint_generator(p)
    n = bloch_from_amplitudes(np.array(p.c0))
    out = [n]
    for count in np.rint(np.diff(times) / dt).astype(int):
        for _ in range(count):
            k1 = m @ n
            k2 = m @ (n + 0.5 * dt * k1)
            k3 = m @ (n + 0.5 * dt * k2)
            k4 = m @ (n + dt * k3)
            n = n + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(n)
    return np.array(out)


@pytest.mark.parametrize("label", sorted(figures.parameter_sets()))
def test_integrate_matches_step_loop_on_figure_sets(label):
    p = figures.parameter_sets()[label]
    times = np.arange(0.0, 5.0 + 1e-12, 0.5)
    rk = integrate_bloch_ode(p, times, 0.01)
    assert np.abs(rk.bloch - reference_rk4(p, times, 0.01)).max() <= 1e-12


def test_integrate_matches_step_loop_on_uneven_grid():
    # Intervals of 1, 2, 7 and 50 steps, two of them repeated.
    dt = 0.01
    times = dt * np.cumsum([0, 1, 2, 7, 50, 2, 1, 50])
    for p in (params(FIG_LAMBDA, delta=1.2), params(FIG_XI, delta=20.0)):
        rk = integrate_bloch_ode(p, times, dt)
        assert np.abs(rk.bloch - reference_rk4(p, times, dt)).max() <= 1e-12


def test_integrate_keeps_rk4_deviation_on_stiff_ladder():
    # Same method, same truncation error: the unresolved xi@20 run keeps the
    # deviation from the exact propagator that the step loop had.
    p = figures.parameter_sets()["xi@20"]
    times = np.arange(0.0, 100.0 + 1e-12, 0.5)
    dev = np.abs(integrate_bloch_ode(p, times, 0.01).bloch - bloch_trajectory(p, times).bloch).max()
    assert f"{dev:.3e}" == "4.750e-01"


def test_integrate_step_grid_mismatch_rejected():
    p = params(FIG_LAMBDA)
    with pytest.raises(ValueError):
        integrate_bloch_ode(p, np.array([0.0, 0.25]), 0.1)
    with pytest.raises(ValueError):
        integrate_bloch_ode(p, np.array([0.0, 0.05]), 0.1)
    with pytest.raises(ValueError):
        integrate_bloch_ode(p, np.array([0.0, 1.0]), -0.1)


@pytest.mark.parametrize("times", [[1.0, 1.5, 2.0], [-0.5, 0.0, 0.5]], ids=["late", "early"])
def test_integrate_refuses_a_grid_not_starting_at_0(times):
    # RK4 starts from n(0), which it would report as the value at times[0]:
    # on the late grid that made lambda@0 deviate 9.8e-02 from the exact propagator.
    with pytest.raises(ValueError, match=f"must start at 0, got {times[0]}"):
        integrate_bloch_ode(figures.parameter_sets()["lambda@0"], times, 0.5)


@pytest.mark.parametrize("dt,steps", [(1e-300, r"1e\+300"), (5e-324, "inf")],
                         ids=["past-int64", "overflowing"])
def test_integrate_refuses_a_step_count_past_int64(dt, steps):
    # Under the suite's filterwarnings = error, a cast or overflow warning
    # from numpy would fail this test before any ValueError.
    with pytest.raises(ValueError, match=f"grid interval of {steps} steps"):
        integrate_bloch_ode(params(FIG_LAMBDA), [0.0, 1.0], dt)


SECTOR_EXPECTED = {
    Configuration.LAMBDA: ((2, 3, 5, 6, 8), (1, 4, 7)),
    Configuration.VEE: ((1, 3, 5, 7, 8), (2, 4, 6)),
    Configuration.XI: ((2, 3, 4, 7, 8), (1, 5, 6)),
}


@pytest.mark.parametrize("config,expected", SECTOR_EXPECTED.items())
def test_sector_index_sets(config, expected):
    set4, set2 = sector_index_sets(config)
    assert (set4, set2) == expected
    assert sorted(set4 + set2) == list(range(1, 9))


@pytest.mark.parametrize("config", list(Configuration))
def test_sector_split_is_generator_block_structure(config):
    base = {Configuration.LAMBDA: FIG_LAMBDA, Configuration.VEE: FIG_VEE,
            Configuration.XI: FIG_XI}[config]
    m = adjoint_generator(params(base))
    set4, set2 = sector_index_sets(config)
    cross = max(abs(m[i - 1, j - 1]) for i in set4 for j in set2)
    assert cross == 0.0


def test_sector_initial_norms_examples():
    s4, s2 = sector_initial_norms(params(FIG_LAMBDA))
    assert abs(s4 - 4 / 9) <= 1e-12
    assert abs(s2 - 8 / 9) <= 1e-12

    s4, s2 = sector_initial_norms(params(FIG_LAMBDA, c0=(1.0, 0.0, 0.0)))
    assert abs(s4 - 4 / 3) <= 1e-12
    assert abs(s2) <= 1e-12


@pytest.mark.parametrize("config", list(Configuration))
def test_sector_initial_norms_match_direct_sums(config):
    rng = np.random.default_rng(31)
    for _ in range(100):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        c /= np.linalg.norm(c)
        p = SimParams(config, 0.3, 0.2, 0.0, tuple(c))
        s4, s2 = sector_initial_norms(p)
        n0 = bloch_from_amplitudes(c)
        set4, set2 = sector_index_sets(config)
        assert abs(s4 - sum(n0[i - 1] ** 2 for i in set4)) <= 1e-12
        assert abs(s2 - sum(n0[i - 1] ** 2 for i in set2)) <= 1e-12
        assert abs(s4 + s2 - BLOCH_NORM_SQ) <= SECTOR_SUM_TOL


def reference_sector_sum():
    """The per-state loop of verify's sector-sum check: (s4, s2) per draw and config."""
    rng = np.random.default_rng(checks.SECTOR_SEED)
    out = []
    for _ in range(checks.SECTOR_SAMPLES):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        c /= np.linalg.norm(c)
        out.append([sector_initial_norms(SimParams(config, 0.3, 0.2, 0.0, tuple(c)))
                    for config in Configuration])
    return np.array(out)  # (samples, configs, 2)


def test_sector_sum_check_matches_per_state_reference():
    expected = reference_sector_sum()
    rng = np.random.default_rng(checks.SECTOR_SEED)
    amps = checks._unit_amplitudes(rng.normal(size=(checks.SECTOR_SAMPLES, 2, 3)))
    for j, config in enumerate(Configuration):
        s4, s2 = dynamics._sector_polynomials(config, amps)
        assert np.array_equal(s4, expected[:, j, 0])
        assert np.array_equal(s2, expected[:, j, 1])
    worst = float(np.abs(expected.sum(axis=2) - BLOCH_NORM_SQ).max())
    result = {r.name: r for r in checks.dynamics_suite().results}["dynamics/sector-sum-4/3"]
    assert result.residual == worst


def test_sector_initial_norms_scalar_shape_and_consistency_error(monkeypatch):
    p = params(FIG_VEE, c0=(0.6, 0.48j, 0.64))
    s4, s2 = sector_initial_norms(p)
    assert type(s4) is float and type(s2) is float
    batch4, batch2 = dynamics._sector_polynomials(p.config, np.array([p.c0] * 3))
    assert batch4.shape == batch2.shape == (3,)
    assert np.all(batch4 == s4) and np.all(batch2 == s2)
    nan_row = np.array([p.c0] * 3)
    nan_row[1, 0] = np.nan
    with pytest.raises(ConsistencyError, match=r"sector norms not real \(residue nan\)"):
        dynamics._sector_polynomials(p.config, nan_row)
    monkeypatch.setattr(dynamics, "SECTOR_IMAG_TOL", -1.0)
    with pytest.raises(ConsistencyError, match="sector norms not real"):
        sector_initial_norms(p)


@pytest.mark.parametrize("label", sorted(figures.parameter_sets()))
def test_rk4_error_estimate_matches_generator_spectrum(label):
    p = figures.parameter_sets()[label]
    radius = float(np.abs(np.linalg.eigvals(adjoint_generator(p))).max())
    theta, estimate = rk4_error_estimate(p, checks.DT, checks.T_MAX)
    (e1, _, e3), _ = model.eigenpairs(model.hamiltonian(p))
    assert theta == (e3 - e1) * checks.DT  # the spectrum simulate's rows are built from
    assert abs(theta / checks.DT - radius) <= 1e-12 * radius
    assert estimate == (checks.T_MAX / checks.DT) * theta**5 / 120.0


@pytest.mark.parametrize("delta,dt,t_max,expected", [
    (1e50, 0.01, 100.0, (pytest.approx(1e48), pytest.approx(1e4 * 1e240 / 120.0))),
    (1e100, 0.01, 100.0, (pytest.approx(1e98), math.inf)),  # theta**5 past the float range
    (1e200, 0.01, 100.0, (pytest.approx(1e198), math.inf)),
    (1e308, 0.01, 100.0, (math.inf, math.inf)),  # the spectrum itself overflows
    (1e100, 0.01, 0.0, (pytest.approx(1e98), 0.0)),  # no steps, not 0 * inf
    (1.0, 1e-320, 100.0, (pytest.approx(1.06e-320, rel=0.01), 0.0)),  # inf steps, theta**5 is 0
    (0.0, 0.0, 100.0, None),
    (0.0, -0.01, 100.0, None),
    (1e100, 0.01, -5.0, ValueError),
    (1.0, 0.01, -5.0, ValueError),
    (1.0, 0.01, math.nan, ValueError),
    (1.0, 0.01, math.inf, ValueError),
], ids=["delta-1e50", "delta-1e100", "delta-1e200", "delta-1e308", "t_max-0-overflowing",
        "dt-subnormal", "dt-0", "dt-negative", "t_max-negative-overflowing",
        "t_max-negative", "t_max-nan", "t_max-inf"])
def test_rk4_error_estimate_out_of_range(delta, dt, t_max, expected):
    p = params(FIG_LAMBDA, delta)
    if expected is None:  # refused as integrate_bloch_ode refuses it
        for run in (lambda: rk4_error_estimate(p, dt, t_max),
                    lambda: integrate_bloch_ode(p, [0.0, 1.0], dt)):
            with pytest.raises(ValueError, match=f"dt must be positive, got {dt}"):
                run()
        return
    if expected is ValueError:
        with pytest.raises(ValueError, match=f"t_max must be finite and nonnegative, got {t_max}"):
            rk4_error_estimate(p, dt, t_max)
        return
    assert rk4_error_estimate(p, dt, t_max) == expected


def test_resonance_split_check_flags():
    times = np.arange(0.0, 100.0 + 1e-12, 0.1)
    p = params(FIG_LAMBDA)
    report = resonance_split_check(p, bloch_trajectory(p, times))
    assert report.split
    assert max(report.max_dev4, report.max_dev2) <= SECTOR_TOL

    p = params(FIG_LAMBDA, delta=1.2)
    report = resonance_split_check(p, bloch_trajectory(p, times))
    assert not report.split
    threshold = checks.CHECKS["dynamics/off-resonance-splitting-vanishes"].bound
    assert max(report.max_dev4, report.max_dev2) > threshold

    free = SimParams(Configuration.LAMBDA, 0.0, 0.0, 0.0)
    assert resonance_split_check(free, bloch_trajectory(free, times)).split


def test_time_grid_validation():
    p = params(FIG_LAMBDA)
    with pytest.raises(ValueError):
        propagate_exact(p, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        propagate_exact(p, np.array([]))


def test_bloch_trajectory_checks_its_grid_once(monkeypatch):
    real = dynamics._ascending
    calls = []
    monkeypatch.setattr(dynamics, "_ascending", lambda times: calls.append(1) or real(times))
    traj = bloch_trajectory(params(FIG_LAMBDA), [0.0, 0.5, 1.0])
    assert calls == [1]
    assert traj.times.dtype == float and traj.times.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("run,times", [
    (propagate_exact, [0.0, math.nan]),
    (propagate_exact, [0.0, math.inf]),
    (bloch_trajectory, [-math.inf, 0.0]),
    (lambda p, t: integrate_bloch_ode(p, t, 0.1), [math.nan]),
], ids=["propagate-nan", "propagate-inf", "trajectory-minus-inf", "rk4-nan"])
def test_time_grid_refuses_non_finite(run, times):
    with pytest.raises(ValueError, match="time grid must be finite"):
        run(params(FIG_LAMBDA), np.array(times))


@pytest.mark.parametrize("run", [propagate_exact, bloch_trajectory])
def test_propagation_refuses_an_overflowing_hamiltonian(run):
    # 2 delta / 3 overflows, and eigh of the inf entry gives NaN amplitudes without a warning.
    with pytest.raises(ValueError, match=r"^Hamiltonian H is not finite$"):
        run(SimParams(Configuration.LAMBDA, 0.3, 0.2, 1e308), np.arange(3.0))


@pytest.mark.parametrize("run", [propagate_exact, bloch_trajectory])
def test_propagation_refuses_an_overflowing_phase(run):
    # H = diag(delta, 0, -delta) + couplings is finite, but E t is past the float range at t = 2.
    with pytest.raises(ValueError, match=r"^propagated amplitude c\(t\) is not finite$"):
        run(SimParams(Configuration.XI, 0.3, 0.2, 1.7e308), np.array([0.0, 1.0, 2.0]))


LAMBDA_1E308 = SimParams(Configuration.LAMBDA, 0.3, 0.2, 1e308)  # 2 delta / 3 and delta^2 overflow
XI_1_7E308 = SimParams(Configuration.XI, 0.3, 0.2, 1.7e308)  # H finite, M = 2 delta past the range


@pytest.mark.parametrize("run,what", [
    (lambda: rotating_hamiltonian(LAMBDA_1E308), "Hamiltonian H"),
    (lambda: adjoint_generator(LAMBDA_1E308), "adjoint generator M"),
    (lambda: adjoint_generator(XI_1_7E308), "adjoint generator M"),
    (lambda: integrate_bloch_ode(LAMBDA_1E308, [0.0, 1.0, 2.0], 1.0), "adjoint generator M"),
    (lambda: integrate_bloch_ode(XI_1_7E308, [0.0, 1.0, 2.0], 1.0), "adjoint generator M"),
    # rho(M) dt = 20, past RK4's stability bound 2 sqrt 2: each grid interval of
    # 100 steps amplifies the fastest mode past the float range.
    (lambda: integrate_bloch_ode(SimParams(Configuration.XI, 0.2, 0.3, 1000.0),
                                 np.arange(0.0, 101.0), 0.01), "RK4 trajectory"),
    (lambda: rabi_frequency(LAMBDA_1E308), "Rabi frequency"),
    (lambda: rabi_frequency(XI_1_7E308), "Rabi frequency"),
    (lambda: lambda_closed_form(LAMBDA_1E308, [0.0, 1.0, 2.0]), "Rabi frequency"),
    (lambda: lambda_closed_form(params(FIG_LAMBDA), [0.0, math.nan]),
     "closed-form amplitude c(t)"),
    (lambda: lambda_closed_form(params(FIG_LAMBDA), math.inf), "closed-form amplitude c(t)"),
], ids=["hamiltonian-lambda", "generator-lambda", "generator-xi", "rk4-lambda", "rk4-xi",
        "rk4-xi-unstable-step", "rabi-lambda", "rabi-xi", "closed-form-lambda",
        "closed-form-nan-time", "closed-form-inf-time"])
def test_overflowing_input_raises_value_error(run, what):
    # Under the suite's warnings-as-errors: no RuntimeWarning, OverflowError or
    # non-finite return, only the one ValueError naming the non-finite result.
    with pytest.raises(ValueError, match=f"^{re.escape(what)} is not finite$"):
        run()


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "bloch_trajectory" in block
    exec(compile(block, "README.md", "exec"), {})


@st.composite
def sim_params(draw):
    """Any topology and convention, kappa in [0, 5], delta in [-30, 30] or 0,
    and a random normalized complex c0."""
    parts = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 6)))
    c0 = parts[:3] + 1j * parts[3:]
    norm = np.linalg.norm(c0)
    if norm < 0.1:
        c0, norm = np.ones(3, dtype=complex), SQ3
    return SimParams(
        config=draw(st.sampled_from(list(Configuration))),
        kappa_a=draw(st.floats(0.0, 5.0)),
        kappa_b=draw(st.floats(0.0, 5.0)),
        delta=draw(st.one_of(st.just(0.0), st.floats(-30.0, 30.0))),
        c0=tuple(c0 / norm),
        coupling_convention=draw(st.sampled_from(["half", "full"])),
    )


def unitary(p, t):
    """U(t) column by column: the propagated basis states."""
    columns = [
        propagate_exact(SimParams(p.config, p.kappa_a, p.kappa_b, p.delta, tuple(e),
                                  p.coupling_convention), [t])[0]
        for e in np.eye(3)
    ]
    return np.stack(columns, axis=1)


@seed(8)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(sim_params(), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_invariants_across_parameter_space(p, t, s):
    times = np.linspace(0.0, 5.0, 11)
    traj = bloch_trajectory(p, times)
    assert np.abs((np.abs(traj.amplitudes) ** 2).sum(axis=1) - 1.0).max() <= UNITARITY_TOL
    assert np.abs((traj.bloch**2).sum(axis=1) - BLOCH_NORM_SQ).max() <= 1e-12
    # simulate's plain-float rows, held to verify's oracle and bound.
    rows = list(map(model.row_formula(p), times.tolist()))
    assert checks.kernel_deviation(p, traj, rows) <= checks.KERNEL_TOL

    m = adjoint_generator(p)
    assert np.array_equal(m, -m.T)
    # dn/dt = Tr[lambda (-i [H, rho])], independent of the f table.
    h = rotating_hamiltonian(p)
    rho = density_from_state(traj.amplitudes)
    oracle = bloch_from_density(-1j * (h @ rho - rho @ h))
    assert np.abs(traj.bloch @ m.T - oracle).max() <= 1e-12 * (1.0 + np.abs(h).max())

    assert np.abs(unitary(p, t + s) - unitary(p, t) @ unitary(p, s)).max() <= 1e-12

    if p.delta == 0.0:
        s4_0, s2_0 = sector_initial_norms(p)
        assert abs(s4_0 + s2_0 - BLOCH_NORM_SQ) <= SECTOR_SUM_TOL
        assert np.abs(traj.sector4 - s4_0).max() <= SECTOR_TOL
        assert np.abs(traj.sector2 - s2_0).max() <= SECTOR_TOL
        assert resonance_split_check(p, traj).split

    lam_half = p.config is Configuration.LAMBDA and p.coupling_convention == "half"
    if lam_half and p.kappa_a**2 + p.kappa_b**2 >= 1e-2:
        assert np.abs(lambda_closed_form(p, times) - traj.amplitudes).max() <= CLOSED_FORM_TOL

    # RK4 wherever derivation notes section 9 predicts a tenth of the tolerance.
    if rk4_error_estimate(p, checks.DT, times[-1])[1] <= checks.RK4_GUARD_FRACTION * checks.RK4_TOL:
        rk4 = integrate_bloch_ode(p, times, checks.DT)
        assert np.abs(rk4.bloch - traj.bloch).max() <= checks.RK4_TOL
