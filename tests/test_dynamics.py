import math

import numpy as np
import pytest

from qutrit_bloch import checks, dynamics, figures
from qutrit_bloch.checks import lambda_generator_reference
from qutrit_bloch.dynamics import (
    Configuration,
    SimParams,
    adjoint_generator,
    bloch_trajectory,
    integrate_bloch_ode,
    lambda_closed_form,
    propagate_exact,
    rabi_frequency,
    resonance_split_check,
    rk4_error_estimate,
    rotating_hamiltonian,
    sector_index_sets,
    sector_initial_norms,
)
from qutrit_bloch.states import BLOCH_NORM_SQ, bloch_from_amplitudes, density_from_state
from qutrit_bloch.su3 import ConsistencyError, gellmann_basis

SQ3 = math.sqrt(3.0)
EQUAL = (1 / SQ3, 1 / SQ3, 1 / SQ3)

FIG_LAMBDA = dict(config=Configuration.LAMBDA, kappa_a=0.3, kappa_b=0.2)
FIG_VEE = dict(config=Configuration.VEE, kappa_a=0.3, kappa_b=0.2)
FIG_XI = dict(config=Configuration.XI, kappa_a=0.2, kappa_b=0.3)


def params(base, delta=0.0, **kw):
    return SimParams(delta=delta, **base, **kw)


def test_configuration_parse():
    assert Configuration.parse(" Lambda ") is Configuration.LAMBDA
    assert Configuration.parse("XI") is Configuration.XI
    with pytest.raises(ValueError):
        Configuration.parse("ladder")


def test_sim_params_validation():
    with pytest.raises(ValueError):
        params(FIG_LAMBDA, c0=(1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        SimParams(Configuration.LAMBDA, -0.1, 0.2, 0.0)
    with pytest.raises(ValueError):
        params(FIG_LAMBDA, coupling_convention="double")


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
    assert np.abs(amps[0] - p.c0_array).max() <= 1e-15


@pytest.mark.parametrize("base", [FIG_LAMBDA, FIG_VEE, FIG_XI])
@pytest.mark.parametrize("delta", [0.0, 0.2, 1.2, 20.0])
def test_propagate_unitarity(base, delta):
    amps = propagate_exact(params(base, delta=delta), np.linspace(0, 100, 301))
    norms = (np.abs(amps) ** 2).sum(axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


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
        assert np.abs(lambda_closed_form(p, 0.0) - p.c0_array).max() <= 1e-15
        times = np.array([1.0, 5.0, 25.0, 77.3])
        exact = propagate_exact(p, times)
        assert np.abs(lambda_closed_form(p, times) - exact).max() <= 1e-9


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


@pytest.mark.parametrize("base,delta", [
    (FIG_LAMBDA, 0.0), (FIG_LAMBDA, 0.2), (FIG_LAMBDA, 1.2),
    (FIG_VEE, 0.0), (FIG_VEE, 0.2), (FIG_XI, 0.0), (FIG_XI, 20.0),
])
def test_trajectory_norm_conservation(base, delta):
    traj = bloch_trajectory(params(base, delta=delta), np.linspace(0, 100, 501))
    assert np.abs((traj.bloch**2).sum(axis=1) - BLOCH_NORM_SQ).max() <= 1e-9


def test_trajectory_sector_norms_fig_lambda():
    traj = bloch_trajectory(params(FIG_LAMBDA), np.linspace(0, 100, 1001))
    assert np.abs(traj.sector4 - 4 / 9).max() <= 1e-9
    assert np.abs(traj.sector2 - 8 / 9).max() <= 1e-9


def test_trajectory_derivative_matches_liouville():
    # Independent route: dn_k/dt = Tr[lam_k (-i [H, rho])].
    lam = gellmann_basis()
    for base, delta in ((FIG_LAMBDA, 0.7), (FIG_VEE, 0.3), (FIG_XI, 20.0)):
        p = params(base, delta=delta)
        traj = bloch_trajectory(p, np.array([0.0, 2.0, 11.0]))
        h = rotating_hamiltonian(p)
        for c, dn in zip(traj.amplitudes, traj.bloch_dot):
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
    assert np.abs(adjoint_generator(p) - lambda_generator_reference(p)).max() <= 1e-15


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
    assert np.abs(rk.bloch - exact.bloch).max() <= 1e-6
    drift = abs(rk.bloch[-1] @ rk.bloch[-1] - BLOCH_NORM_SQ)
    assert drift <= 1e-8


def test_integrate_converges_on_stiff_ladder():
    # At delta=20 the fastest Bloch frequency is about 2*delta; a step small
    # enough to resolve it brings RK4 back within the cross-oracle band.
    p = params(FIG_XI, delta=20.0)
    times = np.arange(0.0, 10.0 + 1e-12, 0.5)
    rk = integrate_bloch_ode(p, times, 5e-4)
    exact = bloch_trajectory(p, times)
    assert np.abs(rk.bloch - exact.bloch).max() <= 1e-6


def reference_rk4(p, times, dt):
    """The per-step RK4 loop that the step-matrix powers must reproduce."""
    m = adjoint_generator(p)
    n = bloch_from_amplitudes(p.c0_array)
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
        assert abs(s4 + s2 - BLOCH_NORM_SQ) <= 1e-12


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
    batch4, batch2 = dynamics._sector_polynomials(p.config, np.array([p.c0_array] * 3))
    assert batch4.shape == batch2.shape == (3,)
    assert np.all(batch4 == s4) and np.all(batch2 == s2)
    monkeypatch.setattr(dynamics, "SECTOR_IMAG_TOL", -1.0)
    with pytest.raises(ConsistencyError, match="sector norms not real"):
        sector_initial_norms(p)


@pytest.mark.parametrize("label", sorted(figures.parameter_sets()))
def test_rk4_error_estimate_matches_generator_spectrum(label):
    p = figures.parameter_sets()[label]
    radius = float(np.abs(np.linalg.eigvals(adjoint_generator(p))).max())
    theta, estimate = rk4_error_estimate(p, checks.DT, checks.T_MAX)
    assert abs(theta / checks.DT - radius) <= 1e-12 * radius
    assert estimate == (checks.T_MAX / checks.DT) * theta**5 / 120.0


@pytest.mark.parametrize("base", [FIG_LAMBDA, FIG_VEE, FIG_XI])
def test_resonant_sector_conservation(base):
    p = params(base)
    s4_0, s2_0 = sector_initial_norms(p)
    traj = bloch_trajectory(p, np.linspace(0, 100, 2001))
    assert np.abs(traj.sector4 - s4_0).max() <= 1e-9
    assert np.abs(traj.sector2 - s2_0).max() <= 1e-9


def test_resonance_split_check_flags():
    times = np.arange(0.0, 100.0 + 1e-12, 0.1)
    report = resonance_split_check(params(FIG_LAMBDA), times)
    assert report.split
    assert max(report.max_dev4, report.max_dev2) <= 1e-9

    report = resonance_split_check(params(FIG_LAMBDA, delta=1.2), times)
    assert not report.split
    assert max(report.max_dev4, report.max_dev2) > 1e-3

    free = SimParams(Configuration.LAMBDA, 0.0, 0.0, 0.0)
    assert resonance_split_check(free, times).split


def test_lambda_resonant_periodicity():
    p = params(FIG_LAMBDA)
    period = 4 * math.pi / rabi_frequency(p)
    for t in (0.0, 1.0, 2.5, 7.7, 20.0, 50.0):
        pair = bloch_trajectory(p, np.array([t, t + period])).bloch
        assert np.linalg.norm(pair[1] - pair[0]) <= 1e-8


def test_time_grid_validation():
    p = params(FIG_LAMBDA)
    with pytest.raises(ValueError):
        propagate_exact(p, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        propagate_exact(p, np.array([]))
