"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one printed
PASS/FAIL line per criterion (plus one line per parameter set where a
criterion quantifies over the figure runs).

Known red: criterion 7 demands RK4 at dt=0.01 to track the exact propagator
within 1e-6 on every figure parameter set, including the ladder run at
delta=20 whose fastest Bloch frequency is about 2*delta=40. There the RK4
step angle is 0.4 rad and the accumulated error is order 0.5, so that one
sub-case fails by construction of the method, not of this implementation
(see docs/derivation_notes.md and the convergence test in test_dynamics.py).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qutrit_bloch import checks, figures
from qutrit_bloch.dynamics import (
    Configuration,
    SimParams,
    adjoint_generator,
    bloch_trajectory,
    integrate_bloch_ode,
    lambda_closed_form,
    propagate_exact,
    rabi_frequency,
    sector_initial_norms,
)
from qutrit_bloch.states import (
    BLOCH_NORM_SQ,
    bloch_from_amplitudes,
    bloch_from_density,
    bloch_geometric,
    density_from_state,
    purity,
    state_from_angles,
)
from qutrit_bloch.su3 import gellmann_basis, shift_operator, structure_constants

SQ3 = math.sqrt(3.0)
SETS = figures.parameter_sets()
SET_LABELS = tuple(SETS)
RESONANT = tuple(label for label, p in SETS.items() if p.delta == 0.0)

T_MAX, DT = 100.0, 0.01
FINE_GRID = np.arange(0.0, T_MAX + DT / 2.0, DT)
COARSE_GRID = np.arange(0.0, T_MAX + DT / 2.0, 0.5)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def angle_sample():
    return checks.sample_angles(10_000)


def test_criterion_01_seven_sphere_norm(angle_sample):
    tol = 1e-12
    norms = np.array([bloch_geometric(a) @ bloch_geometric(a) for a in angle_sample])
    residual = float(np.abs(norms - BLOCH_NORM_SQ).max())
    report(1, residual <= tol, f"seven-sphere norm 4/3 on 1e4 samples: max dev {residual:.3e} (tol {tol:g})")
    assert residual <= tol


def test_criterion_02_map_equivalence(angle_sample):
    tol = 1e-12
    residual = 0.0
    for a in angle_sample:
        geo = bloch_geometric(a)
        via = bloch_from_density(density_from_state(state_from_angles(a)))
        residual = max(residual, float(np.abs(geo - via).max()))
    report(2, residual <= tol, f"geometric vs trace-map Bloch vectors: max dev {residual:.3e} (tol {tol:g})")
    assert residual <= tol


def test_criterion_03_purity_bounds_and_identity():
    tol = 1e-12
    rhos = checks.random_mixtures(1_000)
    purities = np.array([purity(r) for r in rhos])
    identity_dev = max(
        abs(purity(r) - (1.0 + 1.5 * (bloch_from_density(r) ** 2).sum()) / 3.0)
        for r in rhos
    )
    bound_dev = max(0.0, float(purities.max() - 1.0), float(1.0 / 3.0 - purities.min()))
    ok = identity_dev <= tol and bound_dev <= tol
    report(3, ok, f"purity identity dev {identity_dev:.3e}, bound excess {bound_dev:.3e} (tol {tol:g})")
    assert identity_dev <= tol
    assert bound_dev <= tol


def test_criterion_04_dynamical_norm_conservation():
    tol = 1e-9
    worst, worst_label = 0.0, ""
    for label, p in SETS.items():
        amps = propagate_exact(p, FINE_GRID)
        norms = (bloch_from_amplitudes(amps) ** 2).sum(axis=1)
        dev = float(np.abs(norms - BLOCH_NORM_SQ).max())
        if dev > worst:
            worst, worst_label = dev, label
    report(4, worst <= tol, f"Bloch norm 4/3 on all figure sets: max dev {worst:.3e} at {worst_label} (tol {tol:g})")
    assert worst <= tol


def test_criterion_05_resonant_sector_split():
    tol = 1e-9
    worst = 0.0
    for label in RESONANT:
        p = SETS[label]
        s4_0, s2_0 = sector_initial_norms(p)
        traj = bloch_trajectory(p, FINE_GRID)
        if p.config is Configuration.LAMBDA:
            assert abs(s4_0 - 4.0 / 9.0) <= 1e-12
            assert abs(s2_0 - 8.0 / 9.0) <= 1e-12
        dev = max(
            float(np.abs(traj.sector4 - s4_0).max()),
            float(np.abs(traj.sector2 - s2_0).max()),
        )
        worst = max(worst, dev)
    report(5, worst <= tol, f"sector norms constant at resonance (all configs): max dev {worst:.3e} (tol {tol:g})")
    assert worst <= tol


def test_criterion_06_off_resonance_split_vanishes():
    threshold = 1e-3
    p = SETS["lambda@1.2"]
    s4_0, s2_0 = sector_initial_norms(p)
    traj = bloch_trajectory(p, FINE_GRID)
    dev = max(
        float(np.abs(traj.sector4 - s4_0).max()),
        float(np.abs(traj.sector2 - s2_0).max()),
    )
    report(6, dev > threshold, f"off-resonant Lambda (delta=1.2) sector deviation {dev:.3e} (must exceed {threshold:g})")
    assert dev > threshold


@pytest.mark.parametrize(
    "label",
    [
        pytest.param(lbl, marks=pytest.mark.known_red if lbl == "xi@20" else ())
        for lbl in SET_LABELS
    ],
)
def test_criterion_07_oracle_triangle_rk4(label):
    tol = 1e-6
    p = SETS[label]
    exact = bloch_trajectory(p, COARSE_GRID)
    rk = integrate_bloch_ode(p, COARSE_GRID, DT)
    dev = float(np.abs(rk.bloch - exact.bloch).max())
    detail = f"RK4(dt={DT}) vs exact on {label}: max dev {dev:.3e} (tol {tol:g})"
    if label == "xi@20" and dev > tol:
        detail += (
            "; unattainable as stated: spectral radius ~40 gives step angle 0.4,"
            " accumulated RK4 error order 1e-1 at any horizon"
        )
    report(7, dev <= tol, detail)
    assert dev <= tol, detail


def test_criterion_07_closed_form_agreement():
    tol = 1e-9
    worst = 0.0
    for label in ("lambda@0", "lambda@0.2"):
        p = SETS[label]
        closed = lambda_closed_form(p, FINE_GRID)
        exact = propagate_exact(p, FINE_GRID)
        worst = max(worst, float(np.abs(closed - exact).max()))
    report(7, worst <= tol, f"closed-form Lambda amplitudes vs exact (delta 0, 0.2): max dev {worst:.3e} (tol {tol:g})")
    assert worst <= tol


def test_criterion_08_lambda_generator_coefficients():
    tol = 1e-15
    worst = 0.0
    for kappa_a, kappa_b, delta in ((0.3, 0.2, 1.2), (0.7, 0.11, 3.0)):
        p = SimParams(Configuration.LAMBDA, kappa_a, kappa_b, delta)
        m = adjoint_generator(p)
        worst = max(worst, float(np.abs(m - checks.lambda_generator_reference(p)).max()))
    # anchored row: the only level-8 coupling is to component 5, sqrt(3)/2 k13
    p = SimParams(Configuration.LAMBDA, 0.3, 0.2, 0.7)
    row8 = adjoint_generator(p)[7].copy()
    anchor_ok = abs(row8[4] - SQ3 / 2.0 * 0.3) <= tol
    row8[4] = 0.0
    anchor_ok = anchor_ok and np.abs(row8).max() == 0.0
    ok = worst <= tol and anchor_ok
    report(8, ok, f"Lambda Bloch-equation coefficient table reproduced: max dev {worst:.3e} (tol {tol:g}), row-8 anchor {'ok' if anchor_ok else 'BAD'}")
    assert worst <= tol
    assert anchor_ok


def test_criterion_09_lambda_resonant_periodicity():
    tol = 1e-8
    p = SETS["lambda@0"]
    period = 4.0 * math.pi / rabi_frequency(p)
    worst = 0.0
    for t in (0.0, 1.0, 2.5, 7.7, 20.0, 50.0):
        pair = bloch_trajectory(p, np.array([t, t + period])).bloch
        worst = max(worst, float(np.linalg.norm(pair[1] - pair[0])))
    report(9, worst <= tol, f"Lambda trajectory repeats after 4 pi/Omega: max dev {worst:.3e} (tol {tol:g})")
    assert worst <= tol


def test_criterion_10_algebra_suite():
    tol = 1e-14
    lam = gellmann_basis()
    gram_dev = max(
        abs(np.trace(lam[k] @ lam[l]).real - (2.0 if k == l else 0.0))
        for k in range(1, 9)
        for l in range(1, 9)
    )
    sc = structure_constants()
    f_dev = max(
        abs(sc.f[0, 1, 2] - 1.0),
        abs(sc.f[3, 4, 7] - SQ3 / 2.0),
        abs(sc.f[5, 6, 7] - SQ3 / 2.0),
    )
    action_dev = 0.0
    e = np.eye(3, dtype=complex)
    for (family, kind), actions in checks.SHIFT_ACTIONS.items():
        op = shift_operator(family, kind)
        for src, action in enumerate(actions):
            expected = np.zeros(3, dtype=complex)
            if action is not None:
                expected[action[0] - 1] = action[1]
            action_dev = max(action_dev, float(np.abs(op @ e[src] - expected).max()))
    ok = gram_dev <= tol and f_dev <= tol and action_dev == 0.0
    report(10, ok, f"algebra: orthogonality dev {gram_dev:.3e}, f-values dev {f_dev:.3e}, shift actions dev {action_dev:.1e}")
    assert gram_dev <= tol
    assert f_dev <= tol
    assert action_dev == 0.0


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Run the CLI once per bundled figure; reused by the criterion-11 tests."""
    out_dir = tmp_path_factory.mktemp("cli_runs")
    runs = {}
    for name in figures.FIGURE_NAMES:
        out = out_dir / f"{name}.csv"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qutrit_bloch.cli", "simulate",
             "--figure", name, "--output", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        runs[name] = (proc, time.perf_counter() - start, out)
    return runs


def test_criterion_11_cli_reproduction(cli_runs):
    worst_norm, worst_sector, slowest = 0.0, 0.0, 0.0
    for name, (proc, elapsed, out) in cli_runs.items():
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
        assert elapsed < 5.0, f"{name} took {elapsed:.2f}s"
        slowest = max(slowest, elapsed)
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.shape == (10001, 20), name
        worst_norm = max(worst_norm, float(np.abs(table[:, -1] - BLOCH_NORM_SQ).max()))
        cfg = figures.load_figure(name)
        if cfg.delta == 0.0:
            s4_0, s2_0 = sector_initial_norms(cfg.to_sim_params())
            worst_sector = max(
                worst_sector,
                float(np.abs(table[:, 17] - s4_0).max()),
                float(np.abs(table[:, 18] - s2_0).max()),
            )
    ok = worst_norm <= 1e-9 and worst_sector <= 1e-9
    report(
        11, ok,
        f"CLI reproduction of 12 figure runs: slowest {slowest:.2f}s,"
        f" file-recomputed norm dev {worst_norm:.3e}, sector dev {worst_sector:.3e} (tol 1e-09)",
    )
    assert worst_norm <= 1e-9
    assert worst_sector <= 1e-9


def test_criterion_11_json_format_matches(cli_runs, tmp_path):
    # Same run exported as JSON encodes the identical numeric sequences.
    out = tmp_path / "fig1a.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qutrit_bloch.cli", "simulate", "--figure", "fig1a",
         "--set", "t_max=2", "--format", "json", "--output", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(out.read_text())
    assert obj["meta"]["emit"] == "timeseries"
    p = figures.load_figure("fig1a").to_sim_params()
    times = np.arange(0, 201) * 0.01
    expected = bloch_trajectory(p, times)
    got = np.array([[row[f"n{k}"] for k in range(1, 9)] for row in obj["rows"]])
    assert np.array_equal(got, expected.bloch)
