"""Acceptance gate: every criterion at its pinned tolerance.

Criteria 1-10 assert on the named checks of ``qutrit-bloch verify all``
(qutrit_bloch.checks), which hold every tolerance, sample and grid: the
dynamics checks run on the figures' own dt = 0.01 grid. Run with
``pytest -v -s tests/test_acceptance.py`` to see one printed PASS/FAIL line
per check (plus one line per parameter set for the RK4 criterion).

Known red: criterion 7 demands RK4 at dt=0.01 to track the exact propagator
within 1e-6 on every figure parameter set, including the ladder run at
delta=20 whose fastest Bloch frequency is about 2*delta=40. There the RK4
step angle is 0.4 rad and the accumulated error is order 0.5, so that one
sub-case fails by construction of the method, not of this implementation
(see docs/derivation_notes.md and the convergence test in test_dynamics.py).
"""

import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qutrit_bloch import checks, figures
from qutrit_bloch.dynamics import bloch_trajectory, sector_initial_norms
from qutrit_bloch.states import BLOCH_NORM_SQ

SETS = figures.parameter_sets()


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def suites():
    """``verify all``'s suites, run once: criteria 1-10 read their results."""
    return checks.run_suites("all")


def assert_checks(suites, criterion: int, *names: str) -> None:
    results = {r.name: r for r in suites.results}
    for name in names:
        print(f"[criterion {criterion:2d}] {results[name].line()}")
    failed = [name for name in names if not results[name].passed]
    assert not failed, failed


def test_criterion_01_seven_sphere_norm(suites):
    assert_checks(suites, 1, "state/seven-sphere-norm-4/3")


def test_criterion_02_map_equivalence(suites):
    assert_checks(suites, 2, "state/geometric-trace-map-equivalence")


def test_criterion_03_purity_bounds_and_identity(suites):
    assert_checks(suites, 3, "state/purity-identity", "state/purity-bounds")


def test_criterion_04_dynamical_norm_conservation(suites):
    assert_checks(suites, 4, "dynamics/bloch-norm-4/3")


def test_criterion_05_resonant_sector_split(suites):
    assert_checks(suites, 5, "dynamics/sector-conservation-at-resonance")


def test_criterion_06_off_resonance_split_vanishes(suites):
    assert_checks(suites, 6, "dynamics/off-resonance-splitting-vanishes")


@pytest.mark.parametrize(
    "label",
    [
        pytest.param(lbl, marks=pytest.mark.known_red if lbl == "xi@20" else ())
        for lbl in SETS
    ],
)
def test_criterion_07_oracle_triangle_rk4(suites, label):
    dev = checks.rk4_deviation(SETS[label])
    detail = f"RK4(dt={checks.DT}) vs exact on {label}: max dev {dev:.3e} (tol {checks.RK4_TOL:g})"
    # verify skips the unresolvable runs with an INFO note that says why.
    detail += "".join(f"; {note}" for note in suites.notes if f": {label} skipped" in note)
    report(7, dev <= checks.RK4_TOL, detail)
    assert dev <= checks.RK4_TOL, detail


def test_criterion_07_closed_form_agreement(suites):
    assert_checks(suites, 7, "dynamics/lambda-closed-form")


def test_criterion_08_lambda_generator_coefficients(suites):
    assert_checks(suites, 8, "dynamics/lambda-generator-reference")


def test_criterion_09_lambda_resonant_periodicity(suites):
    assert_checks(suites, 9, "dynamics/lambda-periodicity")


def test_criterion_10_algebra_suite(suites):
    names = [r.name for r in suites.results if r.name.startswith("algebra/")]
    assert len(names) == 8
    assert_checks(suites, 10, *names)


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Run the CLI once per bundled figure; reused by the criterion-11 tests.

    Two runs at a time, one per core; each is its own subprocess, timed on
    its own.
    """
    out_dir = tmp_path_factory.mktemp("cli_runs")

    def run(name):
        out = out_dir / f"{name}.csv"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qutrit_bloch.cli", "simulate",
             "--figure", name, "--output", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        return proc, time.perf_counter() - start, out

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(figures.FIGURE_NAMES, pool.map(run, figures.FIGURE_NAMES)))


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
        if cfg.params.delta == 0.0:
            s4_0, s2_0 = sector_initial_norms(cfg.params)
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
    p = figures.load_figure("fig1a").params
    times = np.arange(0, 201) * 0.01
    expected = bloch_trajectory(p, times)
    got = np.array([[row[f"n{k}"] for k in range(1, 9)] for row in obj["rows"]])
    assert np.array_equal(got, expected.bloch)
