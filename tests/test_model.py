import ast
import copy
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qutrit_bloch import checks, dynamics, figures, model, states
from qutrit_bloch.dynamics import adjoint_generator, rotating_hamiltonian

EPS = np.finfo(float).eps


def symmetric_matrices():
    """Seeded symmetric 3x3 matrices: random scales, degenerate, diagonal, zero, the figures'."""
    rng = np.random.default_rng(20241019)
    out = []
    for scale in (1e-300, 1e-8, 1.0, 40.0, 1e150, 1e300):
        for _ in range(20):
            a = rng.normal(size=(3, 3)) * scale
            out.append((a + a.T) / 2.0)
    out.append(np.diag([2.0, -1.0, -1.0]))  # degenerate, already diagonal
    out.append(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))  # zero diagonal
    out.append(np.zeros((3, 3)))
    out.append(np.array([[1.0, 1e-200, 0.0], [1e-200, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    out += [rotating_hamiltonian(p) for p in figures.parameter_sets().values()]
    return out


@pytest.mark.parametrize("h", symmetric_matrices())
def test_eigenpairs_match_eigh(h):
    energies, vectors = model.eigenpairs(tuple(map(tuple, h.tolist())))
    e, v = np.array(energies), np.array(vectors)
    scale = max(np.abs(h).max(), np.finfo(float).tiny)
    assert np.all(np.diff(e) >= 0.0)
    assert np.abs(e - np.linalg.eigvalsh(h)).max() <= 8 * EPS * scale
    assert np.abs(v.T @ v - np.eye(3)).max() <= 8 * EPS
    assert np.abs(h @ v - v * e).max() <= 8 * EPS * scale


@pytest.mark.parametrize("h", [
    ((1.7e308, 1.7e308, 0.0), (1.7e308, -1.7e308, 0.0), (0.0, 0.0, 0.0)),
    ((math.inf, 0.1, 0.15), (0.1, -3e307, 0.0), (0.15, 0.0, -3e307)),
    ((math.nan, 0.0, 0.0), (0.0, 1.0, 0.5), (0.0, 0.5, 1.0)),
], ids=["overflowing", "inf", "nan"])
def test_eigenpairs_stop_at_the_sweep_cap(h):
    # Non-finite intermediates never converge: the solver returns after
    # JACOBI_SWEEPS sweeps with non-finite output, and raises nothing.
    energies, vectors = model.eigenpairs(h)
    assert not all(map(math.isfinite, (*energies, *sum(vectors, ()))))


@pytest.mark.parametrize("label", sorted(figures.parameter_sets()))
def test_generator_entries_match_the_f_table(label):
    p = figures.parameter_sets()[label]
    entries = model.generator_entries(model.hamiltonian(p))
    assert len(entries) == 28 and list(entries) == sorted(entries)
    assert all(entries[l, k] == -v for (k, l), v in entries.items())
    reference = checks.oracle_generator(p)
    # 1e-15 of M's largest entry: one rounding of the Gell-Mann coefficients.
    scale = max(1.0, np.abs(reference).max())
    assert np.abs(adjoint_generator(p) - reference).max() <= 1e-15 * scale
    assert np.count_nonzero(adjoint_generator(p)) <= 28


@pytest.mark.parametrize("delta,convention", [(1e308, "half"), (1.7e308, "full")],
                         ids=["detuning", "full-convention"])
def test_row_formula_carries_an_overflow_into_the_rows(delta, convention):
    # No check of its own: H, its eigenpairs or M overflow, and the first row
    # holds a non-finite value, so the first block of simulate's table breaches.
    p = model.SimParams(model.Configuration.LAMBDA, 0.3, 0.2, delta,
                        coupling_convention=convention)
    assert not all(map(math.isfinite, model.row_formula(p)(0.0)))


def test_command_line_modules_import_no_numpy():
    code = (
        "import sys, qutrit_bloch.cli, qutrit_bloch.model, qutrit_bloch.config, "
        "qutrit_bloch.figures; print('numpy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, check=True)
    assert result.stdout == "False\n"


def test_command_line_modules_hold_no_numpy_import():
    # At any depth: a numpy import inside a function would load numpy on a
    # later call, which the import-time check above does not see. No module
    # of the package imports dataclasses: it imports inspect, about 13 ms of
    # every simulate run, and each record is a NamedTuple or a model._Record.
    package = Path(model.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py"))
    assert len(modules) == 9
    found = []
    for name in modules:
        banned = ("dataclasses",)
        if name in ("__init__", "cli", "config", "figures", "model"):
            banned += ("numpy",)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported = [node.module]
            else:
                continue
            found += [(name, node.lineno) for m in imported if m.split(".")[0] in banned]
    assert found == []


def test_records_are_frozen_values():
    # What @dataclass(frozen=True) gave SimParams and RunConfig: keyword or
    # positional construction, no assignment, value equality and hash, its
    # repr, and copies that are equal.
    p = model.SimParams(model.Configuration.XI, 0.2, 0.3, delta=1.0, c0=[1, 0, 0])
    same = model.SimParams(model.Configuration.XI, 0.2, 0.3, 1.0, (1, 0j, 0), "half")
    cfg = figures.load_figure("fig1a")
    assert p == same and hash(p) == hash(same) and p.c0 == (1 + 0j, 0j, 0j)
    assert p != model.SimParams(model.Configuration.XI, 0.2, 0.3, 1.0, (1, 0, 0), "full")
    assert p != cfg and cfg == figures.load_figure("fig1a")
    assert len({cfg, figures.load_figure("fig1a"), p, same}) == 2
    assert repr(p) == (
        "SimParams(config=<Configuration.XI: 'xi'>, kappa_a=0.2, kappa_b=0.3, delta=1.0,"
        " c0=((1+0j), 0j, 0j), coupling_convention='half')")
    assert repr(cfg) == (
        f"RunConfig(params={cfg.params!r}, t_max=100.0, dt=0.01, emit='timeseries',"
        " output_format='csv', output_path=PosixPath('fig1a.csv'))")
    for record, field in ((p, "delta"), (cfg, "dt"), (cfg, "other")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(record, field)
    for record in (p, cfg):
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_angle_params_is_a_validated_record():
    # AngleParams is a model._Record as SimParams is: the same contract, and
    # a copy or a pickle rebuilds through __init__, so it is range-checked.
    a = states.AngleParams(0.125, 0.25)
    same = states.AngleParams(theta1=0.125, theta2=0.25, phi1=0.0, phi2=0.0)
    assert (a.phi1, a.phi2) == (0.0, 0.0)
    assert a == same and hash(a) == hash(same)
    assert a != states.AngleParams(0.125, 0.25, phi2=0.5) and len({a, same}) == 1
    assert repr(a) == "AngleParams(theta1=0.125, theta2=0.25, phi1=0.0, phi2=0.0)"
    with pytest.raises(AttributeError, match="cannot assign to field 'theta1'"):
        a.theta1 = 0.5
    assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))
    text = pickle.dumps(a, protocol=0)
    assert text.count(b"F0.125\n") == 1
    with pytest.raises(ValueError, match=r"theta1=9.0 outside \[0, pi\]"):
        pickle.loads(text.replace(b"F0.125\n", b"F9.0\n"))


def test_result_records_are_named_tuples():
    # Plain result records: field repr, no assignment. A Trajectory holds
    # arrays, so it compares and hashes by identity.
    report = dynamics.SplitReport(1.0, 0.5, 0.0, 0.0, True)
    assert repr(report) == (
        "SplitReport(s4_initial=1.0, s2_initial=0.5, max_dev4=0.0, max_dev2=0.0, split=True)")
    assert report.SPLIT_TOL == 1e-6 and report == dynamics.SplitReport(1.0, 0.5, 0.0, 0.0, True)
    grid = np.zeros(3)
    traj = dynamics.Trajectory(grid, None, grid, grid, grid)
    twin = dynamics.Trajectory(grid, None, grid, grid, grid)
    assert traj == traj and traj != twin and not traj == twin and len({traj, twin}) == 2
    for record, field in ((report, "split"), (traj, "times")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_every_name_has_one_home():
    # A module's __all__ lists only the names it defines: a shared name is
    # read from its home, never through a module that imports it.
    from qutrit_bloch import cli, config, su3

    homes = {}
    for module in (model, config, figures, cli, su3, states, dynamics, checks):
        for name in module.__all__:
            homes.setdefault(name, []).append(module.__name__)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


def test_every_public_name_resolves():
    import qutrit_bloch

    for name in qutrit_bloch.__all__:
        assert getattr(qutrit_bloch, name) is not None, name
    with pytest.raises(AttributeError):
        qutrit_bloch.no_such_name  # noqa: B018
