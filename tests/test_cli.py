import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qutrit_bloch import checks, cli, states
from qutrit_bloch.cli import (
    CSV_HEADER,
    main,
    run_cardinal,
    run_simulate,
    run_verify,
    simulation_grid,
)
from qutrit_bloch.config import (
    MAX_GRID_ROWS,
    ConfigError,
    grid_rows,
    parse_run_config,
    render_run_config,
)
from qutrit_bloch.dynamics import Configuration, bloch_trajectory
from qutrit_bloch.figures import FIGURE_NAMES, figure_config_text, load_figure, parameter_sets

FIG1A_TEXT = "config=lambda\nkappa_a=0.3\nkappa_b=0.2\ndelta=0\nt_max=100\ndt=0.01\n"


def short_cfg(tmp_path, **overrides):
    base = {"t_max": "1", "output": str(tmp_path / "out.csv")}
    base.update({k: str(v) for k, v in overrides.items()})
    return parse_run_config(FIG1A_TEXT, base)


def test_parse_minimal_document_defaults():
    cfg = parse_run_config(FIG1A_TEXT)
    assert cfg.config is Configuration.LAMBDA
    assert (cfg.kappa_a, cfg.kappa_b, cfg.delta) == (0.3, 0.2, 0.0)
    assert cfg.convention == "half"
    assert cfg.emit == "timeseries"
    assert cfg.output_format == "csv"
    assert cfg.output_path == Path("trajectory.csv")
    third = 1 / math.sqrt(3.0)
    assert np.allclose(cfg.c0, [third, third, third], atol=1e-15)


def test_parse_matches_bundled_fig1a():
    cfg = parse_run_config(FIG1A_TEXT)
    bundled = load_figure("fig1a")
    assert bundled.to_sim_params() == cfg.to_sim_params()
    assert (bundled.t_max, bundled.dt) == (cfg.t_max, cfg.dt)


def test_parse_comments_and_whitespace():
    text = "# run\nconfig = xi  # ladder\nkappa_a=0.2\nkappa_b=0.3\n\ndelta=20\nt_max=100\ndt=0.01\n"
    cfg = parse_run_config(text)
    assert cfg.config is Configuration.XI
    assert cfg.delta == 20.0


def test_parse_empty_document_lists_required_keys():
    with pytest.raises(ConfigError) as err:
        parse_run_config("")
    for key in ("config", "kappa_a", "kappa_b", "delta", "t_max", "dt"):
        assert key in str(err.value)


@pytest.mark.parametrize("text,fragment", [
    ("bogus=1\n" + FIG1A_TEXT, "unknown key"),
    (FIG1A_TEXT + "dt=0.02\n", "duplicate"),
    (FIG1A_TEXT.replace("kappa_a=0.3", "kappa_a=fast"), "line 2"),
    (FIG1A_TEXT.replace("config=lambda", "config=omega"), "unknown configuration"),
    (FIG1A_TEXT.replace("dt=0.01", "dt=200"), "exceed"),
    (FIG1A_TEXT.replace("dt=0.01", "dt=0"), "positive"),
    (FIG1A_TEXT.replace("kappa_a=0.3", "kappa_a=-0.3"), "nonnegative"),
    (FIG1A_TEXT + "note\n", "key=value"),
    (FIG1A_TEXT + "emit=plots\n", "emit"),
    (FIG1A_TEXT + "format=xml\n", "format"),
])
def test_parse_rejects_bad_documents(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_run_config(text)
    assert fragment in str(err.value)


def test_parse_rejects_unnormalized_c0_naming_key():
    with pytest.raises(ConfigError) as err:
        parse_run_config(FIG1A_TEXT + "c0_re=1,1,0\n")
    msg = str(err.value)
    assert "c0_re" in msg and "renormalization" in msg


def test_parse_complex_initial_state():
    text = FIG1A_TEXT + "c0_re=0.5,0,0.5\nc0_im=0,0.70710678118654752,0\n"
    cfg = parse_run_config(text)
    assert abs(cfg.c0[1] - 0.7071067811865475j) <= 1e-15


def test_override_precedence():
    cfg = parse_run_config(FIG1A_TEXT, {"delta": "0.5", "output": "x.json", "format": "json"})
    assert cfg.delta == 0.5
    assert cfg.output_format == "json"
    assert cfg.output_path == Path("x.json")
    with pytest.raises(ConfigError):
        parse_run_config(FIG1A_TEXT, {"nonsense": "1"})


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_render_roundtrip_bundled(name):
    cfg = load_figure(name)
    assert parse_run_config(render_run_config(cfg)) == cfg


def test_render_roundtrip_awkward_values():
    text = FIG1A_TEXT + "c0_re=0.5,0,0.5\nc0_im=0,0.70710678118654752,0\nformat=json\n"
    cfg = parse_run_config(text, {"delta": "0.1234567890123456789", "t_max": "7.7"})
    assert parse_run_config(render_run_config(cfg)) == cfg


def test_figure_registry():
    assert len(FIGURE_NAMES) == 12
    assert "kappa_a=0.2" in figure_config_text("fig3b")
    with pytest.raises(ValueError):
        figure_config_text("fig7a")
    sets = parameter_sets()
    assert set(sets) == {
        "lambda@0", "lambda@0.2", "lambda@1.2",
        "vee@0", "vee@0.2", "xi@0", "xi@20",
    }


def test_simulation_grid_row_count():
    cfg = parse_run_config(FIG1A_TEXT)
    assert simulation_grid(cfg).size == 10001
    at_cap = parse_run_config(FIG1A_TEXT, {"t_max": str(MAX_GRID_ROWS - 1), "dt": "1"})
    assert grid_rows(at_cap.t_max, at_cap.dt) == MAX_GRID_ROWS


@pytest.mark.parametrize("t_max,dt", [
    ("1e12", "1e-3"),  # a 7 PiB grid
    ("1e300", "1e-300"),  # t_max/dt overflows to inf
    ("1e-300", "1e-320"),  # subnormal dt
    (str(MAX_GRID_ROWS), "1"),  # one row past the cap
])
def test_oversized_grid_rejected_at_parse(tmp_path, capsys, t_max, dt):
    # Validation only: each case is refused before any grid is allocated.
    with pytest.raises(ConfigError) as err:
        parse_run_config(FIG1A_TEXT, {"t_max": t_max, "dt": dt})
    assert "grid rows" in str(err.value)
    out = tmp_path / "out.csv"
    args = ["simulate", "--figure", "fig1a", "--set", f"t_max={t_max}", "--set", f"dt={dt}"]
    assert main(args + ["--output", str(out)]) == 2
    assert "grid rows" in capsys.readouterr().err
    assert not out.exists()


def test_run_simulate_csv(tmp_path):
    cfg = short_cfg(tmp_path)
    assert run_simulate(cfg) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 102  # header + t_max/dt + 1 rows
    table = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
    assert table.shape == (101, 20)
    assert np.abs(table[:, -1] - 4 / 3).max() <= 1e-9
    # resonant Lambda run conserves both sector norms
    assert np.abs(table[:, 17] - 4 / 9).max() <= 1e-9
    assert np.abs(table[:, 18] - 8 / 9).max() <= 1e-9


def test_run_simulate_deterministic_output(tmp_path):
    cfg = short_cfg(tmp_path)
    run_simulate(cfg)
    first = (tmp_path / "out.csv").read_bytes()
    run_simulate(cfg)
    assert (tmp_path / "out.csv").read_bytes() == first


def test_csv_and_json_encode_identical_numbers(tmp_path):
    csv_cfg = short_cfg(tmp_path)
    json_cfg = dataclasses.replace(
        csv_cfg, output_format="json", output_path=tmp_path / "out.json"
    )
    assert run_simulate(csv_cfg) == 0
    assert run_simulate(json_cfg) == 0
    table = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
    obj = json.loads((tmp_path / "out.json").read_text())
    fields = CSV_HEADER.split(",")
    assert obj["meta"]["config"] == "lambda"
    assert len(obj["rows"]) == table.shape[0]
    for i in (0, 37, 100):
        row = np.array([obj["rows"][i][k] for k in fields])
        assert np.array_equal(row, table[i])


def test_norm2_column_recomputes_from_row(tmp_path):
    cfg = short_cfg(tmp_path)
    run_simulate(cfg)
    table = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
    n = table[:, 1:9]
    recomputed = np.einsum("ij,ij->i", n, n)
    assert np.abs(recomputed - table[:, -1]).max() <= np.finfo(float).eps * 4


def test_run_simulate_unwritable_path(tmp_path, capsys):
    cfg = short_cfg(tmp_path, output=tmp_path / "missing" / "out.csv")
    assert run_simulate(cfg) == 2
    assert "cannot write" in capsys.readouterr().err


def test_run_simulate_invariant_breach(tmp_path, capsys, monkeypatch):
    import qutrit_bloch.cli as cli_mod

    real = cli_mod.bloch_trajectory

    def corrupted(p, times):
        traj = real(p, times)
        bloch = traj.bloch.copy()
        bloch[-1] *= 1.01  # inject a norm drift past the runtime tolerance
        return traj.__class__(
            times=traj.times, amplitudes=traj.amplitudes, bloch=bloch,
            bloch_dot=traj.bloch_dot, sector4=traj.sector4, sector2=traj.sector2,
        )

    monkeypatch.setattr(cli_mod, "bloch_trajectory", corrupted)
    cfg = short_cfg(tmp_path)
    assert run_simulate(cfg) == 3
    assert "norm drifted" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()

    # A detuning this large turns every entry into nan, and the drift with it.
    # stderr carries the CLI's one error line and no numpy warning.
    monkeypatch.undo()
    out = tmp_path / "nan.json"
    args = ["simulate", "--figure", "fig1a", "--set", "delta=1e308", "--set", "t_max=1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args + ["--format", "json", "--output", str(out)]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_write_keeps_existing_output(tmp_path, capsys, monkeypatch, fmt):
    out = tmp_path / f"out.{fmt}"
    out.write_bytes(b"earlier run\n")
    real = cli._write_rows

    def disk_full(fh, table, row, sep):
        real(fh, table[:3], row, sep)  # a partial write, then the failure
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_rows", disk_full)
    assert run_simulate(short_cfg(tmp_path, output=out, format=fmt)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"earlier run\n"


def test_run_cardinal_output(capsys):
    assert run_cardinal("one") == 0
    out = capsys.readouterr().out
    assert "n3=1" in out and "n8=0.57735026919" in out
    assert "norm^2: 1.33333333333" in out


def test_cardinal_bad_label_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cardinal", "super"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_run_verify_algebra(capsys):
    assert run_verify("algebra") == 0
    out = capsys.readouterr().out
    assert out.count("PASS algebra/") == 8
    assert "FAIL" not in out


def test_run_verify_names_broken_invariant(monkeypatch, capsys):
    # Negative control: a wrong n8 prefactor must be caught and named.
    real = states.bloch_geometric

    def broken(a):
        n = real(a).copy()
        n[7] *= 2.0  # as if the closed form carried half the true prefactor
        return n

    monkeypatch.setattr(states, "bloch_geometric", broken)
    assert run_verify("state") == 1
    out = capsys.readouterr().out
    assert "FAIL state/seven-sphere-norm-4/3" in out
    assert "norm 4/3" in out


def test_run_suites_unknown_scope():
    with pytest.raises(ValueError):
        checks.run_suites("everything")


def test_main_simulate_with_figure_and_overrides(tmp_path):
    out = tmp_path / "fig.csv"
    code = main([
        "simulate", "--figure", "fig1a",
        "--set", "t_max=1", "--output", str(out),
    ])
    assert code == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_main_simulate_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "config=vee\nkappa_a=0.3\nkappa_b=0.2\ndelta=0.2\nt_max=1\ndt=0.01\n"
        f"output={tmp_path / 'r.csv'}\n"
    )
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "r.csv").exists()


def test_main_simulate_requires_exactly_one_source(tmp_path, capsys):
    assert main(["simulate"]) == 2
    assert main(["simulate", "--config", "x.cfg", "--figure", "fig1a"]) == 2
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2
    err = capsys.readouterr().err
    assert "exactly one" in err
    assert "cannot read" in err


def test_main_simulate_bad_override(capsys):
    assert main(["simulate", "--figure", "fig1a", "--set", "delta"]) == 2
    assert "key=value" in capsys.readouterr().err


def reference_csv(path, table):
    """The per-value CSV writer the block writer must match byte for byte."""
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in table:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def reference_json(path, cfg, table):
    """The ``json.dump`` writer the block writer must match byte for byte."""
    fields = CSV_HEADER.split(",")
    rows = [dict(zip(fields, map(float, row))) for row in table]
    with open(path, "w", newline="\n") as fh:
        json.dump({"meta": cli._meta(cfg), "rows": rows}, fh, indent=1)
        fh.write("\n")


def assert_writers_match_reference(tmp_path, cfg, table):
    new, ref = tmp_path / "new", tmp_path / "ref"
    cli._write_csv(new, table)
    reference_csv(ref, table)
    assert new.read_bytes() == ref.read_bytes()
    cli._write_json(new, cfg, table)
    reference_json(ref, cfg, table)
    assert new.read_bytes() == ref.read_bytes()


def simulated_table(cfg):
    return cli._records(bloch_trajectory(cfg.to_sim_params(), simulation_grid(cfg)))[0]


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_writers_byte_identical_on_bundled_figures(tmp_path, name):
    cfg = parse_run_config(figure_config_text(name), {"t_max": "2"})
    assert_writers_match_reference(tmp_path, cfg, simulated_table(cfg))


def test_writers_byte_identical_across_blocks(tmp_path, monkeypatch):
    # Two full blocks and a one-row partial block. The block is shrunk so the
    # reference writers stay fast; the block loop does not depend on its size.
    monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
    cfg = parse_run_config(FIG1A_TEXT, {"t_max": str(2 * cli.BLOCK_ROWS), "dt": "1"})
    table = simulated_table(cfg)
    assert table.shape[0] == 2 * cli.BLOCK_ROWS + 1
    assert_writers_match_reference(tmp_path, cfg, table)


def test_writers_byte_identical_on_awkward_values(tmp_path):
    values = [-0.0, 5e-324, 1e-7, 0.1, 1.0, 1e16, 1.2345678901234567e300]
    signed = np.array(values + [-v for v in values])
    table = np.resize(signed, (7, len(CSV_HEADER.split(","))))
    assert_writers_match_reference(tmp_path, parse_run_config(FIG1A_TEXT), table)
