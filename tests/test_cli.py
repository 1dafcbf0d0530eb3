import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from qutrit_bloch import checks, cli, config, states
from qutrit_bloch.cli import (
    CSV_HEADER,
    main,
    run_cardinal,
    run_simulate,
    run_verify,
    simulation_grid,
)
from qutrit_bloch.config import (
    _ALL_KEYS,
    MAX_GRID_ROWS,
    ConfigError,
    grid_rows,
    parse_run_config,
    render_run_config,
    run_config_dict,
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
    assert cfg.params.config is Configuration.LAMBDA
    assert (cfg.params.kappa_a, cfg.params.kappa_b, cfg.params.delta) == (0.3, 0.2, 0.0)
    assert cfg.params.coupling_convention == "half"
    assert cfg.emit == "timeseries"
    assert cfg.output_format == "csv"
    assert cfg.output_path == Path("trajectory.csv")
    third = 1 / math.sqrt(3.0)
    assert np.allclose(cfg.params.c0, [third, third, third], atol=1e-15)


def test_parse_matches_bundled_fig1a():
    cfg = parse_run_config(FIG1A_TEXT)
    bundled = load_figure("fig1a")
    assert bundled.params == cfg.params
    assert (bundled.t_max, bundled.dt) == (cfg.t_max, cfg.dt)


def test_parse_comments_and_whitespace():
    text = "# run\nconfig = xi  # ladder\nkappa_a=0.2\nkappa_b=0.3\n\ndelta=20\nt_max=100\ndt=0.01\n"
    cfg = parse_run_config(text)
    assert cfg.params.config is Configuration.XI
    assert cfg.params.delta == 20.0


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


@pytest.mark.parametrize("key,value,message", [
    ("kappa_a", "abc", "kappa_a is not a number: 'abc'"),
    ("delta", "inf", "delta must be finite, got 'inf'"),
    ("t_max", "nan", "t_max must be finite, got 'nan'"),
    ("c0_re", "1,2", "c0_re needs 3 comma-separated values"),
    ("c0_im", "0,x,0", "c0_im is not a number: 'x'"),
    ("c0_re", "1,0,-inf", "c0_re must be finite, got '-inf'"),
])
def test_bad_number_names_line_or_override(key, value, message, capsys):
    lines = FIG1A_TEXT.splitlines()
    keys = [line.split("=")[0] for line in lines]
    if key in keys:
        lines[keys.index(key)] = f"{key}={value}"
    else:
        lines.append(f"{key}={value}")
    lineno = lines.index(f"{key}={value}") + 1
    with pytest.raises(ConfigError) as err:
        parse_run_config("\n".join(lines) + "\n")
    assert str(err.value) == f"line {lineno}: {message}"
    with pytest.raises(ConfigError) as err:
        parse_run_config(FIG1A_TEXT, {key: value})
    assert str(err.value) == f"override: {message}"
    assert main(["simulate", "--figure", "fig1a", "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"error: override: {message}\n"


def test_parse_rejects_unnormalized_c0_naming_key():
    # |c0|^2 - 1 = 1e-10 is past the one 1e-12 tolerance and gets the same message.
    for c0_re in ("1,1,0", f"{math.sqrt(1 + 1e-10)!r},0,0"):
        with pytest.raises(ConfigError) as err:
            parse_run_config(FIG1A_TEXT + f"c0_re={c0_re}\n")
        msg = str(err.value)
        assert "c0_re" in msg and "renormalization" in msg


def test_parse_complex_initial_state():
    text = FIG1A_TEXT + "c0_re=0.5,0,0.5\nc0_im=0,0.70710678118654752,0\n"
    cfg = parse_run_config(text)
    assert abs(cfg.params.c0[1] - 0.7071067811865475j) <= 1e-15


def test_override_precedence():
    cfg = parse_run_config(FIG1A_TEXT, {"delta": "0.5", "output": "x.json", "format": "json"})
    assert cfg.params.delta == 0.5
    assert cfg.output_format == "json"
    assert cfg.output_path == Path("x.json")
    with pytest.raises(ConfigError):
        parse_run_config(FIG1A_TEXT, {"nonsense": "1"})


# Documents over the known keys: a valid document with up to two keys
# dropped or given an arbitrary text, a float, a triple of floats or a word
# the parser knows.
_VALUES = st.one_of(
    st.none(),
    st.text(),
    st.floats().map(repr),
    st.floats(0.0, 1e3).map(repr),
    st.lists(st.floats().map(repr), min_size=3, max_size=3).map(",".join),
    st.sampled_from(["lambda", "vee", "xi", "half", "full", "timeseries", "phase_portrait",
                     "sectors", "csv", "json", "0.6,0.8,0", "1e200,0,0", "1e-320"]),
)


def documents(base: str) -> st.SearchStrategy[str]:
    pairs = dict(line.split("=") for line in base.split())
    return st.dictionaries(st.sampled_from(_ALL_KEYS), _VALUES, max_size=2).map(
        lambda drawn: "\n".join(
            f"{key}={value}" for key, value in {**pairs, **drawn}.items() if value is not None
        )
    )


_DOCUMENTS = documents(FIG1A_TEXT)


@seed(4)
@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_any_document_parses_or_raises_config_error(text):
    try:
        cfg = parse_run_config(text)
    except ConfigError:
        return
    assert parse_run_config(render_run_config(cfg)) == cfg


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_render_roundtrip_bundled(name):
    cfg = load_figure(name)
    assert sorted(run_config_dict(cfg)) == sorted(_ALL_KEYS)
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
        n[..., 7] *= 2.0  # as if the closed form carried half the true prefactor
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
    assert main(["simulate", "--config", "a\0b.cfg"]) == 2
    err = capsys.readouterr().err
    assert "exactly one" in err
    assert err.count("cannot read") == 2


def test_main_simulate_config_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(b"\xff\xfe" + FIG1A_TEXT.encode())
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg_path]


def no_trajectory(p, times):
    raise AssertionError("the trajectory ran for an output that cannot be written")


@pytest.mark.parametrize("output", [".", "", "missing/x.csv"])
def test_directory_output_refused_before_any_work(tmp_path, capsys, monkeypatch, output):
    monkeypatch.setattr(cli, "bloch_trajectory", no_trajectory)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--figure", "fig1a", "--output", output]) == 2
    reason = "No such file or directory" if "/" in output else "Is a directory"
    assert capsys.readouterr().err == f"error: cannot write {Path(output)}: {reason}\n"
    assert main(["simulate", "--figure", "fig1a", "--output", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_nul_byte_output_refused_at_parse(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "bloch_trajectory", no_trajectory)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FIG1A_TEXT + "output=a\0b.csv\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = "error: line 7: output is not a usable file name: 'a\\x00b.csv'\n"
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("length", [250, 300])
def test_overlong_output_name_exits_2(tmp_path, capsys, monkeypatch, length):
    # 250 bytes is a valid name whose temp-file name is too long; 300 is too long itself.
    monkeypatch.setattr(cli, "bloch_trajectory", no_trajectory)
    out = tmp_path / ("a" * length)
    assert main(["simulate", "--figure", "fig1a", "--set", "t_max=1", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "File name too long" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_symlink_output_writes_through_to_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"earlier run\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target.name)
    args = ["simulate", "--figure", "fig1a", "--set", "t_max=1"]
    assert main(args + ["--output", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert main(args + ["--output", str(tmp_path / "plain.csv")]) == 0
    assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "plain.csv", "target.csv"]


def test_fifo_output_written_in_place(tmp_path):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    args = ["simulate", "--figure", "fig1a", "--set", "t_max=1"]
    try:
        assert main(args + ["--output", str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert main(args + ["--output", str(tmp_path / "plain.csv")]) == 0
    assert received == [(tmp_path / "plain.csv").read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.csv", "plain.csv"]


class FailingStdout:
    """A stdout whose device is full: on every write, or only on flush."""

    def __init__(self, on_write: bool):
        self.on_write = on_write

    def write(self, text):
        if self.on_write:
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("on_write", [True, False], ids=["write", "flush"])
@pytest.mark.parametrize("command", ["verify", "cardinal", "simulate"])
def test_failing_stdout_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command, on_write):
    argv = {
        "verify": ["verify", "algebra"],
        "cardinal": ["cardinal", "one"],
        "simulate": ["simulate", "--figure", "fig1a", "--set", "t_max=1",
                     "--output", str(tmp_path / "out.csv")],
    }[command]
    monkeypatch.setattr(sys, "stdout", FailingStdout(on_write))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write to standard output: No space left on device\n"


SHORT_FIG1A_TEXT = FIG1A_TEXT.replace("t_max=100", "t_max=1")
# --output names: any text without a separator; NUL, "." and ".." included.
_OUTPUT_NAMES = st.text(st.characters(exclude_characters="/"), min_size=1, max_size=80)


@seed(5)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents(SHORT_FIG1A_TEXT), _OUTPUT_NAMES)
@example(SHORT_FIG1A_TEXT, "\0")
@example(SHORT_FIG1A_TEXT, "a\0b.csv")
@example(SHORT_FIG1A_TEXT, ".")
@example(SHORT_FIG1A_TEXT, "..")
@example(SHORT_FIG1A_TEXT, "\ud800")  # no file name encodes it
def test_main_returns_only_exit_codes_0_2_3(tmp_path, text, name):
    # Documents run 101 rows unless a drawn key changes that, and a small grid
    # cap keeps every accepted run small; the real cap is pinned by
    # test_oversized_grid_rejected_at_parse.
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        mp.setattr(config, "MAX_GRID_ROWS", 2000)
        cfg_path = Path(tmp) / "run.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        code = main(["simulate", "--config", str(cfg_path), "--output", f"{tmp}/{name}"])
        assert code in (0, 2, 3)
        assert not [p for p in Path(tmp).iterdir() if p.name.endswith(".tmp")]


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
        json.dump({"meta": run_config_dict(cfg), "rows": rows}, fh, indent=1)
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
    return cli._records(bloch_trajectory(cfg.params, simulation_grid(cfg)))[0]


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_writers_byte_identical_on_bundled_figures(tmp_path, name):
    cfg = parse_run_config(figure_config_text(name), {"t_max": "2"})
    assert_writers_match_reference(tmp_path, cfg, simulated_table(cfg))


def count_forks(monkeypatch) -> list:
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [1, 64, 65, 128, 129, 192, 320, 321])
def test_writers_byte_identical_across_blocks(tmp_path, monkeypatch, rows):
    # One row, and 1, 2, 3 and 5 blocks' worth of rows with and without one
    # more. The block is shrunk so the reference writers stay fast; the block
    # loop does not depend on its size. Above one block the table is split in
    # an even number of blocks, and each writer forks one helper for the odd ones.
    monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
    forks = count_forks(monkeypatch)
    cfg = parse_run_config(FIG1A_TEXT, {"t_max": "320", "dt": "1"})
    table = simulated_table(cfg)[:rows]
    assert table.shape[0] == rows
    assert_writers_match_reference(tmp_path, cfg, table)
    assert len(forks) == (0 if rows <= cli.BLOCK_ROWS else 2)
    assert_no_child_left()


def test_writers_byte_identical_when_fork_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 64)

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = parse_run_config(FIG1A_TEXT, {"t_max": str(5 * cli.BLOCK_ROWS), "dt": "1"})
    assert_writers_match_reference(tmp_path, cfg, simulated_table(cfg))


@pytest.mark.parametrize("failure", ["helper_raises", "helper_status", "parent_fails"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_helper_keeps_existing_output(tmp_path, capsys, monkeypatch, fmt, failure):
    out = tmp_path / f"out.{fmt}"
    out.write_bytes(b"earlier run\n")
    parent = os.getpid()
    real = cli._format_block

    def fails_in(pid_matches, exc):
        def format_block(block, row, sep):
            if (os.getpid() == parent) == pid_matches:
                raise exc
            return real(block, row, sep)
        return format_block

    if failure == "helper_raises":
        monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
        monkeypatch.setattr(cli, "_format_block", fails_in(False, RuntimeError("helper died")))
        reason = "the formatting helper stopped early"
        t_max = 1
    elif failure == "helper_status":
        # The helper sends every block, then exits with a failing status.
        monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
        reason = "the formatting helper exited with status 3"
        t_max = 1
    else:
        # 10001 rows in 4 blocks: the helper's first block overfills the pipe,
        # so it is blocked writing when this process fails; the failure path
        # must close the pipe before it waits, or it would wait forever.
        monkeypatch.setattr(cli, "_format_block",
                            fails_in(True, OSError(28, "No space left on device")))
        reason = "No space left on device"
        t_max = 100
    assert run_simulate(short_cfg(tmp_path, output=out, format=fmt, t_max=t_max)) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"earlier run\n"
    assert_no_child_left()


def test_cli_import_starts_no_pool_machinery():
    # A process pool's modules would add start-up time to every CLI run.
    code = (
        "import sys, qutrit_bloch.cli; "
        "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, check=True)
    assert result.stdout == "False False\n"


FIG1A_JSON_HEAD = """\
{
 "meta": {
  "config": "lambda",
  "kappa_a": 0.3,
  "kappa_b": 0.2,
  "delta": 0.0,
  "c0_re": [
   0.5773502691896258,
   0.5773502691896258,
   0.5773502691896258
  ],
  "c0_im": [
   0.0,
   0.0,
   0.0
  ],
  "convention": "half",
  "t_max": 0.01,
  "dt": 0.01,
  "emit": "timeseries",
  "format": "json",
  "output": "head.json"
 },
 "rows": [
"""


def test_json_meta_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--figure", "fig1a", "--set", "t_max=0.01", "--format", "json"]
    assert main(args + ["--output", "head.json"]) == 0
    assert (tmp_path / "head.json").read_text().startswith(FIG1A_JSON_HEAD + "  {\n")


def test_writers_byte_identical_on_awkward_values(tmp_path):
    values = [-0.0, 5e-324, 1e-7, 0.1, 1.0, 1e16, 1.2345678901234567e300]
    signed = np.array(values + [-v for v in values])
    table = np.resize(signed, (7, len(CSV_HEADER.split(","))))
    assert_writers_match_reference(tmp_path, parse_run_config(FIG1A_TEXT), table)
