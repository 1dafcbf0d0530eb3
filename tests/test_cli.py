import __future__
import contextlib
import inspect
import itertools
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from qutrit_bloch import checks, cli, config, dynamics, figures, model, states
from qutrit_bloch.cli import (
    CSV_HEADER,
    main,
    run_cardinal,
    run_simulate,
    run_verify,
)
from qutrit_bloch.config import (
    _ALL_KEYS,
    MAX_GRID_ROWS,
    ConfigError,
    RunConfig,
    grid_rows,
    parse_run_config,
    render_run_config,
    run_config_dict,
)
from qutrit_bloch.figures import FIGURE_NAMES, figure_config_text, load_figure, parameter_sets
from qutrit_bloch.model import Configuration

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
    (FIG1A_TEXT.replace("config=lambda", "config=omega"), "config must be one of"),
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


def with_value(key, value):
    """FIG1A_TEXT with the line ``key=value`` in place of the key's line, or
    appended; and that line's number."""
    lines = FIG1A_TEXT.splitlines()
    keys = [line.split("=")[0] for line in lines]
    lineno = keys.index(key) + 1 if key in keys else len(lines) + 1
    lines[lineno - 1:lineno] = [f"{key}={value}"]
    return "\n".join(lines) + "\n", lineno


CHOICE_KEYS = pytest.mark.parametrize("key,choices", [
    ("config", "lambda, vee, xi"),
    ("convention", "half, full"),
    ("emit", "timeseries, phase_portrait, sectors"),
    ("format", "csv, json"),
])


@CHOICE_KEYS
def test_bad_choice_lists_every_choice(key, choices):
    text, lineno = with_value(key, "other")
    with pytest.raises(ConfigError) as err:
        parse_run_config(text)
    assert str(err.value) == f"line {lineno}: {key} must be one of {choices}"


@CHOICE_KEYS
def test_choice_values_match_in_any_case_and_spacing(key, choices):
    # Every spelling of every value, padded in turn four ways, alternately as a
    # document line and as an override.
    pads = [("", ""), (" ", ""), ("", "\t"), ("  ", " \t ")]
    for value in choices.split(", "):
        expected = parse_run_config(with_value(key, value)[0])
        assert parse_run_config(render_run_config(expected)) == expected
        spellings = itertools.product(*(dict.fromkeys((c.lower(), c.upper())) for c in value))
        for i, letters in enumerate(spellings):
            before, after = pads[i // 2 % len(pads)]
            spelled = before + "".join(letters) + after
            if i % 2:
                assert parse_run_config(FIG1A_TEXT, {key: spelled}) == expected
            else:
                assert parse_run_config(with_value(key, spelled)[0]) == expected
    # Keys stay exact.
    with pytest.raises(ConfigError, match="unknown key"):
        parse_run_config(FIG1A_TEXT, {key.upper(): choices.split(", ")[0]})


@pytest.mark.parametrize("key,value,message", [
    ("kappa_a", "abc", "kappa_a is not a number: 'abc'"),
    ("delta", "inf", "delta must be finite, got 'inf'"),
    ("t_max", "nan", "t_max must be finite, got 'nan'"),
    ("c0_re", "1,2", "c0_re needs 3 comma-separated values"),
    ("c0_im", "0,x,0", "c0_im is not a number: 'x'"),
    ("c0_re", "1,0,-inf", "c0_re must be finite, got '-inf'"),
])
def test_bad_number_names_line_or_override(key, value, message, capsys):
    text, lineno = with_value(key, value)
    with pytest.raises(ConfigError) as err:
        parse_run_config(text)
    assert str(err.value) == f"line {lineno}: {message}"
    with pytest.raises(ConfigError) as err:
        parse_run_config(FIG1A_TEXT, {key: value})
    assert str(err.value) == f"override: {message}"
    assert main(["simulate", "--figure", "fig1a", "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"error: override: {message}\n"


def test_parse_rejects_unnormalized_c0_naming_key():
    # |c0|^2 - 1 = 1e-10 is past the one 1e-12 tolerance and gets the same message;
    # an entry whose square overflows gives |c0|^2 = inf, without a numpy warning.
    for c0_re in ("1,1,0", f"{math.sqrt(1 + 1e-10)!r},0,0", "1e200,0,0"):
        with pytest.raises(ConfigError) as err:
            parse_run_config(FIG1A_TEXT + f"c0_re={c0_re}\n")
        msg = str(err.value)
        assert "c0_re" in msg and "renormalization is refused" in msg


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


@pytest.mark.parametrize("output", [
    "run#2.csv", "run\n2.csv", "run\r2.csv", "run\u20282.csv", " run.csv", "run.csv\t",
], ids=["hash", "newline", "return", "line-separator", "leading-space", "trailing-tab"])
def test_render_refuses_value_the_format_cannot_carry(tmp_path, output):
    # Rendered as is, "#2.csv" would parse back as a comment and a line break as a new line.
    cfg = parse_run_config(FIG1A_TEXT, {"output": output, "t_max": "1"})
    with pytest.raises(ConfigError, match="output cannot be written as key=value"):
        render_run_config(cfg)
    # The CLI still takes such a name.
    out = tmp_path / output
    args = ["simulate", "--figure", "fig1a", "--set", "t_max=1", "--output", str(out)]
    assert main(args) == 0
    assert out.read_text().startswith(CSV_HEADER)


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


def test_figures_share_the_verify_grid():
    cfgs = [load_figure(name) for name in FIGURE_NAMES]
    assert {(cfg.t_max, cfg.dt) for cfg in cfgs} == {(checks.T_MAX, checks.DT)}
    for cfg in cfgs:
        grid = np.arange(grid_rows(cfg.t_max, cfg.dt)) * cfg.dt
        assert np.array_equal(grid, checks.FIGURE_GRID)


def test_simulation_grid_row_count():
    cfg = parse_run_config(FIG1A_TEXT)
    assert grid_rows(cfg.t_max, cfg.dt) == 10001
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


def test_csv_and_json_encode_identical_numbers(tmp_path):
    csv_cfg = short_cfg(tmp_path)
    json_cfg = RunConfig(csv_cfg.params, csv_cfg.t_max, csv_cfg.dt, csv_cfg.emit,
                         output_format="json", output_path=tmp_path / "out.json")
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


def test_run_simulate_invariant_breach(tmp_path, capsys, monkeypatch):
    real = model.row_formula

    def corrupted(p):
        row = real(p)

        def drifted(t):
            values = row(t)
            if t == 1.0:  # the last row: |n|^2 as if n had grown by 1%
                values = values[:-1] + (values[-1] * 1.01**2,)
            return values

        return drifted

    monkeypatch.setattr(model, "row_formula", corrupted)
    cfg = short_cfg(tmp_path)
    assert run_simulate(cfg) == 3
    assert "norm drifted" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # neither the output nor its early temp file

    # A detuning this large turns the phases into inf, and the table with them.
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

    # Over the whole grid (four blocks) an overflowing H, eigenpair or M forks
    # the helper before the first block breaches, and the helper is gone after.
    forks = count_forks(monkeypatch)
    for overrides in (["delta=1e308"], ["delta=1.7e308", "convention=full"]):
        args = ["simulate", "--figure", "fig1a", "--output", str(tmp_path / "nan.csv")]
        assert main(args + [f"--set={item}" for item in overrides]) == 3
        assert capsys.readouterr().err == NON_FINITE
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()
    assert forks == [1, 1]

    # Four blocks of 64 rows, the odd ones the helper's. A breach partway
    # through the table ends the run at the first breaching block: in one of
    # the helper's blocks, or in a later one of this process's. The line
    # names that block's drift, not the larger one in a block after it.
    monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
    monkeypatch.setattr(model, "row_formula", lambda p: drifting(real(p), {t: 1.01, t + 50: 1.02}))
    for t in (100, 150):  # in block 1 (the helper's), in block 2 (this process's)
        for fmt in ("csv", "json"):
            cfg = short_cfg(tmp_path, t_max=255, dt=1, format=fmt, output=tmp_path / f"out.{fmt}")
            drift = real(cfg.params)(t)[-1] * 1.01**2 - model.BLOCH_NORM_SQ
            assert run_simulate(cfg) == 3
            assert capsys.readouterr().err == (
                f"error: Bloch norm drifted by {drift:.3e} (tolerance 1e-06);"
                " aborting without output\n")
            assert list(tmp_path.iterdir()) == []
            assert_no_child_left()


def drifting(row, growth):
    """``row`` with |n|^2 at each time t in ``growth`` as if n had grown by ``growth[t]``."""
    def drifted(t):
        values = row(t)
        if t in growth:
            values = values[:-1] + (values[-1] * growth[t]**2,)
        return values

    return drifted


NON_FINITE = "error: the trajectory has non-finite values; aborting without output\n"


@pytest.mark.parametrize("overrides", [
    ["delta=1e308"],
    ["kappa_a=1e308", "kappa_b=1e308"],
    ["delta=1.7e308", "convention=full"],
    ["delta=1e307"],
], ids=["detuning", "couplings", "full-convention", "detuning-in-helper-block"])
def test_overflowing_inputs_exit_3_with_one_line(tmp_path, overrides):
    # math.cos(inf) raises and float ** overflows where numpy gave nan: each
    # case must reach the non-finite line, from the helper's blocks too
    # (10001 rows), with no traceback and no file. At delta=1e307 the phase
    # E t first overflows near row 2695, in the helper's first block.
    out = tmp_path / "out.csv"
    args = ["simulate", "--figure", "fig1a", "--output", str(out)]
    for item in overrides:
        args += ["--set", item]
    result = subprocess.run([sys.executable, "-m", "qutrit_bloch.cli", *args],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (3, "", NON_FINITE)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_write_keeps_existing_output(tmp_path, capsys, monkeypatch, fmt):
    out = tmp_path / f"out.{fmt}"
    out.write_bytes(b"earlier run\n")
    def disk_full(table, fh):
        # A partial write, then the failure.
        fh.write(cli._format_block(table.values(*table.blocks[0]), table.row, table.sep)[:200])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli._Table, "write", disk_full)
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


@pytest.mark.parametrize("failure", ["memory", "import"])
@pytest.mark.parametrize("command", ["verify", "cardinal"])
def test_numpy_commands_exit_2_with_one_line(monkeypatch, capsys, command, failure):
    # A MemoryError anywhere in the run, or numpy's import refused (verify
    # also needs numpy.random, which numpy loads on first use), is one error
    # line and exit 2, with nothing on stdout.
    if failure == "memory":
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(checks, "run_suites", out_of_memory)
        monkeypatch.setattr(states, "cardinal_state", out_of_memory)
    else:
        monkeypatch.setitem(sys.modules, "numpy.random" if command == "verify" else "numpy", None)
    run, arg = {"verify": (run_verify, "all"), "cardinal": (run_cardinal, "one")}[command]
    assert run(arg) == 2
    reason = "out of memory" if failure == "memory" else "cannot import numpy"
    assert capsys.readouterr() == ("", f"error: {command} {arg!r}: {reason}\n")


def mutate(monkeypatch, owner, name: str, old: str, new: str) -> None:
    """Replace ``owner.name`` by a copy of its source in which ``old`` reads ``new``."""
    real = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(real))
    assert source.count(old) == 1, f"{name} no longer holds {old!r}"
    code = compile(source.replace(old, new), inspect.getsourcefile(real), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(real.__globals__)
    exec(code, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


# The transcription pitfalls of docs/derivation_notes.md, each patched into the
# formula it concerns: (owner, function, correct text, wrong text, check that fails).
PITFALLS = {
    # section 3: 1/(2 sqrt 3) in place of 1/(4 sqrt 3)
    "n8-prefactor": (states, "bloch_geometric", "/ (4.0 * _SQRT3)", "/ (2.0 * _SQRT3)",
                     "state/seven-sphere-norm-4/3"),
    # section 2: n8 of the row formula simulate writes with 1/(2 sqrt 3) for 1/sqrt 3
    "row-n8-prefactor": (model, "row_formula", "(q1 + q2 - 2.0 * q3) / sqrt3",
                         "(q1 + q2 - 2.0 * q3) / (2.0 * sqrt3)", "dynamics/simulate-kernel"),
    # section 3: n7 = +sin^2(theta1/2) s2 sin(phi1 - phi2)
    "n7-sign": (states, "bloch_geometric", "-sin_h1_sq * s2 * np.sin(phi1 - phi2)",
                "sin_h1_sq * s2 * np.sin(phi1 - phi2)", "state/geometric-trace-map-equivalence"),
    # section 5: an overall sign on c3
    "third-component-sign": (dynamics, "lambda_closed_form", "c3 = frame / ksq * (",
                             "c3 = -frame / ksq * (", "dynamics/lambda-closed-form"),
    # section 5: cos^2 and sin^2 where plain cos and sin belong
    "squared-trig": (dynamics, "lambda_closed_form",
                     "cos_w = np.cos(omega * t_arr / 2.0)\n    sin_w = np.sin(omega * t_arr / 2.0)",
                     "cos_w = np.cos(omega * t_arr / 2.0) ** 2\n"
                     "    sin_w = np.sin(omega * t_arr / 2.0) ** 2",
                     "dynamics/lambda-closed-form"),
    # section 5: the sine term of c1 without its 1/Omega
    "missing-1/omega": (dynamics, "lambda_closed_form", "- 1j / omega * (c10 * d",
                        "- 1j * (c10 * d", "dynamics/lambda-closed-form"),
    # section 6: the generator table transcribed in the transposed convention,
    # every kappa entry flipped and the delta entries kept
    "transposed-kappa": (checks, "lambda_generator_reference", "g = p.coupling_gain",
                         "g = -p.coupling_gain", "dynamics/lambda-generator-reference"),
    # section 8: [X+, X3] = -2 X- with the opposite shift operator on the right
    "opposite-shift-operator": (checks, "algebra_suite",
                                "su3.commutator(plus, three) + 2.0 * plus",
                                "su3.commutator(plus, three) + 2.0 * minus",
                                "algebra/shift-commutators"),
}


@pytest.mark.parametrize("pitfall", PITFALLS)
def test_run_verify_names_broken_invariant(monkeypatch, capsys, pitfall):
    owner, name, old, new, check = PITFALLS[pitfall]
    mutate(monkeypatch, owner, name, old, new)
    assert run_verify("all") == 1
    assert f"FAIL {check} (" in capsys.readouterr().out


def nan_in_dn2(monkeypatch):
    # Every row simulate writes reads NaN in its dn2 column (index 10).
    real = model.row_formula

    def row_formula(p):
        row = real(p)
        return lambda t: row(t)[:10] + (math.nan,) + row(t)[11:]

    monkeypatch.setattr(model, "row_formula", row_formula)


def nan_in_third_geometric_chunk(monkeypatch):
    # One value of the third 1000-sample chunk reads NaN.
    real, calls = states.bloch_geometric, itertools.count(1)

    def bloch_geometric(angles):
        geo = real(angles)
        if next(calls) == 3:
            geo[0, 0] = math.nan
        return geo

    monkeypatch.setattr(states, "bloch_geometric", bloch_geometric)


def without_lambda_1_2(monkeypatch):
    # The figure set loses its one off-resonant Lambda run.
    real = figures.parameter_sets
    monkeypatch.setattr(figures, "parameter_sets",
                        lambda: {k: p for k, p in real().items() if k != "lambda@1.2"})


@pytest.mark.parametrize("plant, scope, names", [
    (nan_in_dn2, "dynamics", ["dynamics/simulate-kernel"]),
    (nan_in_third_geometric_chunk, "state",
     ["state/seven-sphere-norm-4/3", "state/geometric-trace-map-equivalence"]),
    (without_lambda_1_2, "dynamics",
     ["dynamics/lambda-generator-reference", "dynamics/off-resonance-splitting-vanishes"]),
], ids=["nan-in-dn2", "nan-in-a-geometric-chunk", "no-lambda@1.2"])
def test_run_verify_fails_a_nan_or_an_unmeasured_check(monkeypatch, capsys, plant, scope, names):
    # A NaN residual outweighs every number it is combined with, and a check
    # that no run measured reads NaN: either fails, where a max over Python
    # floats from 0.0 would drop the NaN and pass.
    plant(monkeypatch)
    assert run_verify(scope) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert [line.split(" ")[1] for line in failed] == names
    assert all(" residual=nan bound: " in line for line in failed)


def test_suite_report_keeps_each_checks_worst_residual():
    def results(scope, name, residuals):
        report = checks.SuiteReport(scope)
        for residual in residuals:
            report.add(name, residual)
        return {r.name: r for r in report.results}

    at_most, above = "algebra/shift-actions", "dynamics/off-resonance-splitting-vanishes"
    for order in itertools.permutations([1e-15, 3e-15, 2e-15]):
        assert results("algebra", at_most, order)[at_most].residual == 3e-15
        assert results("dynamics", above, order)[above].residual == 1e-15
    for order in ([math.nan, 0.0, 1.0], [0.0, 1.0, math.nan]):  # NaN first or last
        for scope, name in (("algebra", at_most), ("dynamics", above)):
            result = results(scope, name, order)[name]
            assert math.isnan(result.residual) and not result.passed
    # The scope's every entry is listed in table order; the unreported ones read NaN.
    listed = results("algebra", at_most, [0.0])
    assert list(listed) == [name for name in checks.CHECKS if name.startswith("algebra/")]
    assert listed.pop(at_most).passed
    assert all(math.isnan(r.residual) and not r.passed for r in listed.values())


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


def test_main_simulate_config_with_bom(tmp_path):
    cfg_path = tmp_path / "fig1a.cfg"
    cfg_path.write_bytes(b"\xef\xbb\xbf" + figure_config_text("fig1a").encode())
    args = cli._build_parser().parse_args(["simulate", "--config", str(cfg_path)])
    assert cli._load_simulate_config(args) == load_figure("fig1a")


def test_format_flag_is_a_choice_of_the_document(tmp_path, capsys):
    out = tmp_path / "out.json"
    args = ["simulate", "--figure", "fig1a", "--set", "t_max=1", "--output", str(out), "--format"]
    assert main(args + ["json"]) == 0
    expected = out.read_bytes()
    out.unlink()
    assert main(args + ["JSON"]) == 0
    assert out.read_bytes() == expected
    capsys.readouterr()
    assert main(args + ["xml"]) == 2
    assert capsys.readouterr().err == "error: override: format must be one of csv, json\n"
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    help_lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["--format", "{csv,json}", "override", "the", "output", "format"] in help_lines


def test_config_file_at_the_size_cap_is_read(tmp_path):
    out = tmp_path / "out.csv"
    doc = FIG1A_TEXT.replace("t_max=100", "t_max=1") + f"output={out}\n"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(doc + "#" * (config.MAX_CONFIG_BYTES - len(doc.encode()) - 1) + "\n")
    assert cfg_path.stat().st_size == config.MAX_CONFIG_BYTES
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert out.read_text().startswith(CSV_HEADER)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["SIGTERM", "SIGHUP", "SIGINT"])
def test_terminating_signal_removes_the_temp_file(tmp_path, fmt, name):
    # The process signals itself while it formats its first block, with the
    # helper forked: it exits 128 + signum with nothing printed, waits for the
    # helper (which gets EPIPE), and leaves the existing output as it was.
    # SIGINT gets Python's own handler first: a launcher that ignores SIGINT
    # passes that on, and the run would not stop.
    code = textwrap.dedent("""
        import os, signal, sys
        if sys.argv[1] == "SIGINT":
            signal.signal(signal.SIGINT, signal.default_int_handler)
        from qutrit_bloch import cli
        parent, real_fork, real_format = os.getpid(), os.fork, cli._format_block
        def fork():
            pid = real_fork()
            if pid:
                with open(sys.argv[2], "w") as fh:
                    fh.write(str(pid))
            return pid
        def format_block(*args):
            if os.getpid() == parent:
                os.kill(parent, getattr(signal, sys.argv[1]))
            return real_format(*args)
        os.fork, cli._format_block = fork, format_block
        sys.exit(cli.main(sys.argv[3:]))
    """)
    (tmp_path / "out").mkdir()
    out, pid_file = tmp_path / "out" / f"fig1a.{fmt}", tmp_path / "helper.pid"
    out.write_bytes(b"earlier run\n")
    args = ["simulate", "--figure", "fig1a", "--format", fmt, "--output", str(out)]
    result = subprocess.run([sys.executable, "-c", code, name, str(pid_file), *args],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (
        128 + getattr(signal, name), "", "")
    assert list(out.parent.iterdir()) == [out]
    assert out.read_bytes() == b"earlier run\n"
    with pytest.raises(ProcessLookupError):  # the helper is gone, and reaped
        os.kill(int(pid_file.read_text()), 0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_replaced_output_keeps_its_mode(tmp_path, fmt):
    # A new output gets the umask default; the temp file renamed over an
    # existing one gets its permission bits, also through a symlink and for
    # a read-only file, and the bytes are those of the fresh run.
    out, link = tmp_path / f"out.{fmt}", tmp_path / "link"
    link.symlink_to(out.name)
    args = ["simulate", "--figure", "fig1a", "--set", "t_max=1", "--format", fmt, "--output"]
    umask = os.umask(0o022)
    try:
        assert main([*args, str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        fresh = out.read_bytes()
        for mode, path in [(0o600, out), (0o444, out), (0o600, link)]:
            out.chmod(mode)
            assert main([*args, str(path)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == mode
            assert out.read_bytes().replace(str(link).encode(), str(out).encode()) == fresh
    finally:
        os.umask(umask)
    assert link.is_symlink() and sorted(tmp_path.iterdir()) == [link, out]


def test_replaced_output_detaches_its_other_hard_links(tmp_path):
    # The rename gives the output path a new inode: another name of the old
    # file keeps the old bytes, and neither file has a second link.
    out, other = tmp_path / "a.csv", tmp_path / "b.csv"
    out.write_text("old table\n")
    os.link(out, other)
    assert main(["simulate", "--figure", "fig1a", "--set", "t_max=1", "--output", str(out)]) == 0
    assert out.read_text().startswith(CSV_HEADER)
    assert other.read_text() == "old table\n"
    assert out.stat().st_nlink == other.stat().st_nlink == 1


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_output_to_standard_output_is_the_table_alone(tmp_path, fmt, stdout):
    # A pipe is written in place, so a status line would follow the table; a
    # file is replaced by the rename, and the line would go to the old one.
    # The bytes are those of a run to a file, but for the JSON meta's output.
    args = [sys.executable, "-m", "qutrit_bloch.cli", "simulate", "--figure", "fig1a",
            "--set", "t_max=50", "--format", fmt, "--output"]
    out, so = tmp_path / f"out.{fmt}", tmp_path / f"so.{fmt}"
    subprocess.run([*args, str(out)], capture_output=True, timeout=60, check=True)
    with open(so, "wb") as fh:
        sink = subprocess.PIPE if stdout == "pipe" else fh
        result = subprocess.run([*args, "/dev/stdout"], stdout=sink, stderr=subprocess.PIPE,
                                timeout=60)
    written = result.stdout if stdout == "pipe" else so.read_bytes()
    assert (result.returncode, result.stderr) == (0, b"")
    assert written == out.read_bytes().replace(
        f'"output": {json.dumps(str(out))}'.encode(), b'"output": "/dev/stdout"')


def test_main_restores_the_callers_signal_handlers(monkeypatch):
    # A default action is replaced only while main runs; an ignored or a
    # caller-set handler stays; from a thread other than the main one, where
    # no handler can be set, main runs with the signals as they are.
    sigs, seen = (signal.SIGTERM, signal.SIGHUP), []
    monkeypatch.setattr(cli, "_run", lambda args: seen.append(
        [signal.getsignal(sig) for sig in sigs]) or 0)
    saved = [signal.getsignal(sig) for sig in sigs]

    def own(signum, frame):
        pass

    try:
        for handlers in ([signal.SIG_DFL, signal.SIG_DFL], [own, signal.SIG_IGN]):
            for sig, handler in zip(sigs, handlers):
                signal.signal(sig, handler)
            seen.clear()
            assert main(["cardinal", "one"]) == 0
            assert [signal.getsignal(sig) for sig in sigs] == handlers
            unwind = handlers[0] is signal.SIG_DFL
            assert seen == [[cli._unwind, cli._unwind] if unwind else handlers]
        for sig in sigs:
            signal.signal(sig, signal.SIG_DFL)
        seen.clear()
        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(main, ["cardinal", "one"]).result() == 0
        assert seen == [[signal.SIG_DFL, signal.SIG_DFL]]
    finally:
        for sig, handler in zip(sigs, saved):
            signal.signal(sig, handler)


@pytest.mark.parametrize("source", ["one-byte-over", "dev-zero"])
def test_config_file_past_the_size_cap_is_refused(tmp_path, source):
    # A subprocess under a 1 GiB address-space limit, so an unbounded read
    # ends in MemoryError instead of taking the host's memory.
    path = Path("/dev/zero")
    if source == "one-byte-over":
        path = tmp_path / "run.cfg"
        path.write_text("#" * config.MAX_CONFIG_BYTES + "\n")
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from qutrit_bloch.cli import main; "
        f"sys.exit(main(['simulate', '--config', {str(path)!r}]))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 2
    assert result.stderr == (
        f"error: cannot read {config._echo(str(path))}:"
        f" longer than {config.MAX_CONFIG_BYTES} bytes\n"
    )
    assert result.stdout == ""


def no_trajectory(*args):
    raise AssertionError("the trajectory ran for an output that cannot be written")


def write_error(out, reason):
    """The one line ``simulate`` prints for an output it cannot write."""
    return f"error: cannot write {config._echo(str(out))}: {reason}\n"


@pytest.mark.parametrize("output", [".", "missing/x.csv"])
def test_directory_output_refused_before_any_work(tmp_path, capsys, monkeypatch, output):
    monkeypatch.setattr(cli, "_row_values", no_trajectory)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--figure", "fig1a", "--output", output]) == 2
    reason = "No such file or directory" if "/" in output else "Is a directory"
    assert capsys.readouterr().err == write_error(Path(output), reason)
    assert main(["simulate", "--figure", "fig1a", "--output", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_occupied_temp_name_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # A directory holds the temp file's name: only the OS can tell, when it is created.
    monkeypatch.setattr(cli, "_row_values", no_trajectory)
    out = tmp_path / "out.csv"
    occupied = tmp_path / f"out.csv.{os.getpid()}.tmp"
    occupied.mkdir()
    assert main(["simulate", "--figure", "fig1a", "--output", str(out)]) == 2
    assert capsys.readouterr().err == write_error(out, "Is a directory")
    assert list(tmp_path.iterdir()) == [occupied]


def test_nul_byte_output_refused_at_parse(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_row_values", no_trajectory)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FIG1A_TEXT + "output=a\0b.csv\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = "error: line 7: output is not a usable file name: 'a\\x00b.csv'\n"
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("how", ["option", "override", "document"])
def test_empty_output_refused_at_parse(tmp_path, capsys, monkeypatch, how):
    # An empty name is no file: refused with the other unusable names, not as
    # a write to the directory '.'.
    monkeypatch.setattr(cli, "_row_values", no_trajectory)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FIG1A_TEXT + ("output=\n" if how == "document" else ""))
    args = {"option": ["--output", ""], "override": ["--set", "output="], "document": []}[how]
    assert main(["simulate", "--config", str(cfg_path), *args]) == 2
    where = "line 7" if how == "document" else "override"
    assert capsys.readouterr().err == f"error: {where}: output is not a usable file name: ''\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("length", [250, 300])
def test_overlong_output_name_exits_2(tmp_path, capsys, monkeypatch, length):
    # 250 bytes is a valid name whose temp-file name is too long; 300 is too long itself.
    monkeypatch.setattr(cli, "_row_values", no_trajectory)
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


def test_fd_path_output_written_into_the_pipe(tmp_path):
    # What bash process substitution passes: `--output >(wc -c)` is /dev/fd/<n>.
    rfd, wfd = os.pipe()
    received = []

    def drain():
        with open(rfd, "rb") as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    args = ["simulate", "--figure", "fig1a", "--set", "t_max=0.02"]
    try:
        assert main(args + ["--output", f"/dev/fd/{wfd}"]) == 0
    finally:
        os.close(wfd)
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert main(args + ["--output", str(tmp_path / "plain.csv")]) == 0
    assert received == [(tmp_path / "plain.csv").read_bytes()]
    assert os.listdir(tmp_path) == ["plain.csv"]


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


STDOUT_FAILURES = {"full": "No space left on device", "closed_pipe": "Broken pipe",
                   "closed": "Bad file descriptor"}


@pytest.mark.parametrize("target", STDOUT_FAILURES)
@pytest.mark.parametrize("command", ["verify", "cardinal", "simulate"])
def test_failing_stdout_exits_2_with_one_line_at_exit(tmp_path, command, target):
    # With block-buffered stdout (no PYTHONUNBUFFERED, as in a user's shell)
    # the text main could not flush is still buffered when the interpreter
    # exits; flushing it there must not fail a second time.
    argv = {
        "verify": ["verify", "algebra"],
        "cardinal": ["cardinal", "one"],
        "simulate": ["simulate", "--figure", "fig1a", "--set", "t_max=1",
                     "--output", str(tmp_path / "out.csv")],
    }[command]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    launch = [sys.executable, "-m", "qutrit_bloch.cli", *argv]
    if target == "full":
        if not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
    elif target == "closed_pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        # fd 1 closed before the CLI starts, as by `>&-`: sys.stdout is None.
        stdout = os.open(os.devnull, os.O_WRONLY)
        launch = [sys.executable, "-c", "import os, sys; os.close(1); "
                  "os.execv(sys.executable, sys.argv[1:])", *launch]
    try:
        result = subprocess.run(launch, stdout=stdout, stderr=subprocess.PIPE, text=True,
                                env=env, timeout=60)
    finally:
        os.close(stdout)
    # stdout is the target that refused every byte, so only stderr can be read.
    assert (result.returncode, result.stderr) == (
        2, f"error: cannot write to standard output: {STDOUT_FAILURES[target]}\n")


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


LONG = 270_000


@pytest.mark.parametrize("line,args", [
    ("x" * LONG, []),
    ("k" * LONG + "=1", []),
    ("kappa_a=" + "x" * LONG, []),
    ("", ["--set", "delta=" + "0" * LONG + "1e999"]),
    ("", ["--set", "k" * LONG + "=1"]),
    ("", ["--output", "a" * LONG + "\0"]),
    ("", ["--set", "s" * LONG]),
], ids=["no-equals", "unknown-key", "not-a-number", "not-finite", "unknown-override",
        "unusable-output", "set-no-equals"])
def test_long_input_echo_is_cut(tmp_path, capsys, line, args):
    text = FIG1A_TEXT.replace("kappa_a=0.3\n", "") if line.startswith("kappa_a=") else FIG1A_TEXT
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text + line + "\n")
    assert main(["simulate", "--config", str(cfg_path)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200
    assert re.search(r"\.\.\. \(27000\d characters\)\n$", err)
    assert list(tmp_path.iterdir()) == [cfg_path]


FIGURE_LIST = ", ".join(FIGURE_NAMES)


@pytest.mark.parametrize("args,head,tail", [
    (["--config", "c" * LONG], "cannot read ", ": File name too long"),
    (["--figure", "fig1a", "--output", "o" * LONG], "cannot write ", ": File name too long"),
    (["--figure", "f" * LONG], "unknown figure ", f"; expected one of {FIGURE_LIST}"),
], ids=["config-path", "output-path", "figure"])
def test_long_path_and_figure_echo_is_cut(tmp_path, capsys, monkeypatch, args, head, tail):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", *args]) == 2
    cut = repr(args[-1][:60]) + f"... ({LONG} characters)"
    assert capsys.readouterr().err == f"error: {head}{cut}{tail}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,argument,choices", [
    ("verify", "scope", model.VERIFY_SCOPES),
    ("cardinal", "label", model.CARDINAL_LABELS),
    (None, "command", ("simulate", "verify", "cardinal")),
])
def test_long_choice_echo_is_cut(capsys, command, argument, choices):
    # argparse's usage and invalid-choice line, with the value cut to 60 characters.
    with pytest.raises(SystemExit) as exc:
        main([command] * (command is not None) + ["x" * LONG])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    prog = "qutrit-bloch" + f" {command}" * (command is not None)
    assert err.startswith(f"usage: {prog} ")
    assert err.endswith(
        f"{prog}: error: argument {argument}: invalid choice: {config._echo('x' * LONG)}"
        f" (choose from {', '.join(map(repr, choices))})\n"
    )
    assert len(err.encode()) < 400


def test_unknown_figure_lists_the_figures(capsys):
    assert main(["simulate", "--figure", "fig9"]) == 2
    assert capsys.readouterr().err == f"error: unknown figure 'fig9'; expected one of {FIGURE_LIST}\n"


def test_echo_keeps_text_up_to_the_bound():
    assert config._echo("a" * 60) == repr("a" * 60)
    assert config._echo("a\0" * 30) == repr("a\0" * 30)
    assert config._echo("a" * 61) == repr("a" * 60) + "... (61 characters)"


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


def table_values(table):
    """``values(start, stop)`` of a (rows, 20) array, as ``cli._Table`` reads a table."""
    return lambda start, stop: table[start:stop].ravel().tolist()


def assert_writers_match_reference(tmp_path, cfg, table, values=None):
    """Both writers, fed the table in blocks, match the per-value writers.

    The blocks come from ``values`` (the table's own rows by default), so a
    table the blocks compute themselves is compared with one computed whole.
    """
    values = values or table_values(table)
    new, ref = tmp_path / "new", tmp_path / "ref"
    cli._write_csv(new, cli._Table(len(table), values, cli._CSV_ROW, ""))
    reference_csv(ref, table)
    assert new.read_bytes() == ref.read_bytes()
    cli._write_json(new, cfg, cli._Table(len(table), values, cli._JSON_ROW, cli._JSON_SEP))
    reference_json(ref, cfg, table)
    assert new.read_bytes() == ref.read_bytes()


def simulated_table(cfg, rows=None):
    """The first ``rows`` rows of ``cfg``'s table (all by default), computed in one go."""
    rows = rows or grid_rows(cfg.t_max, cfg.dt)
    return np.array(cli._row_values(cfg)(0, rows)).reshape(rows, len(CSV_HEADER.split(",")))


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_writers_byte_identical_on_bundled_figures(tmp_path, name):
    cfg = parse_run_config(figure_config_text(name), {"t_max": "2"})
    assert_writers_match_reference(tmp_path, cfg, simulated_table(cfg), cli._row_values(cfg))


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
    table = simulated_table(cfg, rows)
    assert table.shape[0] == rows
    assert_writers_match_reference(tmp_path, cfg, table, cli._row_values(cfg))
    assert len(forks) == (0 if rows <= cli.BLOCK_ROWS else 2)
    assert_no_child_left()


def test_value_set_in_a_helper_block_is_written(tmp_path, monkeypatch):
    # 256 rows in 4 blocks of 64; row 100 is in block 1, the helper's. The
    # helper is forked from the edited table, so it writes the value itself
    # and this process formats only its own blocks 0 and 2.
    monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
    forks = count_forks(monkeypatch)
    parent, real = os.getpid(), cli._format_block
    formatted = []

    def format_block(block, row, sep):
        if os.getpid() == parent:
            formatted.append(1)
        return real(block, row, sep)

    monkeypatch.setattr(cli, "_format_block", format_block)
    for fmt, writer in (("csv", cli._write_csv), ("json", cli._write_json)):
        def altered(*args, writer=writer):  # the table is the writers' last argument
            table = args[-1].copy()
            table[100, 4] += 1e-7
            writer(*args[:-1], table)

        monkeypatch.setattr(cli, f"_write_{fmt}", altered)
        cfg = short_cfg(tmp_path, t_max=255, dt=1, format=fmt, output=tmp_path / "new")
        formatted.clear()
        assert run_simulate(cfg) == 0
        assert len(formatted) == 2
        table = simulated_table(cfg)
        table[100, 4] += 1e-7
        if fmt == "csv":
            reference_csv(tmp_path / "ref", table)
        else:
            reference_json(tmp_path / "ref", cfg, table)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
    assert len(forks) == 2
    assert_no_child_left()


def no_fork():
    raise OSError(11, "Resource temporarily unavailable")


def test_writers_byte_identical_when_fork_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = parse_run_config(FIG1A_TEXT, {"t_max": str(5 * cli.BLOCK_ROWS), "dt": "1"})
    assert_writers_match_reference(tmp_path, cfg, simulated_table(cfg), cli._row_values(cfg))


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="reads /proc/self/fd")
def test_exception_from_fork_closes_the_pipe(tmp_path, monkeypatch):
    # The BaseException branch covers an exception raised in the parent after
    # the fork has happened; the one raised here is a stand-in. (CPython 3.12
    # and 3.13 only record their DeprecationWarning for a fork in a process
    # with other threads: os.fork returns normally, also under -W error.) The
    # pipe must not outlive the raise: the helper then gets EPIPE and exits.
    # 640 rows in 10 blocks: the helper's 5 overfill the pipe if it stays open.
    monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
    real, helpers, reaped = os.fork, [], []

    def fork():
        pid = real()
        if pid == 0:
            return 0
        helpers.append(pid)
        raise DeprecationWarning("fork in a process with other threads")

    monkeypatch.setattr(os, "fork", fork)
    cfg = short_cfg(tmp_path, t_max=639, dt=1)
    table = cli._Table(640, cli._row_values(cfg), cli._CSV_ROW, "")
    fds = len(os.listdir("/proc/self/fd"))
    try:
        with pytest.raises(DeprecationWarning):
            cli._write_csv(tmp_path / "out.csv", table)
        assert len(os.listdir("/proc/self/fd")) == fds
        deadline = time.monotonic() + 10
        while not reaped and time.monotonic() < deadline:
            pid, status = os.waitpid(helpers[0], os.WNOHANG)
            if pid:
                reaped.append(status)
            time.sleep(0.01)
        assert [os.waitstatus_to_exitcode(status) for status in reaped] == [0]
    finally:
        if helpers and not reaped:  # still blocked on an open pipe: killed, then reaped
            with contextlib.suppress(ProcessLookupError):
                os.kill(helpers[0], signal.SIGKILL)
            os.waitpid(helpers[0], 0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_memory_does_not_grow_with_rows(tmp_path, monkeypatch, fmt):
    # Without a helper this process does every block; each block's values and
    # text must be gone before the next, so the peak is one block's, whatever the table.
    monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
    monkeypatch.setattr(os, "fork", no_fork)

    def config(blocks):
        return short_cfg(tmp_path, t_max=blocks * cli.BLOCK_ROWS - 1, dt=1, format=fmt)

    def peak(blocks):
        tracemalloc.start()
        try:
            assert run_simulate(config(blocks)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # CPython keeps up to 2000 freed tuples of each small size for reuse, and
    # the first run of a process fills that cache (up to 400 kB of 20-value
    # rows). The warm-up does so untraced, where a run is 19 times faster, at
    # the size traced next. Fewer than about 2,000 traced rows (16 blocks of
    # 64) let the cache fill inside the traced run and fail a clean one.
    assert run_simulate(config(32)) == 0
    assert peak(32) <= 1.5 * peak(2)


def test_verify_suites_hold_one_chunk_at_a_time():
    # The state suite maps its 10,000 angle samples a chunk at a time, and the
    # dynamics suite holds one figure run's trajectory (amplitudes, Bloch
    # vectors and sector norms) at a time. They peak at 2.4 and 2.0 MB;
    # whole-array versions peaked at 5.7 and 5.1 MB, and a dynamics suite that
    # keeps the previous run's trajectory alive through the next at 3.3 MB.
    for suite, bound in ((checks.state_suite, 3.5e6), (checks.dynamics_suite, 2.6e6)):
        # Two untraced warm-ups: the first caches the algebra tables and figure
        # parameters, and dynamics_suite's first traced run after only one
        # still read 0.12 MB of one-time allocations.
        suite()
        suite()
        tracemalloc.start()
        try:
            suite()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (suite.__name__, peak)


def test_verify_propagates_each_figure_run_once(monkeypatch):
    # One exact trajectory per figure run feeds all of its checks, RK4 and
    # simulate's kernel included, plus one propagation per periodicity pair.
    real = dynamics.propagate_exact
    calls = []
    monkeypatch.setattr(dynamics, "propagate_exact",
                        lambda p, times: calls.append(len(times)) or real(p, times))
    checks.dynamics_suite()
    assert calls == [checks.FIGURE_GRID.size] * 7 + [2] * 6  # the figure runs, then the pairs


def test_verify_residuals_do_not_depend_on_the_chunk(monkeypatch):
    # Every call on a chunked path is elementwise, so each residual keeps its
    # bits whatever the chunk, here one that divides neither sample.
    default = [checks.state_suite(), checks.dynamics_suite()]
    monkeypatch.setattr(checks, "CHUNK", 333)
    for report, suite in zip(default, (checks.state_suite, checks.dynamics_suite)):
        assert [r.residual for r in suite().results] == [r.residual for r in report.results]


#: Address-space limits (MiB) for ``verify all`` children, from numpy's import
#: refused (60) to a pass on one BLAS thread (180, where two threads ran out).
VERIFY_LIMITS_MB = [60, 100, 140, 180]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_verify_under_memory_limits_prints_no_traceback():
    # Each limit is set in the child only. A run exits 0; 1 with FAIL lines;
    # 2 with one error line; or 1 with OpenBLAS's own allocator line, which
    # ends the process from C: the one exit the CLI cannot shape.
    import resource

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    # One child at a time: preexec_fn runs Python in the forked child, which
    # is not safe while another thread of this process forks as well.
    for mb in VERIFY_LIMITS_MB:
        def limit(mb=mb):
            resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))

        result = subprocess.run([sys.executable, "-m", "qutrit_bloch.cli", "verify", "all"],
                                env=env, preexec_fn=limit, capture_output=True, text=True,
                                timeout=120)
        case = (mb, result.returncode, result.stdout[-200:], result.stderr[-400:])
        assert "Traceback" not in result.stderr, case
        if result.returncode == 0:
            assert result.stderr == "" and result.stdout.endswith(" checks passed\n"), case
        elif result.returncode == 1 and result.stdout:
            assert result.stderr == "" and "\nFAIL " in "\n" + result.stdout, case
        elif result.returncode == 1:
            assert re.fullmatch(r"OpenBLAS error: Memory allocation still failed after \d+"
                                r" retries, giving up\.\n", result.stderr), case
        else:
            assert result.returncode == 2 and result.stdout == "", case
            assert re.fullmatch(r"error: verify 'all': (out of memory|cannot import numpy)\n",
                                result.stderr), case


#: Address-space limits (MiB) for ``simulate`` children writing fig1a at
#: t_max=999. With Python 3.11 on a 2-vCPU Linux host, below 19 (18 on 3.12
#: and 3.13, 14 on 3.10) the package's import fails with a traceback before
#: ``main`` runs, up to 27 the table runs out of memory (exit 2), and from 28
#: it is written (exit 0).
SIMULATE_LIMITS_MB = [22, 26, 40]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_simulate_under_resource_limits_exits_with_one_line(tmp_path):
    # Each limit is set in the child only: the address-space ladder, then a
    # 1 MiB file-size limit. A last run writes to /dev/full. Every run exits
    # 0, 2 or 3 with at most one stderr line, and leaves no temp file.
    import resource

    def limit(kind, size):
        return lambda: resource.setrlimit(kind, (size, size))

    outputs = [(limit(resource.RLIMIT_AS, mb << 20), tmp_path / f"as{mb}.csv")
               for mb in SIMULATE_LIMITS_MB]
    outputs.append((limit(resource.RLIMIT_FSIZE, 1 << 20), tmp_path / "fsize.csv"))
    if Path("/dev/full").exists():
        outputs.append((None, Path("/dev/full")))
    # One child at a time: preexec_fn runs Python in the forked child, which
    # is not safe while another thread of this process forks as well.
    for preexec, out in outputs:
        result = subprocess.run(
            [sys.executable, "-m", "qutrit_bloch.cli", "simulate", "--figure", "fig1a",
             "--set", "t_max=999", "--output", str(out)],
            preexec_fn=preexec, capture_output=True, text=True, timeout=120)
        case = (out.name, result.returncode, result.stderr[-400:])
        assert result.returncode in (0, 2, 3), case
        assert len(result.stderr.splitlines()) <= 1, case
        if result.returncode == 2:
            assert result.stderr.startswith(f"error: cannot write {config._echo(str(out))}: "), case
        assert not list(tmp_path.glob("*.tmp")), case


@pytest.mark.parametrize("failure", ["helper_raises", "helper_status", "helper_killed",
                                     "no_fork", "parent_fails", "parent_out_of_memory"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_helper_keeps_existing_output(tmp_path, capsys, monkeypatch, fmt, failure):
    # A helper that fails costs time, not the run: this process does every
    # block the helper did not send, and the file is a clean run's. Only a
    # failure of this process exits 2 and keeps the file already there: a
    # full disk in its first block, or no memory left in its second.
    out = tmp_path / f"out.{fmt}"
    # (the error, the call of this process's that raises it, the reason printed)
    parent_error = {
        "parent_fails": (OSError(28, "No space left on device"), 1, "No space left on device"),
        "parent_out_of_memory": (MemoryError(), 2, "out of memory"),
    }.get(failure)
    if parent_error:
        # 10001 rows in 4 blocks: the helper's first block overfills the pipe,
        # so it is blocked writing when this process fails; the failure path
        # must close the pipe before it waits, or it would wait forever.
        cfg = short_cfg(tmp_path, output=out, format=fmt, t_max=100)
    else:
        # 301 rows in 6 blocks; the helper sends each of its 3 when it is done.
        monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
        cfg = short_cfg(tmp_path, output=out, format=fmt, t_max=3)
        assert run_simulate(cfg) == 0
        clean = out.read_bytes()
    out.write_bytes(b"earlier run\n")
    capsys.readouterr()
    parent, real = os.getpid(), cli._format_block
    formatted, helper_calls = [], []

    def format_block(block, row, sep):
        if os.getpid() == parent:
            formatted.append(1)
            if parent_error and len(formatted) == parent_error[1]:
                raise parent_error[0]
        else:
            helper_calls.append(1)
            if failure == "helper_raises":
                raise RuntimeError("helper died")
            if failure == "helper_killed" and len(helper_calls) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(block, row, sep)

    monkeypatch.setattr(cli, "_format_block", format_block)
    if failure == "helper_status":
        # The helper sends every block, then exits with a failing status.
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
    elif failure == "no_fork":
        monkeypatch.delattr(os, "fork")
    if parent_error:
        assert run_simulate(cfg) == 2
        assert capsys.readouterr().err == write_error(out, parent_error[2])
        assert out.read_bytes() == b"earlier run\n"
    else:
        assert run_simulate(cfg) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == clean
        # This process's 3 blocks, and each of the helper's it did not receive.
        assert len(formatted) == {"helper_status": 3, "helper_killed": 5}.get(failure, 6)
    assert list(tmp_path.iterdir()) == [out]
    assert_no_child_left()


def test_simulate_without_fork_writes_the_same_bytes(tmp_path):
    # A platform without os.fork writes on one core, with no traceback. With
    # SIGCHLD ignored (as a launcher's setting is, across exec), the kernel
    # reaps the helper itself and the wait for it finds no child; the run is
    # unchanged.
    args = ["simulate", "--figure", "fig1a", "--output"]
    default = tmp_path / "default.csv"
    subprocess.run([sys.executable, "-m", "qutrit_bloch.cli", *args, str(default)],
                   capture_output=True, timeout=60, check=True)
    for name, preamble in (("no_fork", "del os.fork"),
                           ("sigchld_ignored", "signal.signal(signal.SIGCHLD, signal.SIG_IGN)")):
        code = (f"import os, runpy, signal; {preamble}; "
                "runpy.run_module('qutrit_bloch.cli', run_name='__main__')")
        out = tmp_path / f"{name}.csv"
        result = subprocess.run([sys.executable, "-c", code, *args, str(out)],
                                capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (
            0, f"wrote 10001 records to {out}\n", "")
        assert out.read_bytes() == default.read_bytes()


def test_cli_import_starts_no_pool_machinery(tmp_path):
    # A process pool's modules would add start-up time to every CLI run, and
    # numpy (0.13 s to import) is for verify and cardinal only. A CSV run
    # needs neither dataclasses (which imports inspect) nor json.
    code = (
        "import sys, qutrit_bloch.cli; "
        "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules); "
        "code = qutrit_bloch.cli.main(sys.argv[1:]); "
        "print(code, 'numpy.random' in sys.modules, 'numpy' in sys.modules); "
        "print(*(m in sys.modules for m in ('dataclasses', 'inspect', 'json')))"
    )
    out = tmp_path / "out.csv"
    args = ["simulate", "--figure", "fig1a", "--set", "t_max=1", "--output", str(out)]
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout == (
        f"False False\nwrote 101 records to {out}\n0 False False\nFalse False False\n")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_forks_a_single_threaded_process_without_numpy(tmp_path, fmt):
    # CPython 3.12 warns when it forks a process with other OS threads, as
    # after `import numpy` (OpenBLAS starts one). simulate must fork before
    # any numpy, with one thread, and never import numpy at all.
    code = textwrap.dedent("""
        import os, re, sys
        seen = []
        real_fork = os.fork
        def fork():
            with open("/proc/self/status") as fh:
                threads = int(re.search(r"^Threads:\\s+(\\d+)", fh.read(), re.M).group(1))
            seen.append((threads, "numpy" in sys.modules))
            return real_fork()
        os.fork = fork
        from qutrit_bloch import cli
        code = cli.main(sys.argv[1:])
        print(code, seen, "numpy" in sys.modules)
    """)
    out = tmp_path / f"fig1a.{fmt}"
    args = ["simulate", "--figure", "fig1a", "--format", fmt, "--output", str(out)]
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.splitlines()[-1] == "0 [(1, False)] False"
    assert result.stderr == ""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
@pytest.mark.parametrize("preset", [None, "2"])
def test_verify_runs_numpy_on_one_blas_thread(preset):
    # Before numpy's first import, verify sets OPENBLAS_NUM_THREADS to 1, so
    # the process has no OpenBLAS worker thread; a value already set is kept.
    code = textwrap.dedent("""
        import os, re
        from qutrit_bloch import cli
        code = cli.main(["verify", "algebra"])
        with open("/proc/self/status") as fh:
            threads = re.search(r"^Threads:\\s+(\\d+)", fh.read(), re.M).group(1)
        print(code, os.environ["OPENBLAS_NUM_THREADS"], threads)
    """)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    code, value, threads = result.stdout.splitlines()[-1].split()
    assert (code, value) == ("0", preset or "1")
    if preset is None:
        assert threads == "1"


#: Settings that change numpy's SIMD dispatch and OpenBLAS's kernel; simulate
#: imports neither, so its bytes must not move. Set on the children only.
NUMPY_HOST_SETTINGS = [
    {},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"},
    {"OPENBLAS_CORETYPE": "Prescott"},
]


def test_simulate_bytes_do_not_depend_on_numpy_dispatch(tmp_path):
    # CSV's %.17g shows every double exactly; the JSON writer formats the same
    # doubles in numpy-free code (test_command_line_modules_hold_no_numpy_import).
    runs = [(name, i) for name in ("fig3b", "fig5a") for i in range(len(NUMPY_HOST_SETTINGS))]
    # The children run elsewhere, so they find the package by its absolute path.
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])

    def run(case):
        name, i = case
        out = f"{name}.{i}.csv"
        subprocess.run(
            [sys.executable, "-m", "qutrit_bloch.cli", "simulate", "--figure", name,
             "--output", out],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": path, **NUMPY_HOST_SETTINGS[i]},
            capture_output=True,
            timeout=60, check=True,
        )
        return (tmp_path / out).read_bytes()

    with ThreadPoolExecutor(max_workers=2) as pool:
        outputs = dict(zip(runs, pool.map(run, runs)))
    for (name, i), data in outputs.items():
        assert data == outputs[name, 0], (name, NUMPY_HOST_SETTINGS[i])


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
