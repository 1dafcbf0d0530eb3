"""Run configuration: flat key=value documents, validation, rendering.

The accepted document format is one ``key=value`` pair per line with ``#``
comments. Recognized keys:

    config       lambda | vee | xi                          (required)
    kappa_a      first coupling, nonnegative                (required)
    kappa_b      second coupling, nonnegative               (required)
    delta        shared detuning                            (required)
    t_max        run length, positive                       (required)
    dt           grid step, positive, at most t_max         (required)
                 (t_max/dt + 1 rows; at most MAX_GRID_ROWS)
    c0_re        three comma-separated reals                (default: equal populations)
    c0_im        three comma-separated reals                (default: 0,0,0)
    convention   half | full                                (default: half)
    emit         timeseries | phase_portrait | sectors      (default: timeseries)
                 (a label: echoed in the JSON meta, changes nothing else)
    format       csv | json                                 (default: csv)
    output       output file path                           (default: trajectory.<format>)

Unknown keys are rejected. Keys match exactly; the values of config,
convention, emit and format match in any case and with surrounding spaces,
and are kept in their lower-case spelling. The initial amplitudes must arrive
normalized, |c0|^2 within 1e-12 of 1 (the check ``model.SimParams`` runs);
they are never renormalized silently. An output path the OS cannot take (an
empty name, a NUL byte, an unencodable character) is refused here; any other
output the OS refuses to create is refused by ``cli.run_simulate`` before any
work.

This module imports no numpy, at any depth: ``simulate`` runs without it.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from .model import _EQUAL_POPULATIONS, COUPLING_CONVENTIONS, Configuration, SimParams, _Record

__all__ = [
    "ConfigError",
    "MAX_CONFIG_BYTES",
    "MAX_GRID_ROWS",
    "RunConfig",
    "grid_rows",
    "parse_run_config",
    "render_run_config",
    "run_config_dict",
]

#: Largest simulation grid a run may ask for, in rows: 100x the 10001 rows
#: of a bundled figure. Refused at parse time, before anything is allocated.
MAX_GRID_ROWS = 1_000_000

#: Largest configuration file ``simulate --config`` reads, in bytes: about
#: 10^4 times a bundled document. A longer file is refused before parsing.
MAX_CONFIG_BYTES = 1 << 20

EMIT_MODES = ("timeseries", "phase_portrait", "sectors")
OUTPUT_FORMATS = ("csv", "json")

_REQUIRED_KEYS = ("config", "kappa_a", "kappa_b", "delta", "t_max", "dt")
_ALL_KEYS = _REQUIRED_KEYS + ("c0_re", "c0_im", "convention", "emit", "format", "output")


class ConfigError(ValueError):
    """Invalid run configuration document or values."""


def _echo(text: str) -> str:
    """``repr(text)`` for an error line; past 60 characters, that of its head and its length."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}... ({len(text)} characters)"


class RunConfig(_Record):
    """Fully validated inputs of one simulation run."""

    __slots__ = ("params", "t_max", "dt", "emit", "output_format", "output_path")

    def __init__(self, params: SimParams, t_max: float, dt: float, emit: str,
                 output_format: str, output_path: Path) -> None:
        self._fill(params, t_max, dt, emit, output_format, output_path)


def grid_rows(t_max: float, dt: float) -> int:
    """Rows of the grid 0, dt, 2 dt, ... up to (and including) t_max.

    Raises ConfigError when that is more than MAX_GRID_ROWS rows, or not a
    finite number of them.
    """
    steps = t_max / dt + 1e-9
    if not steps < MAX_GRID_ROWS:  # also refuses inf and nan
        raise ConfigError(
            f"t_max/dt = {steps:.3g} asks for more than {MAX_GRID_ROWS} grid rows"
        )
    return math.floor(steps) + 1


def _raw_pairs(text: str) -> dict[str, tuple[str, int]]:
    """Tokenize a document into key -> (value, line number)."""
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {_echo(raw.strip())}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {_echo(key)}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (value, lineno)
    return pairs


def _parse_float(key: str, value: str, where: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} is not a number: {_echo(value)}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{where}: {key} must be finite, got {_echo(value)}")
    return out


def _parse_triple(key: str, value: str, where: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{where}: {key} needs 3 comma-separated values")
    return tuple(_parse_float(key, p, where) for p in parts)  # type: ignore[return-value]


def _usable_path(text: str) -> bool:
    """Whether the OS takes ``text`` as a path: it is not empty, encodes and holds no NUL byte."""
    try:
        return text != "" and b"\0" not in os.fsencode(text)
    except UnicodeEncodeError:
        return False


def parse_run_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse and validate a configuration document.

    ``overrides`` maps keys to raw value strings that replace (or add to) the
    document's pairs before validation; they are reported as "override" in
    error messages. Missing optional keys take the documented defaults;
    missing required keys are an error listing all of them.
    """
    pairs = _raw_pairs(text)
    if overrides:
        for key, value in overrides.items():
            if key not in _ALL_KEYS:
                raise ConfigError(f"override: unknown key {_echo(key)}")
            pairs[key] = (value, 0)

    missing = [k for k in _REQUIRED_KEYS if k not in pairs]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    def where(key: str) -> str:
        lineno = pairs[key][1]
        return "override" if lineno == 0 else f"line {lineno}"

    def choice(key: str, choices: tuple[str, ...]) -> str:
        """The value of ``key``, one of the lower-case ``choices``; the first is
        the default. The value is stripped and lower-cased before the match."""
        value = pairs.get(key, (choices[0], 0))[0].strip().lower()
        if value not in choices:
            raise ConfigError(f"{where(key)}: {key} must be one of {', '.join(choices)}")
        return value

    config = Configuration(choice("config", tuple(c.value for c in Configuration)))

    numbers = {}
    for key in ("kappa_a", "kappa_b", "delta", "t_max", "dt"):
        numbers[key] = _parse_float(key, pairs[key][0], where(key))
    for key in ("kappa_a", "kappa_b"):
        if numbers[key] < 0.0:
            raise ConfigError(f"{where(key)}: {key} must be nonnegative")
    if numbers["t_max"] <= 0.0:
        raise ConfigError(f"{where('t_max')}: t_max must be positive")
    if numbers["dt"] <= 0.0:
        raise ConfigError(f"{where('dt')}: dt must be positive")
    if numbers["dt"] > numbers["t_max"]:
        raise ConfigError(f"{where('dt')}: dt must not exceed t_max")
    grid_rows(numbers["t_max"], numbers["dt"])

    c0_re = [x.real for x in _EQUAL_POPULATIONS]
    if "c0_re" in pairs:
        c0_re = _parse_triple("c0_re", pairs["c0_re"][0], where("c0_re"))
    c0_im = (0.0, 0.0, 0.0)
    if "c0_im" in pairs:
        c0_im = _parse_triple("c0_im", pairs["c0_im"][0], where("c0_im"))

    convention = choice("convention", COUPLING_CONVENTIONS)
    emit = choice("emit", EMIT_MODES)
    output_format = choice("format", OUTPUT_FORMATS)
    output = pairs.get("output", (f"trajectory.{output_format}", 0))[0]
    if not _usable_path(output):
        raise ConfigError(f"{where('output')}: output is not a usable file name: {_echo(output)}")

    try:  # every other field is checked above: a ValueError is the |c0|^2 check
        params = SimParams(
            config=config, kappa_a=numbers["kappa_a"], kappa_b=numbers["kappa_b"],
            delta=numbers["delta"], c0=tuple(map(complex, c0_re, c0_im)),
            coupling_convention=convention,
        )
    except ValueError as exc:
        key = "c0_re" if "c0_re" in pairs else "c0_im"
        raise ConfigError(
            f"c0_re/c0_im: {exc} (set {key} so the norm is 1; renormalization is refused)"
        ) from None
    return RunConfig(
        params=params, t_max=numbers["t_max"], dt=numbers["dt"],
        emit=emit, output_format=output_format, output_path=Path(output),
    )


def run_config_dict(cfg: RunConfig) -> dict[str, str | float | list[float]]:
    """Every key of ``cfg``'s document with its typed value, in document order.

    The c0 triples are lists of floats. The JSON ``meta`` block is this mapping.
    """
    p = cfg.params
    return {
        "config": p.config.value,
        "kappa_a": p.kappa_a,
        "kappa_b": p.kappa_b,
        "delta": p.delta,
        "c0_re": [x.real for x in p.c0],
        "c0_im": [x.imag for x in p.c0],
        "convention": p.coupling_convention,
        "t_max": cfg.t_max,
        "dt": cfg.dt,
        "emit": cfg.emit,
        "format": cfg.output_format,
        "output": str(cfg.output_path),
    }


def _fmt(value: str | float | list[float]) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(map(_fmt, value))
    return format(value, ".17g")


def render_run_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to the flat key=value format.

    The output parses back to an equal RunConfig (17 significant digits
    round-trip doubles exactly). Raises ConfigError for a value the format
    cannot carry: one holding ``#`` or a line break, or with leading or
    trailing whitespace (the parser would cut or strip it).
    """
    lines = []
    for key, value in run_config_dict(cfg).items():
        text = _fmt(value)
        if "#" in text or "".join(text.splitlines()) != text or text != text.strip():
            raise ConfigError(f"{key} cannot be written as key=value: {text!r}")
        lines.append(f"{key}={text}\n")
    return "".join(lines)
