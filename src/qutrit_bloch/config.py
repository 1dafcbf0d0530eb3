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
    format       csv | json                                 (default: csv)
    output       output file path                           (default: trajectory.<format>)

Unknown keys are rejected. The initial amplitudes must arrive normalized;
they are never renormalized silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .dynamics import Configuration, SimParams

__all__ = [
    "ConfigError",
    "MAX_GRID_ROWS",
    "RunConfig",
    "grid_rows",
    "parse_run_config",
    "render_run_config",
]

#: Parse-time ceiling on |norm(c0)^2 - 1|.
C0_NORM_TOL = 1e-9

#: Largest simulation grid a run may ask for, in rows: 100x the 10001 rows
#: of a bundled figure. Refused at parse time, before anything is allocated.
MAX_GRID_ROWS = 1_000_000

EMIT_MODES = ("timeseries", "phase_portrait", "sectors")
OUTPUT_FORMATS = ("csv", "json")

_REQUIRED_KEYS = ("config", "kappa_a", "kappa_b", "delta", "t_max", "dt")
_ALL_KEYS = _REQUIRED_KEYS + ("c0_re", "c0_im", "convention", "emit", "format", "output")

_EQUAL_RE = (1.0 / math.sqrt(3.0),) * 3


class ConfigError(ValueError):
    """Invalid run configuration document or values."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs of one simulation run."""

    config: Configuration
    kappa_a: float
    kappa_b: float
    delta: float
    c0: tuple[complex, complex, complex]
    convention: str
    t_max: float
    dt: float
    emit: str
    output_format: str
    output_path: Path

    def to_sim_params(self) -> SimParams:
        return SimParams(
            config=self.config, kappa_a=self.kappa_a, kappa_b=self.kappa_b,
            delta=self.delta, c0=self.c0, coupling_convention=self.convention,
        )


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
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (value, lineno)
    return pairs


def _parse_float(key: str, value: str, lineno: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} is not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"line {lineno}: {key} must be finite, got {value!r}")
    return out


def _parse_triple(key: str, value: str, lineno: int) -> tuple[float, float, float]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"line {lineno}: {key} needs 3 comma-separated values")
    return tuple(_parse_float(key, p, lineno) for p in parts)  # type: ignore[return-value]


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
                raise ConfigError(f"override: unknown key {key!r}")
            pairs[key] = (value, 0)

    missing = [k for k in _REQUIRED_KEYS if k not in pairs]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    def where(key: str) -> str:
        lineno = pairs[key][1]
        return "override" if lineno == 0 else f"line {lineno}"

    try:
        config = Configuration.parse(pairs["config"][0])
    except ValueError as exc:
        raise ConfigError(f"{where('config')}: {exc}") from None

    numbers = {}
    for key in ("kappa_a", "kappa_b", "delta", "t_max", "dt"):
        value, lineno = pairs[key]
        numbers[key] = _parse_float(key, value, lineno)
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

    c0_re = _EQUAL_RE
    if "c0_re" in pairs:
        c0_re = _parse_triple("c0_re", *pairs["c0_re"])
    c0_im = (0.0, 0.0, 0.0)
    if "c0_im" in pairs:
        c0_im = _parse_triple("c0_im", *pairs["c0_im"])
    c0 = tuple(complex(re, im) for re, im in zip(c0_re, c0_im))
    norm_sq = sum(abs(x) ** 2 for x in c0)
    if abs(norm_sq - 1.0) > C0_NORM_TOL:
        key = "c0_re" if "c0_re" in pairs else "c0_im"
        raise ConfigError(
            f"c0_re/c0_im give |c0|^2 = {norm_sq!r}, not normalized"
            f" (set {key} so the norm is 1; renormalization is refused)"
        )

    convention = pairs.get("convention", ("half", 0))[0]
    if convention not in ("half", "full"):
        raise ConfigError(f"{where('convention')}: convention must be half or full")
    emit = pairs.get("emit", ("timeseries", 0))[0]
    if emit not in EMIT_MODES:
        raise ConfigError(f"{where('emit')}: emit must be one of {', '.join(EMIT_MODES)}")
    output_format = pairs.get("format", ("csv", 0))[0]
    if output_format not in OUTPUT_FORMATS:
        raise ConfigError(f"{where('format')}: format must be csv or json")
    output = pairs.get("output", (f"trajectory.{output_format}", 0))[0]

    cfg = RunConfig(
        config=config,
        kappa_a=numbers["kappa_a"], kappa_b=numbers["kappa_b"], delta=numbers["delta"],
        c0=c0, convention=convention,
        t_max=numbers["t_max"], dt=numbers["dt"],
        emit=emit, output_format=output_format, output_path=Path(output),
    )
    try:
        cfg.to_sim_params()  # strict invariant check, refuses renormalization
    except ValueError as exc:
        raise ConfigError(f"c0_re/c0_im: {exc}") from None
    return cfg


def _fmt(x: float) -> str:
    return format(x, ".17g")


def render_run_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to the flat key=value format.

    The output parses back to an equal RunConfig (17 significant digits
    round-trip doubles exactly).
    """
    lines = [
        f"config={cfg.config.value}",
        f"kappa_a={_fmt(cfg.kappa_a)}",
        f"kappa_b={_fmt(cfg.kappa_b)}",
        f"delta={_fmt(cfg.delta)}",
        "c0_re=" + ",".join(_fmt(x.real) for x in cfg.c0),
        "c0_im=" + ",".join(_fmt(x.imag) for x in cfg.c0),
        f"convention={cfg.convention}",
        f"t_max={_fmt(cfg.t_max)}",
        f"dt={_fmt(cfg.dt)}",
        f"emit={cfg.emit}",
        f"format={cfg.output_format}",
        f"output={cfg.output_path}",
    ]
    return "\n".join(lines) + "\n"
