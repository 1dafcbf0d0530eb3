"""Command-line driver: simulate, verify, cardinal.

Exit codes: 0 success, 1 verification failure, 2 I/O or configuration error,
3 runtime invariant breach during a simulation (a non-finite table entry, or a
Bloch-norm drift past ``RUNTIME_NORM_TOL``); no output file is written then.
Output goes to a temporary file in the target's directory that is renamed
onto the target, so exits 2 and 3 leave an existing file as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks, figures
from .config import ConfigError, RunConfig, grid_rows, parse_run_config, run_config_dict
from .dynamics import Trajectory, bloch_trajectory
from .states import BLOCH_NORM_SQ, CARDINAL_LABELS, bloch_from_amplitudes, cardinal_state

__all__ = ["main", "run_cardinal", "run_simulate", "run_verify", "simulation_grid"]

CSV_HEADER = (
    "t,n1,n2,n3,n4,n5,n6,n7,n8,"
    "dn1,dn2,dn3,dn4,dn5,dn6,dn7,dn8,s4,s2,norm2"
)

#: Norm-conservation breach that aborts a run with exit code 3.
RUNTIME_NORM_TOL = 1e-6

#: Rows the writers format with one ``%`` at a time; bounds their memory.
BLOCK_ROWS = 4096

_FIELDS = CSV_HEADER.split(",")
#: One table row: 17 significant digits in CSV; in JSON the shortest
#: round-trip repr, as ``json.dump`` writes a float (finite values only).
_CSV_ROW = ",".join(["%.17g"] * len(_FIELDS)) + "\n"
_JSON_ROW = "{\n" + ",\n".join(f'   "{name}": %r' for name in _FIELDS) + "\n  }"


def simulation_grid(cfg: RunConfig) -> np.ndarray:
    """Uniform grid 0, dt, 2 dt, ... up to (and including) t_max."""
    return np.arange(grid_rows(cfg.t_max, cfg.dt)) * cfg.dt


def _records(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    norm2 = np.einsum("ij,ij->i", traj.bloch, traj.bloch)
    table = np.column_stack(
        [traj.times, traj.bloch, traj.bloch_dot, traj.sector4, traj.sector2, norm2]
    )
    return table, norm2


def _write_rows(fh, table: np.ndarray, row: str, sep: str) -> None:
    """Write ``row % values`` for every table row, joined by ``sep``."""
    for start in range(0, len(table), BLOCK_ROWS):
        block = table[start:start + BLOCK_ROWS]
        if start:
            fh.write(sep)
        fh.write(sep.join([row] * len(block)) % tuple(block.ravel().tolist()))


def _write_csv(path: Path, table: np.ndarray) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        _write_rows(fh, table, _CSV_ROW, "")


def _write_json(path: Path, cfg: RunConfig, table: np.ndarray) -> None:
    """The layout of ``json.dump({"meta": ..., "rows": [{field: value}, ...]}, indent=1)``."""
    # json lays out the frame; the rows go where the one placeholder row sits.
    frame = json.dumps({"meta": run_config_dict(cfg), "rows": [None]}, indent=1)
    head, tail = frame.rsplit("null", 1)
    with open(path, "w", newline="\n") as fh:
        fh.write(head)
        _write_rows(fh, table, _JSON_ROW, ",\n  ")
        fh.write(tail + "\n")


def run_simulate(cfg: RunConfig) -> int:
    """Run one trajectory and write it out; see module docstring for codes."""
    # Refuse an output that cannot be opened before any work is done.
    out = cfg.output_path
    if os.path.isdir(out) or not os.path.isdir(out.parent):
        reason = "Is a directory" if os.path.isdir(out) else "No such file or directory"
        print(f"error: cannot write {out}: {reason}", file=sys.stderr)
        return 2
    times = simulation_grid(cfg)
    # A huge but finite input overflows to inf/nan here; the check below
    # reports that as one error line instead of numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        traj = bloch_trajectory(cfg.params, times)
        table, norm2 = _records(traj)
    if not np.isfinite(table).all():
        print("error: the trajectory has non-finite values; aborting without output",
              file=sys.stderr)
        return 3
    drift = np.abs(norm2 - BLOCH_NORM_SQ).max()
    if drift > RUNTIME_NORM_TOL:
        print(
            f"error: Bloch norm drifted by {drift:.3e} (tolerance {RUNTIME_NORM_TOL:g});"
            " aborting without output",
            file=sys.stderr,
        )
        return 3
    # Write beside the target and rename over it, so a failed write never
    # leaves a partial file at the output path.
    tmp = Path(f"{out}.{os.getpid()}.tmp")
    try:
        if cfg.output_format == "csv":
            _write_csv(tmp, table)
        else:
            _write_json(tmp, cfg, table)
        os.replace(tmp, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    finally:
        # No temp file is left after the rename, or when the OS refused its name.
        with contextlib.suppress(OSError):
            tmp.unlink()
    print(f"wrote {table.shape[0]} records to {out}")
    return 0


def run_verify(scope: str = "all") -> int:
    """Run the named invariant suite(s); exit 0 only if every check passes."""
    report = checks.run_suites(scope)
    for result in report.results:
        print(result.line())
    for note in report.notes:
        print(f"INFO {note}")
    failed = [r for r in report.results if not r.passed]
    print(f"{len(report.results) - len(failed)}/{len(report.results)} checks passed")
    return 1 if failed else 0


def run_cardinal(label: str) -> int:
    """Print angles, amplitudes, and Bloch vector of a cardinal state."""
    angles, amps = cardinal_state(label)
    bloch = bloch_from_amplitudes(amps)
    print(f"cardinal state {label!r}")
    print(
        f"  angles: theta1={angles.theta1:.12g} theta2={angles.theta2:.12g}"
        f" phi1={angles.phi1:.12g} phi2={angles.phi2:.12g}"
    )
    amp_text = "  ".join(
        f"c{i + 1}={c.real:.12g}{c.imag:+.12g}j" for i, c in enumerate(amps)
    )
    print(f"  amplitudes: {amp_text}")
    print("  bloch: " + "  ".join(f"n{k + 1}={v:.12g}" for k, v in enumerate(bloch)))
    print(f"  norm^2: {float(bloch @ bloch):.12g}")
    return 0


def _load_simulate_config(args: argparse.Namespace) -> RunConfig:
    if (args.config is None) == (args.figure is None):
        raise ConfigError("exactly one of --config or --figure is required")
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL
            raise ConfigError(f"cannot read {args.config}: {exc}") from None
    else:
        try:
            text = figures.figure_config_text(args.figure)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.output is not None:
        overrides["output"] = args.output
    if args.format is not None:
        overrides["format"] = args.format
    return parse_run_config(text, overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutrit-bloch",
        description="SU(3) Bloch vectors of three-level systems: "
        "simulation, invariant verification, cardinal states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trajectory and export it")
    sim.add_argument("--config", help="path to a key=value run configuration")
    sim.add_argument(
        "--figure", choices=figures.FIGURE_NAMES, help="bundled figure configuration"
    )
    sim.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )
    sim.add_argument("--output", help="override the output path")
    sim.add_argument("--format", choices=("csv", "json"), help="override the output format")

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument(
        "scope", nargs="?", default="all",
        choices=("algebra", "state", "dynamics", "all"),
    )

    card = sub.add_parser("cardinal", help="print a cardinal state and its Bloch vector")
    card.add_argument("label", choices=CARDINAL_LABELS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        try:
            cfg = _load_simulate_config(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return run_simulate(cfg)
    if args.command == "verify":
        return run_verify(args.scope)
    return run_cardinal(args.label)


if __name__ == "__main__":
    sys.exit(main())
