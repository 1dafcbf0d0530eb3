"""Command-line driver: simulate, verify, cardinal.

Exit codes: 0 success, 1 verification failure, 2 I/O or configuration error,
3 runtime invariant breach during a simulation (a non-finite table entry, or a
Bloch-norm drift past ``RUNTIME_NORM_TOL``); no output file is written then.
Output goes to a temporary file in the target's directory that is renamed
onto the target, so exits 2 and 3 leave an existing file as it was. The
temporary file is created before any work, so an output the OS refuses exits
2 at once; a run killed before it ends can leave it behind. That
atomicity covers regular files only: POSIX ``rename(2)`` replaces a directory
entry, so a symlink is followed and its target replaced, and another existing
non-regular target (a FIFO, a device) is opened and written in place.

A table of more than ``BLOCK_ROWS`` rows is cut into an even number of
near-equal blocks; this process formats the even blocks and one forked helper
the odd ones, which it sends back through a pipe, so the file holds the same
bytes as from one process. There is no option for this.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import checks, config, figures, su3
from .config import ConfigError, RunConfig, parse_run_config, run_config_dict, simulation_grid
from .dynamics import Trajectory, bloch_trajectory
from .states import BLOCH_NORM_SQ, CARDINAL_LABELS, bloch_from_amplitudes, cardinal_state

__all__ = ["main", "run_cardinal", "run_simulate", "run_verify", "simulation_grid"]

CSV_HEADER = (
    "t,n1,n2,n3,n4,n5,n6,n7,n8,"
    "dn1,dn2,dn3,dn4,dn5,dn6,dn7,dn8,s4,s2,norm2"
)

#: Norm-conservation breach that aborts a run with exit code 3.
RUNTIME_NORM_TOL = 1e-6

#: Most rows the writers format with one ``%`` at a time; bounds their memory.
#: A table of at most this many rows is formatted without the helper process.
BLOCK_ROWS = 4096

_FIELDS = CSV_HEADER.split(",")
#: One table row: 17 significant digits in CSV; in JSON the shortest
#: round-trip repr, as ``json.dump`` writes a float (finite values only).
_CSV_ROW = ",".join(["%.17g"] * len(_FIELDS)) + "\n"
_JSON_ROW = "{\n" + ",\n".join(f'   "{name}": %r' for name in _FIELDS) + "\n  }"


def _records(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    norm2 = np.einsum("ij,ij->i", traj.bloch, traj.bloch)
    table = np.column_stack(
        [traj.times, traj.bloch, traj.bloch_dot, traj.sector4, traj.sector2, norm2]
    )
    return table, norm2


def _format_block(block: np.ndarray, row: str, sep: str) -> str:
    return sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def _receive_block(pipe) -> str:
    """Read one block the helper sent: an 8-byte length, then the text."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "big")
        data = pipe.read(size)
        if len(data) == size:
            return data.decode()
    raise OSError(errno.EIO, "the formatting helper stopped early")


@contextlib.contextmanager
def _format_helper(blocks: list[np.ndarray], row: str, sep: str):
    """Fork one process that formats ``blocks`` in order into a pipe.

    Yields a function that returns the next block's text, or None when the
    fork fails and the caller must format every block itself. A short read,
    or a helper that exits with a failing status, raises ``OSError``.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        pid = None
    if pid is None:
        yield None
        return
    if pid == 0:
        # The helper only formats and writes; it never returns into the caller.
        code = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                for block in blocks:
                    data = _format_block(block, row, sep).encode()
                    pipe.write(len(data).to_bytes(8, "big"))
                    pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    pipe = open(rfd, "rb")
    try:
        yield lambda: _receive_block(pipe)
    finally:
        # Close before the wait: a helper blocked on a full pipe gets EPIPE.
        pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise OSError(errno.EIO, f"the formatting helper exited with status {code}")


def _write_rows(fh, table: np.ndarray, row: str, sep: str) -> None:
    """Write ``row % values`` for every table row, joined by ``sep``.

    A table above ``BLOCK_ROWS`` rows is written as an even number of blocks;
    a forked helper formats the odd ones while this process formats the even
    ones, and every block is written in order.
    """
    n = len(table)
    count = 1 if n <= BLOCK_ROWS else 2 * -(-n // (2 * BLOCK_ROWS))
    blocks = [table[n * i // count:n * (i + 1) // count] for i in range(count)]
    helper = _format_helper(blocks[1::2], row, sep) if count > 1 else contextlib.nullcontext()
    with helper as receive:
        for i, block in enumerate(blocks):
            if i:
                fh.write(sep)
            fh.write(receive() if receive and i % 2 else _format_block(block, row, sep))


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


def _output_paths(out: Path) -> tuple[Path, Path]:
    """The target of ``out`` and the path to write before renaming onto it.

    For a regular target the temp file beside it is created here, so whatever
    the OS refuses (a missing or unwritable directory, an overlong name, a
    temp name taken by a directory) raises ``OSError`` before any work. An
    existing non-regular target is written in place through ``out`` as given
    (``realpath`` turns ``/dev/fd/63`` into an unopenable ``pipe:[N]``).
    """
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG  # an absent target is created like a regular file
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    if not stat.S_ISREG(mode):
        return out, out
    target = Path(os.path.realpath(out))
    tmp = Path(f"{target}.{os.getpid()}.tmp")
    open(tmp, "w").close()
    return target, tmp


def run_simulate(cfg: RunConfig) -> int:
    """Run one trajectory and write it out; see module docstring for codes."""
    out = target = path = cfg.output_path
    try:
        # Refuse an output that cannot be created before any work is done.
        target, path = _output_paths(out)
        times = simulation_grid(cfg)
        # A huge but finite input overflows to inf/nan here; the check below
        # reports that as one error line instead of numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                table, norm2 = _records(bloch_trajectory(cfg.params, times))
            except su3.ConsistencyError:  # H's Gell-Mann expansion overflowed to NaN
                table = np.array(np.nan)
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
        # A regular target is written beside and renamed over, so a failed write
        # never leaves a partial file at the output path.
        if cfg.output_format == "csv":
            _write_csv(path, table)
        else:
            _write_json(path, cfg, table)
        if path != target:
            os.replace(path, target)
    except OSError as exc:
        print(f"error: cannot write {config._echo(str(out))}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    finally:
        # No temp file is left after the rename, an exit 2 or an exit 3.
        if path != target:
            with contextlib.suppress(OSError):
                path.unlink()
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
            # One byte past the cap tells a longer file (or /dev/zero) from one at it.
            with Path(args.config).open("rb") as fh:
                data = fh.read(config.MAX_CONFIG_BYTES + 1)
            if len(data) > config.MAX_CONFIG_BYTES:
                raise ValueError(f"longer than {config.MAX_CONFIG_BYTES} bytes")
            text = data.decode("utf-8-sig")  # a BOM is dropped
        except (OSError, ValueError) as exc:  # ValueError: too long, not UTF-8, or a NUL
            reason = getattr(exc, "strerror", None) or exc  # an OSError's str repeats the path
            raise ConfigError(f"cannot read {config._echo(args.config)}: {reason}") from None
    else:
        try:
            text = figures.figure_config_text(args.figure)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {config._echo(item)}")
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
    # Listed as argparse lists choices; figure_config_text decides the name.
    sim.add_argument("--figure", metavar="{" + ",".join(figures.FIGURE_NAMES) + "}",
                     help="bundled figure configuration")
    sim.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )
    sim.add_argument("--output", help="override the output path")
    # The formats are listed as argparse lists choices, but parse_run_config
    # decides the value, as it does for the format key of a document.
    sim.add_argument(
        "--format", metavar="{" + ",".join(config.OUTPUT_FORMATS) + "}",
        help="override the output format",
    )

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument(
        "scope", nargs="?", default="all", choices=checks.SCOPES,
    )

    card = sub.add_parser("cardinal", help="print a cardinal state and its Bloch vector")
    card.add_argument("label", choices=CARDINAL_LABELS)
    return parser


def _run(args: argparse.Namespace) -> int:
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Output files report their own write errors; what is left is stdout.
    try:
        code = _run(args)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write to standard output: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
