"""Command-line driver: simulate, verify, cardinal.

Exit codes: 0 success, 1 verification failure, 2 I/O or configuration error,
3 runtime invariant breach during a simulation (a non-finite table entry, or a
Bloch-norm drift past ``RUNTIME_NORM_TOL``); no output file is written then.
A ``MemoryError`` while the table is computed or written exits 2, with one
``error:`` line naming the output, like a failed write. Output goes to a
temporary file in the target's directory that is renamed onto the target, so
exits 2 and 3 leave an existing file as it was. The temporary file is
created before any work, so an output the OS refuses exits 2 at once. During
``main``, SIGTERM and SIGHUP at their default action raise
``SystemExit(128 + signum)``, and SIGINT's ``KeyboardInterrupt`` is caught:
the run exits 143, 129 or 130, silently, after the temporary file is
removed. Only a signal that cannot be caught, such as SIGKILL, can leave the
file behind. That atomicity covers regular files only: POSIX ``rename(2)``
replaces a directory entry, so a symlink is followed and its target replaced,
and another existing non-regular target (a FIFO, a device) is opened and
written in place, so it can receive part of the table before an exit 2 or 3.
An output that is the file open as standard output (``--output /dev/stdout``)
gets the table alone, with no ``wrote`` line after it. A replaced file keeps
its permission bits. The rename gives the output path a new inode, so a
replaced file's other hard links keep the old bytes and are detached from it.

``simulate`` imports no numpy: each table row comes from
``model.row_formula`` in plain floats. The table (``_Table``) owns its
blocks and its helper: above ``BLOCK_ROWS`` rows it cuts itself into an even
number of near-equal blocks; this process does the even blocks and one
helper, forked when the table is written, the odd ones. Each process takes its
blocks one at a time: it computes the rows, checks them, formats them, then
writes them (this process) or sends them through a pipe (the helper), so no
block's values outlive that step and memory does not grow with the table.
Every block the helper does not deliver whole, because it found a breach,
failed, was killed or was never forked (no ``os.fork`` on the platform, or a
fork the OS refuses), this process does itself: a helper that fails costs
time, not the run. A value set in the table is part of its values, so the
helper's blocks carry it too. The first block that breaches an invariant
ends the run with exit 3, and the drift line names that block's largest
drift. The file holds the same bytes as from one process. There is no
option for this.

``verify`` and ``cardinal`` import numpy when they run, on one BLAS thread:
before numpy's first import in the process they set ``OPENBLAS_NUM_THREADS``
to 1, unless it is set already (an in-process caller that has imported numpy
keeps its threads). Their printed digits are the same with more threads. A
``MemoryError``, or an ``ImportError`` from importing numpy, exits 2 with one
``error: <command>: out of memory`` (or ``cannot import numpy``) line.
OpenBLAS's own allocator, which fails in C, ends the process with exit 1 and
its line ``OpenBLAS error: Memory allocation still failed ...``: the one
exit this module cannot shape once it runs. With too little address space
to import the package, Python's own traceback and exit 1 come before it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import importlib
import math
import os
import signal
import stat
import sys
from itertools import chain
from pathlib import Path

from . import config, figures, model
from .config import ConfigError, RunConfig, parse_run_config, run_config_dict

__all__ = ["main", "run_cardinal", "run_simulate", "run_verify"]

CSV_HEADER = (
    "t,n1,n2,n3,n4,n5,n6,n7,n8,"
    "dn1,dn2,dn3,dn4,dn5,dn6,dn7,dn8,s4,s2,norm2"
)

#: Norm-conservation breach that aborts a run with exit code 3.
RUNTIME_NORM_TOL = 1e-6

#: Most rows one block holds: the rows computed, checked and formatted with
#: one ``%`` at a time. A table of at most this many rows uses no helper process.
BLOCK_ROWS = 4096

_FIELDS = CSV_HEADER.split(",")
#: One table row: 17 significant digits in CSV; in JSON the shortest
#: round-trip repr, as ``json.dump`` writes a float (finite values only).
_CSV_ROW = ",".join(["%.17g"] * len(_FIELDS)) + "\n"
_JSON_ROW = "{\n" + ",\n".join(f'   "{name}": %r' for name in _FIELDS) + "\n  }"
_JSON_SEP = ",\n  "

_NON_FINITE = "error: the trajectory has non-finite values; aborting without output"


class _Breach(Exception):
    """A runtime invariant breach; its message is the line printed before exit 3."""


def _row_values(cfg: RunConfig):
    """``values(start, stop)``: rows start..stop-1 of ``cfg``'s table, flat, row i at i * dt.

    Each block is checked: every value finite, every norm2 within
    ``RUNTIME_NORM_TOL`` of 4/3. A block that fails raises :class:`_Breach`
    with the line to print: the non-finite line, or the drift line naming
    its largest drift. This check alone refuses a non-finite table: a huge
    but finite input that overflows H, its eigenpairs or M gives non-finite
    rows from the first block on.
    """
    row, dt = model.row_formula(cfg.params), cfg.dt

    def values(start: int, stop: int) -> tuple:
        try:
            block = tuple(chain.from_iterable([row(i * dt) for i in range(start, stop)]))
        except ValueError:  # math.cos/sin of an overflowed phase, where numpy gives nan
            raise _Breach(_NON_FINITE) from None
        # A sum of finite values can only overflow; then every value is looked at.
        if not math.isfinite(sum(block)) and not all(map(math.isfinite, block)):
            raise _Breach(_NON_FINITE)
        norm2 = block[len(_FIELDS) - 1::len(_FIELDS)]
        drift = max(max(norm2) - model.BLOCH_NORM_SQ, model.BLOCH_NORM_SQ - min(norm2))
        if drift > RUNTIME_NORM_TOL:
            raise _Breach(f"error: Bloch norm drifted by {drift:.3e}"
                          f" (tolerance {RUNTIME_NORM_TOL:g}); aborting without output")
        return block

    return values


def _format_block(block, row: str, sep: str) -> str:
    """``row % values`` for every row of a flat block of values, joined by ``sep``."""
    return sep.join([row] * (len(block) // len(_FIELDS))) % tuple(block)


class _Table:
    """A table as the writers take it: its blocks in order, each computed,
    checked and formatted when :meth:`write` reaches it, then dropped.

    ``values(start, stop)`` gives rows start..stop-1 as one flat sequence of
    floats; each row is written ``row % values`` and ``sep`` goes between
    rows. ``blocks`` holds the rows (start, stop) of each block: above
    ``BLOCK_ROWS`` rows an even number of near-equal blocks. :meth:`write`
    forks one helper that does the odd blocks and sends their text through a
    pipe; this process does the even ones and every one the helper does not
    deliver whole. ``table[i, j]`` reads or sets value j of row i; a value
    set becomes part of ``values``, after the check, so the helper forked
    from this table writes it too.
    """

    def __init__(self, rows: int, values, row: str, sep: str):
        count = 1 if rows <= BLOCK_ROWS else 2 * -(-rows // (2 * BLOCK_ROWS))
        self.blocks = [(rows * i // count, rows * (i + 1) // count) for i in range(count)]
        self.values, self.row, self.sep = values, row, sep

    def __getitem__(self, key) -> float:
        i, j = key
        if 0 <= i < self.blocks[-1][1] and 0 <= j < len(_FIELDS):
            return self.values(i, i + 1)[j]
        raise IndexError(f"no value ({i}, {j}) in this table")

    def __setitem__(self, key, value: float) -> None:
        self[key]  # an IndexError for a key outside the table
        (i, j), values = key, self.values

        def edited(start: int, stop: int):
            block = values(start, stop)
            if start <= i < stop:
                block = list(block)
                block[(i - start) * len(_FIELDS) + j] = value
            return block

        self.values = edited

    def copy(self) -> _Table:
        """A table whose set values are its own."""
        import copy

        return copy.copy(self)

    def _text(self, start: int, stop: int) -> str:
        return _format_block(self.values(start, stop), self.row, self.sep)

    def write(self, fh) -> None:
        """Write every block's text in order, each ``row % values`` per row, joined by ``sep``.

        Above one block, fork the helper first, unless there is no fork (none
        on the platform, or one the OS refuses); anything else the fork raises
        closes the pipe and propagates. Its exit status is not read: every
        block the pipe does not deliver whole is done here.
        """
        helper = None
        if len(self.blocks) > 1:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except BaseException as exc:
                os.close(rfd)
                os.close(wfd)
                if not isinstance(exc, (AttributeError, OSError)):
                    raise
            else:
                if pid == 0:
                    # The helper never returns into the caller. A block goes as
                    # an 8-byte length, then the text; a breach, like any
                    # failure, just ends the helper.
                    try:
                        os.close(rfd)
                        with open(wfd, "wb") as pipe:
                            for start, stop in self.blocks[1::2]:
                                data = self._text(start, stop).encode()
                                pipe.write(len(data).to_bytes(8, "big"))
                                pipe.write(data)
                                # Whole when done: not left in the buffer until the next block.
                                pipe.flush()
                    finally:
                        os._exit(0)
                os.close(wfd)
                helper = open(rfd, "rb")
        try:
            for k, (start, stop) in enumerate(self.blocks):
                if k:
                    fh.write(self.sep)
                text = None
                if helper is not None and k % 2:
                    head = helper.read(8)
                    if len(head) == 8:
                        data = helper.read(int.from_bytes(head, "big"))
                        if len(data) == int.from_bytes(head, "big"):
                            text = data.decode()
                fh.write(self._text(start, stop) if text is None else text)
        finally:
            if helper is not None:
                # Close before the wait: a helper blocked on a full pipe gets
                # EPIPE. With SIGCHLD ignored the kernel has reaped it already.
                helper.close()
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def _write_csv(path: Path, table: _Table) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        table.write(fh)


def _write_json(path: Path, cfg: RunConfig, table: _Table) -> None:
    """The layout of ``json.dump({"meta": ..., "rows": [{field: value}, ...]}, indent=1)``."""
    import json

    # json lays out the frame; the rows go where the one placeholder row sits.
    frame = json.dumps({"meta": run_config_dict(cfg), "rows": [None]}, indent=1)
    head, tail = frame.rsplit("null", 1)
    with open(path, "w", newline="\n") as fh:
        fh.write(head)
        table.write(fh)
        fh.write(tail + "\n")


def _output_paths(out: Path) -> tuple[Path, Path, int | None]:
    """The target of ``out``, the path to write before renaming onto it, and
    the permission bits of an existing regular target (None for a new one).

    For a regular target the temp file beside it is created here, so whatever
    the OS refuses (a missing or unwritable directory, an overlong name, a
    temp name taken by a directory) raises ``OSError`` before any work. An
    existing non-regular target is written in place through ``out`` as given
    (``realpath`` turns ``/dev/fd/63`` into an unopenable ``pipe:[N]``).
    """
    try:
        mode = os.stat(out).st_mode  # follows a symlink to its target
    except FileNotFoundError:
        mode = None  # an absent target is created like a regular file
    if mode is not None and not stat.S_ISREG(mode):
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        return out, out, None
    target = Path(os.path.realpath(out))
    tmp = Path(f"{target}.{os.getpid()}.tmp")
    open(tmp, "w").close()
    return target, tmp, None if mode is None else stat.S_IMODE(mode)


def run_simulate(cfg: RunConfig) -> int:
    """Run one trajectory and write it out; see module docstring for codes."""
    out = target = path = cfg.output_path
    rows = config.grid_rows(cfg.t_max, cfg.dt)
    row, sep = (_CSV_ROW, "") if cfg.output_format == "csv" else (_JSON_ROW, _JSON_SEP)
    try:
        # Refuse an output that cannot be created before any work is done.
        target, path, mode = _output_paths(out)
        # A regular target is written beside and renamed over, so a failed
        # write or a breach never leaves a partial file at the output path.
        table = _Table(rows, _row_values(cfg), row, sep)
        if cfg.output_format == "csv":
            _write_csv(path, table)
        else:
            _write_json(path, cfg, table)
        if path != target:
            if mode is not None:  # a replaced file keeps its permissions; set after
                os.chmod(path, mode)  # the writes, which a read-only mode would refuse
            os.replace(path, target)
    except _Breach as exc:
        print(exc, file=sys.stderr)
        return 3
    except (OSError, MemoryError) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) else exc.strerror or exc
        print(f"error: cannot write {config._echo(str(out))}: {reason}", file=sys.stderr)
        return 2
    finally:
        # No temp file is left after the rename, an exit 2 or an exit 3.
        if path != target:
            with contextlib.suppress(OSError):
                path.unlink()
    if not _is_stdout(out):  # --output /dev/stdout: the table is all that goes there
        print(f"wrote {rows} records to {out}")
    return 0


def _is_stdout(path: Path) -> bool:
    """Whether ``path`` is the file open as fd 1: the same device and inode."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _with_numpy(command: str, module: str, run, arg: str) -> int:
    """``run(arg)``'s exit code, with the numpy ``module`` it needs imported first.

    ``module`` is ``numpy``, or ``numpy.random``, which numpy loads only on
    first use, so that its import fails here. The thread rule and the exit-2
    line are the module docstring's; once numpy is imported, OpenBLAS has
    read its thread count, and the environment is left alone.
    """
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        try:
            importlib.import_module(module)
        except ImportError:
            reason = "cannot import numpy"
        else:
            return run(arg)
    except MemoryError:
        reason = "out of memory"
    print(f"error: {command}: {reason}", file=sys.stderr)
    return 2


def run_verify(scope: str = "all") -> int:
    """Run the named invariant suite(s); exit 0 only if every check passes."""
    return _with_numpy(f"verify {config._echo(scope)}", "numpy.random", _verify, scope)


def _verify(scope: str) -> int:
    from . import checks

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
    return _with_numpy(f"cardinal {config._echo(label)}", "numpy", _cardinal, label)


def _cardinal(label: str) -> int:
    from .states import bloch_from_amplitudes, cardinal_state

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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with a refused choice echoed through ``config._echo``.

    The usage and ``invalid choice`` lines are argparse's; only a long value
    is cut. Subparsers take this class too.
    """

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {config._echo(value)} (choose from {choices})")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    ver.add_argument("scope", nargs="?", default="all", choices=model.VERIFY_SCOPES)

    card = sub.add_parser("cardinal", help="print a cardinal state and its Bloch vector")
    card.add_argument("label", choices=model.CARDINAL_LABELS)
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


#: Signals whose default action would end a run before ``finally`` removes its temporary file.
_UNWIND_SIGNALS = [getattr(signal, n) for n in ("SIGTERM", "SIGHUP") if hasattr(signal, n)]


def _unwind(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # An ignored (nohup) or caller-set handler stays; a replaced one is restored.
    previous = {}
    for sig in _UNWIND_SIGNALS:
        if signal.getsignal(sig) is signal.SIG_DFL:
            try:
                previous[sig] = signal.signal(sig, _unwind)
            except ValueError:  # not the main thread
                break
    try:
        return _main(argv)
    except KeyboardInterrupt:  # SIGINT: the run's finally clauses have removed its temp file
        return 128 + signal.SIGINT
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _main(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    # Output files report their own write errors; what is left is stdout.
    try:
        code = _run(args)
        if sys.stdout is None:  # fd 1 was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write to standard output: {exc.strerror or exc}",
              file=sys.stderr)
        if sys.stdout is sys.__stdout__ is not None:
            # What is still buffered would fail again at the interpreter's exit flush.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
