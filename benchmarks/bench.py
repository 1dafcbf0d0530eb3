#!/usr/bin/env python3
"""Benchmark of the qutrit-bloch command line, end to end and layer by layer.

Run it from the repository root; it imports the package from ``src/`` and
refuses to run against any other copy:

    python3 benchmarks/bench.py --workload figures --seed 1 --seconds 60 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1 --seconds 20

Workloads, both closed loop with one client and no threads (BENCHMARK.json
says why each exists):

    figures   one bundled figure reproduced in both output formats per op: a
              ``python -m qutrit_bloch.cli simulate --figure figNx``
              subprocess writing CSV, then one with ``--format json``,
              cycling over the 12 figures in a seeded order
    verify    one ``python -m qutrit_bloch.cli verify all`` subprocess per op

A pass is one cycle over the figures or one ``verify``. Every op's output is
checked; a failed check counts the op as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the same ops in-process (through ``cli.main``), each once untraced and
once with spans around every layer function, and reports the per-layer
metrics: self times and counts per traced op, and the tracing overhead.
``--workload all`` runs every workload both ways. Each metric is printed on
its own line with its unit; the line before the last holds provenance and
details; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Figure outputs are checked against ``reference.json``: for each bundled
figure, ``sketch()`` of the table that ``simulate --figure <name>`` wrote as
CSV at commit 226ec8a, the code this benchmark was defined on. It is data, not
output of the code under test: no mode of this script rewrites it.

Every run works in its own directory under ``.bench_tmp/`` of the checkout and
removes it on exit, so runs may overlap.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "qutrit_bloch"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"
TMP_ROOT = ROOT / ".bench_tmp"

WORKLOADS = ("figures", "verify")
FORMATS = ("csv", "json")

#: Output schema of ``simulate`` (README); JSON rows are read in this order.
FIELDS = (
    "t,n1,n2,n3,n4,n5,n6,n7,n8,dn1,dn2,dn3,dn4,dn5,dn6,dn7,dn8,s4,s2,norm2"
).split(",")

#: Repetitions in a traced run of the import timings (fresh interpreters)
#: and of the uncached table derivation; medians are reported.
SETUP_REPS = 7

#: Repetitions of the host-speed calibration timed before each run.
CALIBRATION_REPS = 5

#: A run that has not finished this long after its measuring time kills its
#: child and exits nonzero. The margin covers set-up (fresh interpreters) and
#: the op, or traced op pair, that is running when the measuring time ends,
#: and keeps a run of BENCHMARK.json's length within 180 s.
WATCHDOG_MARGIN_S = 100

#: Figure tables are checked by a random projection (sketch) instead of a
#: cryptographic hash: SIMD dispatch in numpy and the OpenBLAS kernel choice
#: change the last bits of the trajectories from one CPU to the next, which
#: would flip a hash while the sketch moves by ~1e-12 of the column scale.
SKETCH_SEED = 20241125
SKETCH_PROJECTIONS = 8
SKETCH_TOL = 1e-9

SETUP_CODE = "import qutrit_bloch; qutrit_bloch.structure_constants()"
IMPORT_TIMES_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter();"
    " import qutrit_bloch; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


class WatchdogExpired(BaseException):
    """The run overran its watchdog. A BaseException, so the per-op guard lets it through."""


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Op:
    kind: str  # "figure" or "verify"
    figure: str = ""


@dataclass(frozen=True)
class OpResult:
    seconds: float
    ok: bool
    points: int
    rss_mb: float = 0.0


def figure_passes(rng: np.random.Generator, figures: list[str]):
    """One seeded order of the figures, repeated, so a run weights every figure alike."""
    cycle = [Op("figure", figure=str(name)) for name in rng.permutation(figures)]
    while True:
        yield cycle


def verify_passes():
    while True:
        yield [Op("verify")]


def make_passes(workload: str, seed: int, reference: dict):
    if workload == "figures":
        return figure_passes(np.random.default_rng(seed), sorted(reference))
    return verify_passes()


# ----------------------------------------------------------- correctness


@functools.lru_cache(maxsize=4)
def _sketch_weights(rows: int) -> np.ndarray:
    return np.random.default_rng(SKETCH_SEED).standard_normal((SKETCH_PROJECTIONS, rows))


def sketch(table: np.ndarray) -> dict:
    return {
        "shape": list(table.shape),
        "sketch": (_sketch_weights(table.shape[0]) @ table).tolist(),
        "scale": np.maximum(np.abs(table).max(axis=0), 1.0).tolist(),
    }


def matches_reference(table: np.ndarray, ref: dict) -> bool:
    """True when the table equals the recorded one up to rounding noise."""
    if list(table.shape) != ref["shape"]:
        return False
    dev = np.abs(np.array(sketch(table)["sketch"]) - np.array(ref["sketch"]))
    return bool((dev <= SKETCH_TOL * np.array(ref["scale"])).all())


def read_table(path: Path, fmt: str) -> np.ndarray:
    """Parse a ``simulate`` output file into a float64 table, ignoring layout."""
    text = path.read_text()
    if fmt == "csv":
        header, _, body = text.partition("\n")
        if header.split(",") != FIELDS:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [line.split(",") for line in body.splitlines()]
    else:
        rows = [[row[key] for key in FIELDS] for row in json.loads(text)["rows"]]
    return np.array(rows, dtype=np.float64)


def figure_ok(path: Path, fmt: str, ref: dict) -> bool:
    try:
        return matches_reference(read_table(path, fmt), ref)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def check_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]


def verify_ok(exit_code: int, text: str) -> bool:
    """Exit 0 and every printed check line is PASS."""
    checks = check_lines(text)
    return exit_code == 0 and bool(checks) and all(line.startswith("PASS ") for line in checks)


def checked(op: Op, out: Path | None, code: int, text: str, reference: dict) -> tuple[bool, int]:
    """(passed, points) of one CLI invocation; the file it wrote is deleted.

    ``verify`` counts the check lines it printed as its points, ``simulate``
    the rows of its table.
    """
    if out is None:
        return verify_ok(code, text), len(check_lines(text))
    ref = reference[op.figure]
    ok = code == 0 and figure_ok(out, out.suffix[1:], ref)
    out.unlink(missing_ok=True)
    return ok, ref["shape"][0]


# -------------------------------------------------------------- running ops


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(args: list[str], cwd: Path) -> tuple[float, int, float, str]:
    """Run ``python args`` to completion: (wall s, exit code, peak RSS MB, output)."""
    log = cwd / "child.log"
    with open(log, "w") as out:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=child_env(),
            stdout=out, stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = log.read_text()
    log.unlink()
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0, text


def commands(op: Op, tmp: Path) -> list[tuple[list[str], Path | None]]:
    """The CLI invocations of one op, each with the file it writes."""
    if op.kind == "verify":
        return [(["verify", "all"], None)]
    out = []
    for fmt in FORMATS:
        path = tmp / f"{op.figure}.{fmt}"
        args = ["simulate", "--figure", op.figure, "--output", str(path)]
        # CSV is the default format: the README's reproduction command.
        out.append((args + (["--format", fmt] if fmt != "csv" else []), path))
    return out


def cli_child(args: list[str], tmp: Path) -> tuple[float, int, float, str]:
    """One CLI invocation as a subprocess: (wall s, exit code, peak RSS MB, output)."""
    return run_child(["-m", "qutrit_bloch.cli", *args], tmp)


def cli_inprocess(args: list[str], tmp: Path) -> tuple[float, int, float, str]:
    """One CLI invocation through ``cli.main`` in this process; RSS is not measured."""
    cli = sys.modules["qutrit_bloch.cli"]
    buffer = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return perf_counter() - start, code, 0.0, buffer.getvalue()


def run_op(invoke, op: Op, tmp: Path, reference: dict) -> OpResult:
    """Run an op's invocations through ``invoke``; check every output, time only the CLI."""
    result = OpResult(0.0, True, 0)
    for args, out in commands(op, tmp):
        seconds, code, rss_mb, text = invoke(args, tmp)
        ok, points = checked(op, out, code, text, reference)
        result = OpResult(result.seconds + seconds, result.ok and ok,
                          result.points + points, max(result.rss_mb, rss_mb))
    return result


def guarded(run, *args) -> OpResult:
    """Run one op; an exception counts the op as failed instead of ending the run."""
    start = perf_counter()
    try:
        return run(*args)
    except Exception:  # noqa: BLE001 - the benchmark reports the failure and goes on
        traceback.print_exc(file=sys.stderr)
        return OpResult(perf_counter() - start, False, 0)


# ------------------------------------------------------------------ tracing


def _count_propagate(counts, args, kwargs, result):
    counts["dynamics.propagate_exact_points"] += result.shape[0]
    # Least traffic any implementation needs: read the grid, write the amplitudes.
    counts["dynamics.propagate_exact_bytes"] += result.shape[0] * 8 + result.nbytes


def _count_rk4(counts, args, kwargs, result):
    dt = kwargs["dt"] if "dt" in kwargs else args[2]
    counts["dynamics.rk4_steps"] += int(np.rint(np.diff(result.times) / dt).sum())


def _count_written(counts, args, kwargs, result):
    counts["cli.bytes_written"] += os.path.getsize(kwargs.get("path", args[0]))


def _count_checks(counts, args, kwargs, result):
    counts["checks.results"] += len(result.results)
    counts["checks.failed"] += sum(not r.passed for r in result.results)


#: Layer functions wrapped in traced runs, with a hook that adds counters.
LAYER_FUNCTIONS = {
    "su3.gellmann_coefficients": None,
    "su3.derive_structure_constants": None,
    "states.state_from_angles": None,
    "states.bloch_geometric": None,
    "states.bloch_from_amplitudes": None,
    "states.bloch_from_density": None,
    "states.density_from_state": None,
    "states.density_from_bloch": None,
    "states.purity": None,
    "states.validate_pure_state": None,
    "dynamics.bloch_trajectory": None,
    "dynamics.propagate_exact": _count_propagate,
    "dynamics.adjoint_generator": None,
    "dynamics._sector_norms": None,
    "dynamics.integrate_bloch_ode": _count_rk4,
    "dynamics.sector_initial_norms": None,
    "dynamics.lambda_closed_form": None,
    "dynamics.rotating_hamiltonian": None,
    "config.parse_run_config": None,
    "figures.load_figure": None,
    "figures.figure_config_text": None,
    "figures.parameter_sets": None,
    "cli.main": None,
    "cli.run_simulate": None,
    "cli.run_verify": None,
    "cli.simulation_grid": None,
    "cli._records": None,
    "cli._write_csv": _count_written,
    "cli._write_json": _count_written,
    "checks.run_suites": _count_checks,
    "checks.algebra_suite": None,
    "checks.state_suite": None,
    "checks.dynamics_suite": None,
}


class Tracer:
    """Spans around the layer functions of one package.

    Each function is replaced in every module of the package that binds it,
    as a module attribute or as a value of a module-level dict, and put back
    by ``restore``. Functions missing from the package are listed in
    ``absent``. Spans are (name, start, end, parent span, op id); ``end_op``
    folds one op's spans into per-name self times and drops them.
    """

    def __init__(self, package: str):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = 0
        self.counts: Counter = Counter()
        self.hook_errors: dict[str, str] = {}
        self.absent: list[str] = []
        self._patches = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for qualname, hook in LAYER_FUNCTIONS.items():
            module_name, _, attr = qualname.partition(".")
            original = getattr(sys.modules.get(f"{package}.{module_name}"), attr, None)
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, original, hook)
            for module in modules:
                namespaces = [vars(module)] + [
                    v for k, v in vars(module).items() if type(v) is dict and not k.startswith("__")
                ]
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            self._patches.append((ns, key, original, wrapper))

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            self.counts[name + "#calls"] += 1
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - a changed signature must not stop the run
                    self.hook_errors[name] = repr(exc)
            return result

        return wrapper

    def install(self) -> None:
        for ns, key, _, wrapper in self._patches:
            ns[key] = wrapper

    def restore(self) -> None:
        for ns, key, original, _ in reversed(self._patches):
            ns[key] = original

    def end_op(self) -> dict:
        """Self and inclusive time per span name, and the counters, of one op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, incl_s = Counter(), Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[index]
            incl_s[name] += end - start
        record = {"self": self_s, "incl": incl_s, "counts": self.counts.copy(),
                  "spans": len(self.spans)}
        self.spans.clear()
        self.counts.clear()
        self.op_id += 1
        return record


#: Per-layer time metrics: the summed self time of these spans.
SELF_TIME_METRICS = {
    "cli.write_csv_s": ["cli._write_csv"],
    "cli.write_json_s": ["cli._write_json"],
    "cli.records_s": ["cli._records"],
    "cli.simulation_grid_s": ["cli.simulation_grid"],
    "dynamics.integrate_bloch_ode_s": ["dynamics.integrate_bloch_ode"],
    "checks.algebra_suite_s": ["checks.algebra_suite"],
    "checks.state_suite_s": ["checks.state_suite"],
    "checks.dynamics_suite_s": ["checks.dynamics_suite"],
    "dynamics.propagate_exact_s": ["dynamics.propagate_exact"],
    "states.bloch_from_amplitudes_s": ["states.bloch_from_amplitudes"],
    "dynamics.sector_norms_s": ["dynamics._sector_norms"],
    "dynamics.bloch_trajectory_self_s": ["dynamics.bloch_trajectory"],
    "dynamics.adjoint_generator_s": ["dynamics.adjoint_generator"],
    "su3.gellmann_coefficients_s": ["su3.gellmann_coefficients"],
    "config.parse_run_config_s": ["config.parse_run_config"],
    # The CLI reads a bundled figure through figure_config_text; verify
    # through load_figure. Both are the figure-loading layer.
    "figures.load_figure_s": ["figures.load_figure", "figures.figure_config_text"],
    "states.self_s": [q for q in LAYER_FUNCTIONS if q.startswith("states.")],
}

#: Per-layer counters: the summed counter of this name. The hooks add under
#: the metric's own name; the wrapper counts calls under "<function>#calls".
COUNT_METRICS = {
    "dynamics.rk4_steps": "dynamics.rk4_steps",
    "checks.results": "checks.results",
    "checks.failed": "checks.failed",
    "cli.bytes_written": "cli.bytes_written",
    "dynamics.propagate_exact_points": "dynamics.propagate_exact_points",
    "dynamics.propagate_exact_bytes": "dynamics.propagate_exact_bytes",
    "states.state_from_angles_calls": "states.state_from_angles#calls",
    "states.bloch_geometric_calls": "states.bloch_geometric#calls",
    "dynamics.adjoint_generator_calls": "dynamics.adjoint_generator#calls",
}


# ------------------------------------------------------------- measurement


def fresh_interpreter(code: str, cwd: Path) -> tuple[float, str]:
    """(wall s, output) of ``python -c code`` in a fresh interpreter."""
    seconds, exit_code, _, text = run_child(["-c", code], cwd)
    if exit_code != 0:
        raise BenchError(f"importing qutrit_bloch failed:\n{text}")
    return seconds, text


def host_calibration() -> dict:
    """Median times of a fixed pure-Python loop and a fixed numpy kernel.

    They depend on the host alone, never on the code under test, so a shift in
    them between runs tells a change in host speed from a change in the code.
    """
    data = np.random.default_rng(0).standard_normal((256, 256))
    python_s, numpy_s = [], []
    for _ in range(CALIBRATION_REPS):
        start = perf_counter()
        sum(i * i for i in range(100_000))
        python_s.append(perf_counter() - start)
        start = perf_counter()
        np.sin(data @ data).sum()
        numpy_s.append(perf_counter() - start)
    return {"python": statistics.median(python_s), "numpy": statistics.median(numpy_s)}


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the host since boot; (0, 0) where unknown."""
    fields = _read("/proc/stat").partition("\n")[0].split()[1:]
    ticks = [int(x) for x in fields if x.isdigit()]
    return (ticks[7], sum(ticks[:8])) if len(ticks) >= 8 else (0, 0)


def measure_imports(work: Path) -> tuple[float, float]:
    """Median import time of numpy, then of qutrit_bloch on top, in fresh interpreters."""
    pairs = [fresh_interpreter(IMPORT_TIMES_CODE, work)[1].split() for _ in range(SETUP_REPS)]
    return (statistics.median(float(a) for a, _ in pairs),
            statistics.median(float(b) for _, b in pairs))


def timed_loop(passes, run, seconds: float, work: Path) -> list[OpResult]:
    """Run ops, pass after pass, until ``seconds`` have elapsed; the first op always runs.

    Each pass works in its own temp dir.
    """
    deadline = perf_counter() + seconds
    done = []
    while perf_counter() < deadline:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            for op in next(passes):
                if done and perf_counter() >= deadline:
                    break
                done.append(run(op, Path(tmp)))
    return done


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    Below 20 samples that percentile would lie under the median; the median
    is reported instead.
    """
    n = len(values)
    if n < 20:
        return statistics.median(values), 50.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def end_to_end_metrics(ops: list[OpResult], pass_ops: int, setup_s: float) -> tuple[dict, dict]:
    """Metrics of one untraced run of ``pass_ops`` ops per pass.

    The rates and the pass time are taken over the run's whole busy time
    rather than as medians of single passes: the host's speed drifts in
    phases of tens of seconds, and a median over passes jumps from one phase
    to the other where a mean moves with the share of each.
    """
    times = [r.seconds for r in ops]
    busy = sum(times)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": setup_s,
        "wall_s": busy * pass_ops / len(ops),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(ops) / busy,
        "points_per_s": sum(r.points for r in ops) / busy,
        "peak_rss_mb": max(r.rss_mb for r in ops),
    }
    detail = {"ops": len(ops), "passes": len(ops) / pass_ops, "op_tail_percentile": tail_pct,
              "op_tail_n": len(times)}
    return metrics, detail


def run_untraced(workload: str, seed: int, seconds: float, reference: dict,
                 work: Path) -> tuple[dict, dict, list]:
    setup_times = []

    def run(op: Op, tmp: Path) -> OpResult:
        # Set-up is timed before every op, not once before the loop, so that
        # its median samples the same stretch of host time as the ops do.
        setup_times.append(fresh_interpreter(SETUP_CODE, tmp)[0])
        return guarded(run_op, cli_child, op, tmp, reference)

    pass_ops = len(next(make_passes(workload, seed, reference)))
    ops = timed_loop(make_passes(workload, seed, reference), run, seconds, work)
    metrics, detail = end_to_end_metrics(ops, pass_ops, statistics.median(setup_times))
    detail["setup_n"] = len(setup_times)
    return metrics, detail, ops


def time_uncached_tables(qb) -> float:
    """Median time to derive the structure constants without the cache; 0 if absent."""
    su3 = sys.modules[f"{qb.__name__}.su3"]
    if not hasattr(su3, "derive_structure_constants") or not hasattr(su3, "gellmann_basis"):
        return 0.0
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        su3.derive_structure_constants(su3.gellmann_basis())
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_traced(workload: str, seed: int, seconds: float, qb, reference: dict,
               work: Path) -> tuple[dict, dict, list]:
    import_numpy_s, import_package_s = measure_imports(work)
    derive_s = time_uncached_tables(qb)
    passes = make_passes(workload, seed, reference)
    first = next(passes)
    run_op(cli_inprocess, first[0], work, reference)  # warm caches and lazy imports
    tracer = Tracer(qb.__name__)
    records, overhead, results = [], [], []

    def pair(op: Op, tmp: Path) -> OpResult:
        timings = {}
        for traced in ((False, True) if len(overhead) % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    result = guarded(run_op, cli_inprocess, op, tmp, reference)
                finally:
                    tracer.restore()
                records.append(tracer.end_op())
            else:
                result = guarded(run_op, cli_inprocess, op, tmp, reference)
            results.append(result)
            timings[traced] = result.seconds
        overhead.append(timings[True] - timings[False])
        return result

    def replay():
        yield first
        yield from passes

    timed_loop(replay(), pair, seconds, work)

    n = len(records)
    self_s = Counter()
    incl_s = Counter()
    counts = Counter()
    for record in records:
        self_s.update(record["self"])
        incl_s.update(record["incl"])
        counts.update(record["counts"])
    metrics = {}
    for name, spans in SELF_TIME_METRICS.items():
        metrics[name] = sum(self_s[s] for s in spans) / n
    for name, key in COUNT_METRICS.items():
        metrics[name] = counts[key] / n
    write_s = self_s["cli._write_csv"] + self_s["cli._write_json"]
    metrics["cli.write_mb_per_s"] = counts["cli.bytes_written"] / 1e6 / write_s if write_s else 0.0
    rk4_s = incl_s["dynamics.integrate_bloch_ode"]
    metrics["dynamics.rk4_steps_per_s"] = counts["dynamics.rk4_steps"] / rk4_s if rk4_s else 0.0
    metrics["su3.derive_structure_constants_s"] = derive_s
    metrics["setup.import_numpy_s"] = import_numpy_s
    metrics["setup.import_qutrit_bloch_s"] = import_package_s
    metrics["trace.overhead_s"] = statistics.median(overhead)
    failed = sum(not r.ok for r in results)
    metrics["failed_ratio"] = failed / len(results)

    detail = {
        "traced_ops": n,
        "spans_per_op": sum(r["spans"] for r in records) / n,
        "trace_overhead_ratio": metrics["trace.overhead_s"]
        / statistics.median(r.seconds for r in results),
        "absent_layers": tracer.absent,
        "hook_errors": tracer.hook_errors,
        "self_s_per_op": {k: v / n for k, v in self_s.most_common()},
    }
    return metrics, detail, results


# ------------------------------------------------------------- provenance


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def provenance(seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}"] = _read(f"{index}/size")
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


# ------------------------------------------------------------------- main


def import_package():
    """Import qutrit_bloch from this checkout's src/, never from elsewhere."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise BenchError(f"no package source at {PACKAGE_DIR}")
    sys.path.insert(0, str(SRC))
    import qutrit_bloch

    if Path(qutrit_bloch.__file__).resolve().parent != PACKAGE_DIR:
        raise BenchError(f"imported qutrit_bloch from {qutrit_bloch.__file__}, not {PACKAGE_DIR}")
    import qutrit_bloch.cli  # noqa: F401 - bound for the tracer and the in-process ops

    return qutrit_bloch


def load_spec() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}") from None


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCE_PATH}: {exc}") from None


def run_one(workload: str, seed: int, seconds: float, trace: bool, qb, reference: dict,
            spec: dict, work: Path) -> dict:
    """One run: every metric of BENCHMARK.json for the mode, checked and labelled."""
    calibration = host_calibration()
    steal_start, total_start = cpu_ticks()
    if trace:
        metrics, detail, results = run_traced(workload, seed, seconds, qb, reference, work)
    else:
        metrics, detail, results = run_untraced(workload, seed, seconds, reference, work)
    steal_end, total_end = cpu_ticks()
    # CPU time the hypervisor gave to other guests: a host-side cause of noise.
    steal = (steal_end - steal_start) / max(total_end - total_start, 1)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    failed = sum(not r.ok for r in results)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": declared[name]}
                    for name in declared},
        "detail": {"workload": workload, "trace": int(trace), "host_calibration_s": calibration,
                   "cpu_steal_share": steal, **detail},
    }


def print_run(result: dict) -> None:
    workload, trace = result["detail"]["workload"], result["detail"]["trace"]
    for name, m in result["metrics"].items():
        print(f"{workload:<13} trace={trace} {name:<36} {m['value']:>16.6g} {m['unit']}")


def _watchdog(signum, frame):
    raise WatchdogExpired("benchmark run exceeded its measuring time by "
                          f"{WATCHDOG_MARGIN_S} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced in-process ops (ignored with 'all')")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work = None
    try:
        spec = load_spec()
        qb = import_package()
        reference = load_reference()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        modes = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all"
                 else [(args.workload, bool(args.trace))])
        prov = provenance(args.seed)
        TMP_ROOT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
        signal.signal(signal.SIGALRM, _watchdog)
        runs = []
        for workload, trace in modes:
            signal.alarm(math.ceil(seconds) + WATCHDOG_MARGIN_S)
            runs.append(run_one(workload, args.seed, seconds, trace, qb, reference, spec, work))
            signal.alarm(0)
            print_run(runs[-1])
    except (BenchError, WatchdogExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):  # another run still uses it
                TMP_ROOT.rmdir()
    print(json.dumps({"provenance": prov, "runs": [r["detail"] for r in runs]}))
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['detail']['workload']}/{name}": m
                   for r in runs for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
