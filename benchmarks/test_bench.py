"""Tests of the benchmark itself: ``pytest benchmarks``.

They are outside the package's test suite (``testpaths = tests``), so they
never change its pass/fail set.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench

SPEC = json.loads(bench.SPEC_PATH.read_text())


@pytest.fixture(scope="module")
def qb():
    return bench.import_package()


@pytest.fixture(scope="module")
def reference():
    return bench.load_reference()


def simulate(qb, path, fmt):
    with contextlib.redirect_stdout(io.StringIO()):
        code = qb.cli.main(["simulate", "--figure", "fig1a", "--format", fmt, "--output", str(path)])
    assert code == 0


def test_smoke_all_workloads_print_every_metric_with_unit():
    before = sorted(p.name for p in bench.ROOT.iterdir())
    other_run = bench.TMP_ROOT / "run-overlapping"
    other_run.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(bench.HERE / "bench.py"), "--workload", "all",
             "--seed", "7", "--seconds", "0.2"],
            cwd=bench.ROOT, capture_output=True, text=True, timeout=600,
        )
        assert other_run.is_dir(), "a run removed another run's directory"
    finally:
        shutil.rmtree(other_run, ignore_errors=True)
        if not any(bench.TMP_ROOT.iterdir()):
            bench.TMP_ROOT.rmdir()
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in bench.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for metric in SPEC[kind]:
                prefix = f"{workload:<13} trace={trace} {metric['name']:<36} "
                printed = [line for line in lines if line.startswith(prefix)]
                assert len(printed) == 1, prefix
                assert printed[0].endswith(" " + metric["unit"])
                value = result["metrics"][f"{workload}/{metric['name']}"]
                assert value["unit"] == metric["unit"]
                if kind == "end_to_end":
                    assert value["value"] > 0, (workload, metric["name"])
        assert result["metrics"][f"{workload}/failed_ratio"]["value"] == 0
    assert sorted(p.name for p in bench.ROOT.iterdir()) == before


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reference_accepts_seed_output_and_rejects_altered(qb, reference, tmp_path, fmt):
    path = tmp_path / f"fig1a.{fmt}"
    simulate(qb, path, fmt)
    assert bench.figure_ok(path, fmt, reference["fig1a"])

    if fmt == "csv":
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[5000].split(",")
        fields[3] = repr(float(fields[3]) * (1 + 1e-6))
        lines[5000] = ",".join(fields)
        path.write_text("".join(lines))
    else:
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(doc))  # layout alone does not matter
        assert bench.figure_ok(path, fmt, reference["fig1a"])
        doc["rows"][5000]["n3"] *= 1 + 1e-6
        path.write_text(json.dumps(doc))
    assert not bench.figure_ok(path, fmt, reference["fig1a"])


@pytest.mark.parametrize("fmt", bench.FORMATS)
def test_altered_program_output_counts_op_as_failed(qb, reference, tmp_path, monkeypatch, fmt):
    op = bench.Op("figure", figure="fig2b")
    result = bench.run_op(bench.cli_inprocess, op, tmp_path, reference)
    assert result.ok and result.points == 2 * reference["fig2b"]["shape"][0]
    assert not any(tmp_path.iterdir())

    writer = getattr(qb.cli, f"_write_{fmt}")

    def altered(*args):  # the table is the writers' last argument
        table = args[-1].copy()
        table[7, 4] += 1e-7
        writer(*args[:-1], table)

    # Only one of the op's two outputs is altered; the op must still fail.
    monkeypatch.setattr(qb.cli, f"_write_{fmt}", altered)
    assert not bench.run_op(bench.cli_inprocess, op, tmp_path, reference).ok


def test_verify_check_needs_exit_zero_and_only_pass_lines():
    assert bench.verify_ok(0, "PASS a (x)\nINFO note\nPASS b (y)\n2/2 checks passed\n")
    assert not bench.verify_ok(0, "PASS a (x)\nFAIL b (y)\n1/2 checks passed\n")
    assert not bench.verify_ok(1, "PASS a (x)\n1/1 checks passed\n")
    assert not bench.verify_ok(0, "")
    op = bench.Op("verify")
    assert bench.checked(op, None, 0, "PASS a (x)\nINFO note\nPASS b (y)\n", {}) == (True, 2)


def test_tracer_reports_missing_layer_and_restores(qb, monkeypatch):
    monkeypatch.delattr(qb.cli, "_write_json")
    original = qb.bloch_trajectory
    tracer = bench.Tracer(qb.__name__)
    assert "cli._write_json" in tracer.absent
    tracer.install()
    try:
        assert qb.bloch_trajectory is not original
        assert qb.dynamics.bloch_trajectory is qb.bloch_trajectory
        qb.bloch_trajectory(qb.SimParams(qb.Configuration.XI, 0.2, 0.3, 1.0), np.arange(50) * 0.1)
    finally:
        tracer.restore()
    assert qb.bloch_trajectory is original
    record = tracer.end_op()
    assert record["counts"]["dynamics.propagate_exact_points"] == 50
    assert record["self"]["dynamics.propagate_exact"] > 0
