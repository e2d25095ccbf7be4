"""Tests of the benchmark itself: the correctness gate trips on corrupted
outputs, traced counts repeat exactly and follow the code's structure, and
the benchmark refuses to run without the package sources.

Run from the repository root: python3 -m pytest -q bench
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run

ENV = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))

PURE_ARGS = ("sweep", "--mode", "pure", "--n", "0.01:100:20", "--alpha-sq", "0.05:0.95:10")
WERNER_ARGS = ("sweep", "--mode", "werner", "--n", "0.1:10:10", "--p", "0:1:50")
# (name, CLI args, format, sweep mode or None for verify, grid points)
OUTPUTS = (
    ("pure-csv", PURE_ARGS, "csv", "pure", 200),
    ("werner-json", WERNER_ARGS, "json", "werner", 500),
    ("verify-json", ("verify",), "json", None, 210),
)


def _cli(args, fmt: str, output: Path, tracer_spans: Path | None = None) -> int:
    command = [*args, "--format", fmt, "--output", str(output)]
    if tracer_spans is None:
        prefix = ["-c", run.CLI_ENTRY]
    else:
        prefix = [str(run.TRACER), str(tracer_spans), "0"]
    return subprocess.run([sys.executable, *prefix, *command], env=ENV, timeout=120).returncode


def _check(path: Path, fmt: str, mode: str | None, points: int) -> list[str]:
    if mode is None:
        return gate.check_verify(str(path), fmt, 0)
    return gate.check_sweep(str(path), fmt, mode, points)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Path]:
    directory = tmp_path_factory.mktemp("outputs")
    paths = {}
    for name, args, fmt, _, _ in OUTPUTS:
        paths[name] = directory / f"{name}.{fmt}"
        assert _cli(args, fmt, paths[name]) == 0
    return paths


def _rewrite(source: Path, target: Path, fmt: str, edit) -> None:
    """Apply `edit` to the list of rows (dicts of strings or JSON values) and write it back."""
    if fmt == "csv":
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        comments = [line for line in lines if line.startswith("#")]
        reader = csv.DictReader(line for line in lines if not line.startswith("#"))
        rows = list(reader)
        edit(rows)
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(comments)
            writer = csv.DictWriter(handle, reader.fieldnames, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    else:
        document = json.loads(source.read_text(encoding="utf-8"))
        edit(document["rows"])
        target.write_text(json.dumps(document), encoding="utf-8")


def _scale_one_oracle(rows: list) -> None:
    row = next(r for r in rows if r["bob"] == "Zero" and float(r["oracle_concurrence"]) > 0.1)
    value = float(row["oracle_concurrence"]) * 0.9
    row["oracle_concurrence"] = repr(value) if isinstance(row["oracle_concurrence"], str) else value


def _drop_one_row(rows: list) -> None:
    del rows[len(rows) // 2]


@pytest.mark.parametrize("name,args,fmt,mode,points", OUTPUTS)
def test_gate_accepts_seed_output(outputs, name, args, fmt, mode, points):
    assert _check(outputs[name], fmt, mode, points) == []


@pytest.mark.parametrize("mutation", [_scale_one_oracle, _drop_one_row])
@pytest.mark.parametrize("name,args,fmt,mode,points", OUTPUTS)
def test_gate_rejects_mutated_output(outputs, tmp_path, name, args, fmt, mode, points, mutation):
    mutated = tmp_path / f"mutated.{fmt}"
    _rewrite(outputs[name], mutated, fmt, mutation)
    assert _check(mutated, fmt, mode, points) != []


def test_gate_command_prints_problems_as_json(outputs):
    gate_py = str(run.GATE)
    verify = str(outputs["verify-json"])
    accepted = subprocess.run(
        [sys.executable, gate_py, verify, "json", "verify", "210", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert (accepted.returncode, json.loads(accepted.stdout)) == (0, [])
    rejected = subprocess.run(
        [sys.executable, gate_py, verify, "json", "verify", "210", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert json.loads(rejected.stdout) != []


def test_gate_rejects_failing_verify_exit_code(outputs):
    assert gate.check_verify(str(outputs["verify-json"]), "json", 1) != []


@pytest.mark.parametrize("name,args,fmt,mode,points", OUTPUTS[:2])
def test_traced_counts_repeat_and_follow_structure(tmp_path, name, args, fmt, mode, points):
    exact = [m for m, unit in run.layer_units().items() if unit in run.EXACT_UNITS]
    counts = []
    for i in range(2):
        spans = tmp_path / f"spans-{i}.npz"
        output = tmp_path / f"out-{i}.{fmt}"
        assert _cli(args, fmt, output, tracer_spans=spans) == 0
        assert _check(output, fmt, mode, points) == []
        layer = run.layer_metrics(spans, output)
        counts.append({m: layer[m] for m in exact})
    assert counts[0] == counts[1]

    first = counts[0]
    assert first["analysis.rows"] == 8 * points
    if mode == "pure":
        assert first["states.basis.calls"] == 5 * points  # 1 bell_basis + 4 computational_basis
        assert first["concurrence.pure.calls"] == 8 * points
        assert first["protocol.branch_map.calls"] == 0
    else:
        assert first["protocol.branch_map.calls"] == 8 * points
        assert first["states.measure.calls"] == 0
        # p = 1 is the only pure Werner input: all 8 branches of its points take the shortcut.
        assert first["concurrence.pure.calls"] == 8 * 10
        assert first["concurrence.mixed.shortcut_frac"] == 1.0


def test_seed_zero_gives_documented_grids():
    assert run.make_workload("pure-sweep-csv", 0).cli_args == (
        "sweep", "--mode", "pure", "--n", "0.01:100.0:1000", "--alpha-sq", "0.05:0.95:10",
        "--format", "csv",
    )
    assert run.make_workload("werner-sweep-json", 0).cli_args == (
        "sweep", "--mode", "werner", "--n", "0.1:10.0:10", "--p", "0.0:1.0:500", "--format", "json",
    )
    assert run.make_workload("pure-sweep-csv", 5) == run.make_workload("pure-sweep-csv", 5)
    assert run.make_workload("pure-sweep-csv", 5) != run.make_workload("pure-sweep-csv", 6)


def test_refuses_to_run_without_sources(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=ignore)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
