"""Command-line surface: subcommands, output formats, exit codes."""
import csv
import errno
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import wteleport.analysis
import wteleport.cli
import wteleport.concurrence
import wteleport.protocol
from wteleport import (
    BellOutcome,
    BobOutcome,
    DensityMatrix,
    InvalidInput,
    NumericalFailure,
    StateVector,
    computational_basis,
    quartic,
    run_protocol_mixed,
    run_protocol_pure,
    sweep,
)
from wteleport.cli import (
    RUN_COLUMNS,
    SWEEP_CSV_COLUMNS,
    Report,
    _csv_chunks,
    _Labels,
    _parse_values,
    _PostState,
    _row_cells,
    _sweep_block,
    _TABLE_COLUMNS,
    _texts,
    main,
)
from wteleport.protocol import BRANCH_ORDER

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class FullStream(io.StringIO):
    """A stream on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# Runs that fail before they write a byte: a usage error, and a sweep whose
# 2 + 2n overflows in its first block.
USAGE_ERROR = ("run", "--mode", "pure", "--n", "2", "--format", "csv")
FIRST_BLOCK_OVERFLOW = (
    "sweep", "--mode", "pure", "--n", "8e307:1.7e308:100", "--alpha-sq", "0.5", "--format", "csv"
)


def table_rows(out, columns):
    """A table's rows as dicts of their cells keyed by ``columns``: the lines
    after the comment, the header and the rule, up to the first summary key.
    Only the last cell may hold blanks (a run's post-state)."""
    lines = itertools.takewhile(lambda line: not re.match(r"\w+:", line), out.splitlines()[3:])
    rows = [line.split(maxsplit=len(columns) - 1) for line in lines]
    assert all(len(row) == len(columns) for row in rows)
    return [dict(zip(columns, row)) for row in rows]


ENGINE_CHECK = "sweep engine matches the enumeration (pure n=1, 4, 9; werner n=1)"


def assert_no_child():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failed_checks(out):
    """The names of the spot checks a verify table's summary marks failed."""
    return re.findall(r"^    - name: (.*)\n      max_error: .*\n      passed: False$", out, re.M)


class TestRun:
    def test_pure_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--mode", "pure", "--n", "1", "--alpha-sq", "0.5"
        )
        assert code == 0
        row = table_rows(out, RUN_COLUMNS)[0]
        assert (row["bell"], row["bob"]) == ("PhiPlus", "Zero")
        assert (row["probability"], row["concurrence"]) == ("0.125", "1")

    def test_product_input_all_branches_dead(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--mode", "pure", "--n", "1", "--alpha-sq", "1.0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(row["concurrence"] == 0.0 for row in payload["rows"])

    def test_weakly_mixed_werner_all_dead(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--mode", "werner", "--n", "2", "--p", "0.2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(abs(row["concurrence"]) < 1e-10 for row in payload["rows"])
        assert payload["summary"]["total_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_grid_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--mode", "pure", "--n", "1:2:3", "--alpha-sq", "0.5"
        )
        assert code == 2
        assert "scalar" in err

    def test_invalid_parameter(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--mode", "pure", "--n", "1", "--alpha-sq", "1.5"
        )
        assert code == 2
        assert "error" in err

    def test_mode_parameter_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--mode", "pure", "--n", "1", "--p", "0.5"
        )
        assert code == 2

    def test_negative_weight_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--mode", "pure", "--n", "1", "--alpha-sq", " -0.5"
        )
        assert code == 2
        assert "alpha^2" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_run_evaluates_the_printed_alpha_sq(self, capsys):
        # 0.99863 to 50 digits at the printed alpha^2, as the sweep gives; at
        # fl(sqrt(alpha^2))^2, where 1 - x is twice the printed 1 - alpha^2,
        # the run would read 0.92541
        code, out, _ = run_cli(
            capsys, "run", "--mode", "pure", "--n", "1e-16",
            "--alpha-sq", "0.9999999999999999", "--format", "csv",
        )
        assert code == 0
        rows = csv.DictReader(io.StringIO(out.split("\n", 1)[1]))
        phi = next(r for r in rows if (r["bell"], r["bob"]) == ("PhiPlus", "Zero"))
        assert abs(float(phi["concurrence"]) - 0.99863493145187) <= 1e-12

    @pytest.mark.parametrize("alpha_sq", ["0.37", "0.5"])
    def test_every_format_writes_the_parsed_alpha_sq(self, capsys, alpha_sq):
        # sqrt(0.37)**2 is 0.36999999999999994: rows must not recompute it
        args = ("run", "--mode", "pure", "--n", "2", "--alpha-sq", alpha_sq)
        _, out, _ = run_cli(capsys, *args, "--format", "json")
        payload = json.loads(out)
        assert payload["config"]["alpha_sq"] == float(alpha_sq)
        assert {row["alpha_sq"] for row in payload["rows"]} == {float(alpha_sq)}
        _, out, _ = run_cli(capsys, *args, "--format", "csv")
        rows = csv.DictReader(io.StringIO(out.split("\n", 1)[1]))
        assert {row["alpha_sq"] for row in rows} == {alpha_sq}

    @pytest.mark.parametrize("n", ["1", "2", "8.9e307"])
    @pytest.mark.parametrize(
        "mode, value",
        [("werner", v) for v in ("0", "0.2", "0.8", "1")]
        + [("pure", v) for v in ("0", "0.25", "0.5625", "1")],
    )
    def test_rows_are_the_library_run(self, capsys, mode, n, value):
        # run reads the oracle's arrays; the library wraps the same arrays in
        # a ProtocolResult, so every cell must keep its bits.  Each pure
        # alpha^2 here is the square of its square root, so the library call
        # at alpha = sqrt(alpha^2) evaluates the same point
        if mode == "pure":
            alpha = np.sqrt(float(value))
            assert alpha * alpha == float(value)
            result = run_protocol_pure(alpha, float(n))
            name = "--alpha-sq"
        else:
            result = run_protocol_mixed(float(value), float(n))
            name = "--p"
        code, out, _ = run_cli(
            capsys, "run", "--mode", mode, "--n", n, name, value, "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
        assert len(rows) == len(result.branches)
        for row, branch in zip(rows, result.branches):
            post = branch.post_state
            values = post.amplitudes if mode == "pure" else post.entries.ravel()
            assert (row["bell"], row["bob"]) == (branch.bell.value, branch.bob.value)
            assert row["probability"] == repr(branch.probability)
            assert row["concurrence"] == repr(branch.concurrence)
            assert row["post_state"] == " ".join(map(str, values.tolist()))


class TestSweep:
    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "1:1:1",
            "--alpha-sq", "0.1:0.9:9", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(SWEEP_CSV_COLUMNS)
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == 9 * 8
        zero_rows = [r for r in rows if r["bob"] == "Zero"]
        assert all(r["verdict"] == "MATCH" for r in zero_rows)
        # the inapplicable parameter column stays empty
        assert all(r["p"] == "" for r in rows)

    def test_csv_round_trip_precision(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "2:2:1",
            "--alpha-sq", "0.37:0.37:1", "--format", "csv",
        )
        rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
        expected = sweep("pure", n_values=(2.0,), alpha_sq_values=(0.37,))
        assert len(rows) == len(expected) == 8
        for k, row in enumerate(rows):
            assert float(row["probability"]) == expected.probability[0, k]
            assert float(row["oracle_concurrence"]) == expected.oracle[0, k]
            assert float(row["formula_concurrence"]) == expected.formula[0, k]

    def test_csv_byte_stable(self, capsys):
        args = (
            "sweep", "--mode", "werner", "--n", "0.5:4:3", "--p", "0:1:5",
            "--format", "csv",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_werner_discrepant_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "werner", "--n", "1:1:1", "--p", "1:1:1",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
        phi = next(r for r in rows if r["bell"] == "PhiPlus" and r["bob"] == "Zero")
        assert float(phi["oracle_concurrence"]) == pytest.approx(1.0, abs=1e-10)
        assert float(phi["formula_concurrence"]) == pytest.approx(2.0, abs=1e-12)
        assert phi["verdict"] == "DISCREPANT"

    def test_tiny_n_sweeps_cleanly(self, capsys):
        # the printed Phi denominator (n-1) alpha^2 + 1 is 0/0 at alpha^2 = 1
        # once n - 1 rounds to -1; the evaluated n alpha^2 + beta^2 never is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "sweep", "--mode", "pure", "--n", "1e-300", "--alpha-sq", "0.5:1:2",
                "--format", "csv",
            )
        assert code == 0
        assert err == ""
        rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
        assert len(rows) == 2 * 8
        assert {r["verdict"] for r in rows} == {"MATCH"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", "1:inf:2", "--alpha-sq", "0.5"), "--n: grid endpoints"),
            (("--n", "nan:1:2", "--alpha-sq", "0.5"), "--n: grid endpoints"),
            (("--n=-1e308:1e308:3", "--alpha-sq", "0.5"), "--n: grid endpoints"),
            (("--n", "1:2:1000000000000", "--alpha-sq", "0.5"), "--n: a grid holds at most"),
            (("--n", "1:2:1001", "--alpha-sq", "0:1:1000"), "--alpha-sq: a grid holds at most"),
        ],
        ids=["inf-stop", "nan-start", "overflowing-span", "huge-count", "huge-product"],
    )
    def test_bad_grid_spec_is_a_usage_error(self, capsys, argv, message):
        # rejected before any grid is built: no numpy warning, no allocation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "--mode", "pure", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_infinite_scalar_n_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--mode", "pure", "--n", "inf", "--alpha-sq", "0.5")
        assert code == 2
        assert err == "error: channel parameter n must be positive and finite, got inf\n"

    def test_grid_size_limit_is_inclusive(self):
        assert len(_parse_values("0:1:1000", "--alpha-sq", 1000)[0]) == 1000
        with pytest.raises(InvalidInput, match="at most 1000000 points, got 1001000"):
            _parse_values("0:1:1001", "--alpha-sq", 1000)

    def test_overflowing_n_is_a_numerical_failure(self, capsys):
        # 2 + 2n overflows: exit 3 with a message, in the engine and in both
        # scalar runs, and no numpy warning
        for argv in (
            ("sweep", "--mode", "werner", "--n", "1e308", "--p", "0:1:3"),
            ("run", "--mode", "pure", "--n", "1e308", "--alpha-sq", "0.5"),
            ("run", "--mode", "werner", "--n", "1e308", "--p", "0.5"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, *argv)
            assert code == 3, argv
            assert out == ""
            assert err.startswith("numerical failure:"), err

    def test_scalars_only_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "1", "--alpha-sq", "0.5"
        )
        assert code == 2
        assert "grid" in err

    def test_empty_grid_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "1:2:0", "--alpha-sq", "0.5"
        )
        assert code == 2

    def test_reversed_grid_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "2:1:3", "--alpha-sq", "0.5"
        )
        assert code == 2

    def test_json_envelope(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "1:1:1",
            "--alpha-sq", "0.5:0.5:1", "--format", "json",
        )
        payload = json.loads(out)
        assert set(payload) == {"config", "rows", "summary"}
        assert payload["summary"]["rows"] == 8
        assert set(payload["rows"][0]) == set(SWEEP_CSV_COLUMNS)

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        args = (
            "sweep", "--mode", "pure", "--n", "1:4:2", "--alpha-sq", "0.25:0.75:3",
            "--format", "csv",
        )
        _, stdout_text, _ = run_cli(capsys, *args)
        path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, *args, "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8") == stdout_text


    def test_out_of_range_grid_writes_nothing(self, capsys):
        # the first block's values lie in [0, 1]; the whole grid is checked first
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "2", "--alpha-sq", "0:2:3000",
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: alpha^2 must lie in [0, 1], got 1.000")

    def test_first_block_failure_creates_no_output_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "1e308", "--alpha-sq", "0:1:3",
            "--format", "csv", "--output", str(path),
        )
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure:")
        assert not path.exists()

    def test_later_block_failure_leaves_the_blocks_written(self, capsys):
        # one point per n; 2 + 2n overflows from the n at index first_bad on,
        # so every block before the one that holds it is written
        n_values = np.linspace(1.0, 1e308, 3000)
        with np.errstate(over="ignore"):
            first_bad = int(np.argmin(np.isfinite(2.0 + 2.0 * n_values)))
        block = wteleport.analysis.BLOCK_POINTS
        written = first_bad // block * block
        assert written > 0  # the failure is in a later block
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "1:1e308:3000", "--alpha-sq", "0.5",
            "--format", "csv",
        )
        assert code == 3
        assert err.startswith("numerical failure:")
        rows = out.splitlines(keepends=True)[2:]  # after the comment and the header
        assert len(rows) == written * 8
        table = sweep("pure", n_values=n_values[:written], alpha_sq_values=(0.5,))
        chunks = list(_csv_chunks(Report("", SWEEP_CSV_COLUMNS, [_sweep_block(table)], {})))
        assert "".join(rows) == "".join(chunks[1:])

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_broken_pipe_stops_the_computation(self, monkeypatch, tmp_path, fmt):
        calls = []
        table = wteleport.analysis._table

        def counted(*args):
            calls.append(args)
            return table(*args)

        with open(tmp_path / "stdout", "w") as stand_in:

            class ClosedPipe(io.StringIO):
                """A stdout whose reader has gone."""

                def write(self, text):
                    raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

                def fileno(self):
                    return stand_in.fileno()

            monkeypatch.setattr(wteleport.analysis, "_table", counted)
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main([
                "sweep", "--mode", "pure", "--n", "0.1:10:100", "--alpha-sq", "0:1:1024",
                "--format", fmt,
            ])
        assert code == 0
        assert 1 <= len(calls) <= 2  # of the blocks of a 102,400-point grid
        assert_no_child()  # the child computing the second half is reaped

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_each_block_is_released_once_written(self, monkeypatch, tmp_path, fmt):
        # the first block is computed before any output is written; like
        # every later block, it must be let go once it is written
        refs, alive = [], []
        table = wteleport.analysis._table
        sweep_block = wteleport.cli._sweep_block

        def tracked(*args):
            result = table(*args)
            refs.append(weakref.ref(result))
            return result

        def formatted(block_table):
            alive.append([ref() is not None for ref in refs])
            return sweep_block(block_table)

        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", 4)
        monkeypatch.setattr(wteleport.analysis, "_table", tracked)
        monkeypatch.setattr(wteleport.cli, "_sweep_block", formatted)
        # one process computes every block; each process's loop is this one
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: False)
        code = main([
            "sweep", "--mode", "pure", "--n", "0.1:10:5", "--alpha-sq", "0:1:4",
            "--format", fmt, "--output", str(tmp_path / "rows"),
        ])
        assert code == 0
        assert alive == [[j == i for j in range(i + 1)] for i in range(5)]

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_one_block_alive_at_a_time(self, monkeypatch, tmp_path, fmt):
        # when a block is computed, no earlier block may still be held: not
        # its SweepTable, and not the Block that views its arrays
        probabilities, alive = [], []
        table = wteleport.analysis._table

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in probabilities))
            result = table(*args)
            probabilities.append(weakref.ref(result.probability))
            return result

        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", 4)
        monkeypatch.setattr(wteleport.analysis, "_table", tracked)
        # one process computes every block; each process's loop is this one
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: False)
        code = main([
            "sweep", "--mode", "werner", "--n", "0.1:10:3", "--p", "0:1:5",
            "--format", fmt, "--output", str(tmp_path / "rows"),
        ])
        assert code == 0
        assert alive == [0, 0, 0, 0]  # 15 points in blocks of 4

    @pytest.mark.parametrize(
        "n_spec, failing_block",
        # 100 points in 15 blocks of 7: this process computes blocks 0-7, the
        # child 8-14; 2 + 2n overflows from n = 8.99e307 on
        [("8e307:1.7e308:100", 1), ("1:1e308:100", 12)],
        ids=["first-half", "second-half"],
    )
    def test_numerical_failure_writes_the_serial_bytes(
        self, capsys, monkeypatch, n_spec, failing_block
    ):
        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", 7)
        argv = ("sweep", "--mode", "pure", "--n", n_spec, "--alpha-sq", "0.5", "--format", "csv")
        runs = []
        for forks in (False, True):
            monkeypatch.setattr(wteleport.cli, "_forks", lambda forks=forks: forks)
            runs.append(run_cli(capsys, *argv))
            assert_no_child()
        assert runs[1] == runs[0]
        code, out, err = runs[1]
        assert code == 3
        assert err.startswith("numerical failure:")
        rows = out.splitlines()[2:]  # after the comment and the header
        assert len(rows) == failing_block * 7 * 8

    def test_first_block_failure_with_a_child_writes_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", 7)
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: True)
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "1e308:1.7e308:100", "--alpha-sq", "0.5",
        )
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure:")
        assert_no_child()

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_no_child_is_left(self, capsys, monkeypatch, tmp_path, fmt):
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: True)
        argv = ("sweep", "--mode", "werner", "--n", "0.1:10:2", "--p", "0:1:512", "--format", fmt)
        assert run_cli(capsys, *argv, "--output", str(tmp_path / "rows"))[0] == 0
        assert_no_child()
        code, _, err = run_cli(capsys, *argv, "--output", str(tmp_path))  # a directory
        assert code == 2
        assert err.startswith("error: cannot write --output")
        assert_no_child()

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    @pytest.mark.parametrize("failure", ["fork", "temporary-file", "full-disk"])
    def test_failed_child_falls_back_to_the_serial_bytes(self, capsys, monkeypatch, fmt, failure):
        # the fork, the child's temporary file or the child's writes to it
        # fail; this process then computes the child's blocks itself
        calls = []
        table = wteleport.analysis._table
        temporary_file = tempfile.TemporaryFile

        def counted(*args):
            calls.append(args)
            return table(*args)

        def fails(*args, **kwargs):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        class FullDisk:
            """A temporary file whose writes fail after the first."""

            def __init__(self, *args, **kwargs):
                self.file = temporary_file(*args, **kwargs)

            def writelines(self, lines):
                self.file.write(next(iter(lines)))
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __getattr__(self, name):
                return getattr(self.file, name)

        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", 7)
        argv = ("sweep", "--mode", "pure", "--n", "0.1:10:10", "--alpha-sq", "0:1:10")
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: False)
        serial = run_cli(capsys, *argv, "--format", fmt)
        assert serial[0] == 0
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: True)
        monkeypatch.setattr(wteleport.analysis, "_table", counted)
        if failure == "fork":
            monkeypatch.setattr(os, "fork", fails)
        else:
            opened = fails if failure == "temporary-file" else FullDisk
            monkeypatch.setattr(tempfile, "TemporaryFile", opened)
        assert run_cli(capsys, *argv, "--format", fmt) == serial
        assert len(calls) == 15  # every block of 100 points in blocks of 7 computed here
        assert_no_child()

    def test_interrupt_reaps_the_child(self, monkeypatch, tmp_path):
        # this process is interrupted while it formats its second block; the
        # child, still computing its half, is killed and reaped
        parent, sweep_block = os.getpid(), wteleport.cli._sweep_block
        formatted = []

        def interrupted(table):
            if os.getpid() == parent and formatted:
                raise KeyboardInterrupt
            formatted.append(table)
            return sweep_block(table)

        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", 7)
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: True)
        monkeypatch.setattr(wteleport.cli, "_sweep_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main([
                "sweep", "--mode", "pure", "--n", "0.1:10:100", "--alpha-sq", "0:1:100",
                "--output", str(tmp_path / "rows"),
            ])
        assert_no_child()

    def test_child_exit_is_not_waited_for(self, capsys, monkeypatch):
        # the child's counts, sent once its text is flushed, are its only
        # success signal: a child that lingers 5 s in os._exit after closing
        # its pipe still gives the serial bytes, and is killed and reaped
        # without being waited for
        exit_now = os._exit

        def slow_exit(code):
            time.sleep(5.0)
            exit_now(code)

        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", 7)
        argv = ("sweep", "--mode", "pure", "--n", "0.1:10:10", "--alpha-sq", "0:1:10")
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: False)
        serial = run_cli(capsys, *argv, "--format", "csv")
        assert serial[0] == 0
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: True)
        monkeypatch.setattr(os, "_exit", slow_exit)
        start = time.monotonic()
        forked = run_cli(capsys, *argv, "--format", "csv")
        elapsed = time.monotonic() - start
        assert forked == serial
        assert elapsed < 2.5
        assert_no_child()

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_fork_raises_no_warning(self, monkeypatch, tmp_path, action):
        # Python 3.12 and later warn when a process with threads, here
        # OpenBLAS's, forks; the sweep must not.  3.12.1 does not raise that
        # warning as an error, so it is also recorded
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = main([
                "sweep", "--mode", "pure", "--n", "0.1:10:2", "--alpha-sq", "0:1:512",
                "--output", str(tmp_path / "rows"),
            ])
        assert (code, caught) == (0, [])
        assert_no_child()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only"
    )
    def test_peak_memory_does_not_grow_with_the_grid(self, tmp_path):
        # A child's ru_maxrss also counts the memory of the process it was
        # spawned from, up to its exec; so each sweep is spawned, and waited
        # for, by a bare interpreter far smaller than a sweep.
        spawn = (
            "import os, sys\n"
            "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        package = Path(wteleport.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(package)}
        path = tmp_path / "rows.csv"

        def peak_mib(n_spec: str) -> float:
            child = subprocess.run(
                [sys.executable, "-c", spawn, "-c", "from wteleport.cli import entry; entry()",
                 "sweep", "--mode", "pure", "--n", n_spec, "--alpha-sq", "0.05:0.95:100",
                 "--format", "csv", "--output", str(path)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            code, kib = child.stdout.split()
            assert (code, child.stderr) == ("0", "")
            path.unlink()
            return int(kib) / 1024

        small = peak_mib("0.01:100:10")  # 10^3 points
        large = peak_mib("0.01:100:1000")  # 10^5 points, 92 MB of CSV
        assert abs(large - small) < 8.0, (small, large)


class TestVerify:
    def test_exit_zero_and_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "\nsummary:\n  pure:\n    rows: 1064\n    match: 1064\n    discrepant: 0\n" in out
        # the documented closed-form mismatch is a DISCREPANT row but does not fail
        row = next(
            r
            for r in table_rows(out, SWEEP_CSV_COLUMNS)
            if (r["mode"], r["n"], r["p"], r["bell"], r["bob"])
            == ("werner", "1", "1", "PhiPlus", "Zero")
        )
        assert (row["formula_concurrence"], row["oracle_concurrence"]) == ("2", "1")
        assert row["verdict"] == "DISCREPANT"
        assert failed_checks(out) == []
        assert out.endswith("\n  exit_code: 0\n")

    def test_json_counts(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        summary = payload["summary"]
        assert summary["pure"]["discrepant"] == 0
        assert summary["pure"]["rows"] == 7 * 19 * 8
        assert summary["werner"]["rows"] == 7 * 11 * 8
        assert summary["werner"]["discrepant"] > 0
        assert summary["bob_one_dead"] is True
        assert summary["exit_code"] == 0
        assert all(check["passed"] for check in summary["spot_checks"])
        # the spotlight row: n=1, p=1 closed form 2.0 vs oracle 1.0
        row = next(
            r
            for r in payload["rows"]
            if r["mode"] == "werner"
            and r["n"] == 1.0
            and r["p"] == 1.0
            and r["bell"] == "PhiPlus"
            and r["bob"] == "Zero"
        )
        assert row["formula_concurrence"] == pytest.approx(2.0, abs=1e-12)
        assert row["oracle_concurrence"] == pytest.approx(1.0, abs=1e-10)
        assert row["verdict"] == "DISCREPANT"

    def test_wrong_engine_probability_fails(self, capsys, monkeypatch):
        # every verdict compares concurrences only, so a wrong probability in
        # the sweep engine is caught by the engine-vs-enumeration spot check
        engine = wteleport.analysis._pure_branches

        def scaled(alpha_sq, n):
            probability, concurrence = engine(alpha_sq, n)
            return 0.9 * probability, concurrence

        monkeypatch.setattr(wteleport.analysis, "_pure_branches", scaled)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert failed_checks(out) == [ENGINE_CHECK]
        assert out.endswith("\n  exit_code: 1\n")

    def test_wrong_werner_engine_fails(self, capsys, monkeypatch):
        engine = wteleport.analysis._werner_branches

        def scaled(p, n):
            probability, concurrence = engine(p, n)
            return probability, 0.9 * concurrence

        monkeypatch.setattr(wteleport.analysis, "_werner_branches", scaled)
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 1
        checks = json.loads(out)["summary"]["spot_checks"]
        assert [c["passed"] for c in checks] == [True, True, True, False]

    def test_wrong_werner_input_fails(self, capsys, monkeypatch):
        # the engine builds its Werner matrices from _werner_entries and the
        # enumeration does not, so a wrong Werner input in the engine alone
        # is caught by the engine-vs-enumeration spot check
        entries = wteleport.protocol._werner_entries
        monkeypatch.setattr(wteleport.protocol, "_werner_entries", lambda p: entries(0.9 * p))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert failed_checks(out) == [ENGINE_CHECK]
        assert out.endswith("\n  exit_code: 1\n")

    def test_wrong_branch_action_fails(self, capsys, monkeypatch):
        # the engine reads every branch from the action table and the
        # enumeration does not.  Swapping b and d of Psi+/Zero keeps each
        # column norm, so every probability stays, but puts a and b in one
        # row: the engine refuses the table (off the X) for the pure sweep,
        # which runs first
        actions = wteleport.protocol._branch_actions
        k = BRANCH_ORDER.index((BellOutcome.PSI_PLUS, BobOutcome.ZERO))

        def swapped(n):
            table = actions(n).copy()
            table[[1, 3], :, k] = table[[3, 1], :, k]
            return table

        monkeypatch.setattr(wteleport.protocol, "_branch_actions", swapped)
        code, out, err = run_cli(capsys, "verify")
        assert (code, out) == (3, "")
        assert "off the X shape" in err

    def test_swapped_branch_actions_fail(self, capsys, monkeypatch):
        # swapping the whole Phi+/Zero and Psi+/Zero actions keeps the X shape
        # and completeness, so the engine takes the table; only the engine
        # check against the enumeration can see it
        actions = wteleport.protocol._branch_actions
        phi = BRANCH_ORDER.index((BellOutcome.PHI_PLUS, BobOutcome.ZERO))
        psi = BRANCH_ORDER.index((BellOutcome.PSI_PLUS, BobOutcome.ZERO))

        def swapped(n):
            table = actions(n).copy()
            table[..., [phi, psi]] = table[..., [psi, phi]]
            return table

        monkeypatch.setattr(wteleport.protocol, "_branch_actions", swapped)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert failed_checks(out) == [ENGINE_CHECK]
        assert out.endswith("\n  exit_code: 1\n")

    def test_wrong_mixed_kernel_fails(self, capsys, monkeypatch):
        # a corrupted Wootters kernel, wherever it is looked up, must not
        # corrupt the sweep engine too, or the spot check cannot see it
        kernel = wteleport.concurrence.concurrence_mixed_batch

        def scaled(matrices):
            return 0.9 * kernel(matrices)

        monkeypatch.setattr(wteleport.concurrence, "concurrence_mixed_batch", scaled)
        monkeypatch.setattr(wteleport.protocol, "concurrence_mixed_batch", scaled, raising=False)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert failed_checks(out) == [ENGINE_CHECK]
        assert out.endswith("\n  exit_code: 1\n")

    def test_wrong_shared_projector_fails(self, capsys, monkeypatch):
        # the Werner oracle builds each Bell state's branch projectors once and
        # shares them across p; a wrong projector corrupts every p at once and
        # must trip the engine spot check
        bell_projectors = wteleport.protocol._bell_projectors

        def mixed(n):
            q, projectors = bell_projectors(n)
            return q, np.broadcast_to(np.eye(4) / 4.0, projectors.shape)

        monkeypatch.setattr(wteleport.protocol, "_bell_projectors", mixed)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert failed_checks(out) == [ENGINE_CHECK]
        assert out.endswith("\n  exit_code: 1\n")

    def test_rolled_pure_stack_fails(self, capsys, monkeypatch):
        # the pure oracle enumerates all its points as one stack; rolling the
        # stack by one point hands every point its neighbour's input, which
        # the engine check must see row by row
        input_pairs = wteleport.protocol._input_pairs

        def rolled(alpha):
            return np.roll(input_pairs(alpha), 1, axis=0)

        monkeypatch.setattr(wteleport.protocol, "_input_pairs", rolled)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        # the preservation checks read the same rolled enumeration
        assert ENGINE_CHECK in failed_checks(out)
        assert out.endswith("\n  exit_code: 1\n")

    @pytest.mark.parametrize(
        "mode, n, value",
        [
            ("pure", 1.0, 0.95),
            ("pure", 4.0, 1.0 / 3.0),
            ("pure", 9.0, 1.0 / 4.0),
            ("werner", 1.0, 1.0),
        ],
    )
    def test_one_wrong_engine_point_fails(self, capsys, monkeypatch, mode, n, value):
        # one point's probabilities are scaled, after the engine's own
        # probability-sum check: the engine check must compare each
        # enumerated point with its own table row
        engine = getattr(wteleport.analysis, f"_{mode}_branches")

        def scaled(values, n_values):
            probability, concurrence = engine(values, n_values)
            point = (values == value) & (n_values == n)
            return np.where(point[:, None], 0.9 * probability, probability), concurrence

        monkeypatch.setattr(wteleport.analysis, f"_{mode}_branches", scaled)
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 1
        checks = json.loads(out)["summary"]["spot_checks"]
        assert [c["passed"] for c in checks] == [True, True, True, False]

    @staticmethod
    def _failing_werner_engine(p, n):
        raise NumericalFailure("werner engine failed")

    def test_werner_numerical_failure_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(wteleport.analysis, "_werner_branches", self._failing_werner_engine)
        code, out, err = run_cli(capsys, "verify")
        assert (code, out, err) == (3, "", "numerical failure: werner engine failed\n")

    def test_pure_failure_outranks_a_werner_numerical_failure(self, capsys, monkeypatch):
        engine = wteleport.analysis._pure_branches

        def scaled(alpha_sq, n):
            probability, concurrence = engine(alpha_sq, n)
            return 0.9 * probability, concurrence

        monkeypatch.setattr(wteleport.analysis, "_pure_branches", scaled)
        monkeypatch.setattr(wteleport.analysis, "_werner_branches", self._failing_werner_engine)
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 1
        summary = json.loads(out)["summary"]
        no_rows = {"match": 0, "discrepant": 0}
        assert summary["werner"] == {
            "rows": 0,
            **no_rows,
            "families": {"phi_zero": no_rows, "psi_zero": no_rows, "bob_one": no_rows},
            "numerical_failure": "werner engine failed",
        }
        assert summary["pure"]["rows"] == 7 * 19 * 8
        assert [c["passed"] for c in summary["spot_checks"]] == [True, True, True, False]

    def test_mutated_spin_flip_fails(self, capsys, monkeypatch):
        # flipping one sign in the spin-flip operator corrupts the oracle and
        # must flip the exit code to 1
        mutated = wteleport.concurrence.SIGMA_YY.copy()
        mutated[0, 3] = -1.0
        monkeypatch.setattr(wteleport.concurrence, "SIGMA_YY", mutated)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert out.endswith("\n  exit_code: 1\n")


class TestRoots:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "roots")
        assert code == 0
        # 12 significant digits are printed; the last one sits inside the
        # bisection bracket width, so match a stable prefix
        assert [row["root"][:13] for row in table_rows(out, ("root", "quartic_value"))] == [
            "0.01669484997",
            "2.58716085106",
        ]
        # the inequality fails between the roots only
        assert re.findall(r"\n    sign: (.*)\n", out) == ["1", "-1", "1"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == [1, 4, 6, -60, 1]
        r1, r2 = payload["roots"]
        assert abs(quartic(r1)) <= 1e-8
        assert abs(quartic(r2)) <= 1e-8
        assert 0.0 < r1 < 0.1
        assert 2.0 < r2 < 3.0
        signs = [region["sign"] for region in payload["sign_regions"]]
        assert signs == [1, -1, 1]
        assert payload["sign_regions"][-1]["upper"] is None

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "root,quartic_value"
        for line in lines[2:]:
            root, value = line.split(",")
            assert abs(quartic(float(root))) <= 1e-8
            assert abs(float(value)) <= 1e-8


RENDERED_COMMANDS = {
    "run-pure": (("run", "--mode", "pure", "--n", "2", "--alpha-sq", "0.37"), RUN_COLUMNS, None),
    "run-werner": (("run", "--mode", "werner", "--n", "2", "--p", "0.8"), RUN_COLUMNS, None),
    "sweep": (
        ("sweep", "--mode", "werner", "--n", "0.1:10:3", "--p", "0:1:4"), SWEEP_CSV_COLUMNS, None
    ),
    "verify": (("verify",), SWEEP_CSV_COLUMNS, None),
    "roots": (
        ("roots",),
        ("root", "quartic_value"),
        ["config", "coefficients", "roots", "rows", "sign_regions", "summary"],
    ),
}


GOLDEN_COMMANDS = {
    "sweep-pure": ("sweep", "--mode", "pure", "--n", "1e-12:1e12:5", "--alpha-sq", "0:1:4"),
    "sweep-werner": ("sweep", "--mode", "werner", "--n", "0.1:10:3", "--p", "0:1:4"),
    "run-pure": ("run", "--mode", "pure", "--n", "2", "--alpha-sq", "0.37"),
    "run-werner": ("run", "--mode", "werner", "--n", "2", "--p", "0.8"),
    "verify": ("verify",),
}


def record_rows(monkeypatch) -> list:
    """Record, for each block ``cli._rows`` renders, the strings it yields, the
    block, its cells and the ``end`` that closes each row."""
    rows = wteleport.cli._rows
    blocks = []

    def recorded(block, cells, end):
        strings = []
        blocks.append((strings, block, cells, end))
        for chunk in rows(block, cells, end):
            strings.append(chunk)
            yield chunk

    monkeypatch.setattr(wteleport.cli, "_rows", recorded)
    return blocks


def widest_row(block, cells, end) -> int:
    """The sum of each column's longest cell, a label column's over all its
    names, and ``len(end)``: no row of the block is wider."""
    width = len(end)
    for cell in cells:
        width += max(map(len, _texts(block[cell[0]], cell)[0]))
    return width


def assert_strings_of_whole_rows(blocks: list, join_bytes: int) -> None:
    """Every string holds whole rows, and all but a block's last hold exactly
    ``max(1, join_bytes // widest_row(...))``; so a string is longer than
    ``join_bytes`` only if it holds a single row."""
    assert blocks
    for strings, block, cells, end in blocks:
        # every row, and nothing else, ends in end
        assert all(chunk.endswith(end) for chunk in strings)
        step = max(1, join_bytes // widest_row(block, cells, end))
        counts = [chunk.count(end) for chunk in strings]
        assert counts[:-1] == [step] * (len(counts) - 1)
        assert 1 <= counts[-1] <= step
        assert all(len(chunk) <= join_bytes for chunk, count in zip(strings, counts) if count > 1)


class TestOutput:
    @pytest.mark.parametrize("command", RENDERED_COMMANDS)
    def test_json_is_json_dumps_of_its_document(self, capsys, command):
        argv, columns, keys = RENDERED_COMMANDS[command]
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        assert list(payload) == (keys or ["config", "rows", "summary"])
        assert payload["rows"]
        assert all(list(row) == list(columns) for row in payload["rows"])

    @pytest.mark.parametrize("command", RENDERED_COMMANDS)
    def test_csv_is_what_csv_writer_writes(self, capsys, command):
        argv, columns, _ = RENDERED_COMMANDS[command]
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        comment, body = out.split("\n", 1)
        assert comment.startswith("# wteleport ")
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == list(columns)
        assert len(rows) > 1 and all(len(row) == len(columns) for row in rows)
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        assert buffer.getvalue() == body

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_roots_golden(self, capsys, fmt):
        # pure-Python bisection: the same bits on every platform
        code, out, _ = run_cli(capsys, "roots", "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"roots.{fmt}").read_bytes().decode("utf-8")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("name", GOLDEN_COMMANDS)
    def test_golden(self, capsys, name, fmt):
        # unlike roots, these values come from numpy and LAPACK, so a diff can be
        # a change in the numerics as well as in the rendering
        code, out, err = run_cli(capsys, *GOLDEN_COMMANDS[name], "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode("utf-8")

    @pytest.mark.parametrize("join_rows", [1, 3])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("name", ["sweep-pure", "sweep-werner", "verify"])
    def test_golden_written_in_chunks_of_join_rows(self, capsys, monkeypatch, name, fmt, join_rows):
        # 1 byte is less than any row, so each string holds one; 300 bytes
        # hold three table rows and several CSV rows (a JSON row is wider)
        join_bytes = {1: 1, 3: 300}[join_rows]
        blocks = record_rows(monkeypatch)
        monkeypatch.setattr(wteleport.cli, "_JOIN_BYTES", join_bytes)
        code, out, err = run_cli(capsys, *GOLDEN_COMMANDS[name], "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode("utf-8")
        assert_strings_of_whole_rows(blocks, join_bytes)

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--mode", "werner", "--n", "0.1:10:10", "--p", "0:1:500", "--format", "json"),
            (
                "sweep", "--mode", "pure", "--n", "0.01:100:1000", "--alpha-sq", "0.05:0.95:10",
                "--format", "csv",
            ),
        ],
        ids=["werner-json", "pure-csv"],
    )
    def test_benchmark_sweeps_written_in_strings_of_at_most_128_kib(
        self, monkeypatch, tmp_path, argv
    ):
        # the two benchmark sweeps at seed 0, at the real byte budget
        fmt = argv[-1]
        writer = wteleport.cli._WRITERS[fmt]
        sizes = []

        def measured(report):  # a forked child's rows come as UTF-8 bytes
            for chunk in writer(report):
                sizes.append(len(chunk.encode("utf-8") if isinstance(chunk, str) else chunk))
                yield chunk

        blocks = record_rows(monkeypatch)
        monkeypatch.setitem(wteleport.cli._WRITERS, fmt, measured)
        assert main([*argv, "--output", str(tmp_path / "rows")]) == 0
        assert sum(sizes) == (tmp_path / "rows").stat().st_size
        assert max(sizes) <= 128 * 1024
        assert_strings_of_whole_rows(blocks, wteleport.cli._JOIN_BYTES)

    def test_no_string_exceeds_the_join_budget(self, monkeypatch, tmp_path):
        # a block of this grid that starts at an n row opens with its shortest
        # row (p = 0), 53 of up to 147 bytes; at 512 points a block, where each
        # block does, strings sized by it reached 126,678 bytes
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: False)  # every block rendered here
        blocks = record_rows(monkeypatch)
        code = main([
            "sweep", "--mode", "werner", "--n", "0.1:10:10", "--p", "0:1:500", "--format", "csv",
            "--output", str(tmp_path / "rows"),
        ])
        assert code == 0
        assert len(blocks) == -(-5000 // wteleport.analysis.BLOCK_POINTS)  # all 5,000 points
        longest = max(len(chunk) for strings, *_ in blocks for chunk in strings)
        assert longest <= wteleport.cli._JOIN_BYTES

    @pytest.mark.parametrize("forks", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("block_points", [7, wteleport.analysis.BLOCK_POINTS])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("name", GOLDEN_COMMANDS)
    def test_golden_with_and_without_a_child(
        self, capsys, monkeypatch, tmp_path, name, fmt, block_points, forks
    ):
        # at 7 points a block, a forked child renders the later 1 of the 2
        # blocks of sweep-werner and 1 of the 3 of sweep-pure
        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", block_points)
        monkeypatch.setattr(wteleport.protocol, "BLOCK_POINTS", block_points)
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: forks)
        golden = (GOLDEN / f"{name}.{fmt}").read_bytes()
        assert run_cli(capsys, *GOLDEN_COMMANDS[name], "--format", fmt) == (0, golden.decode(), "")
        path = tmp_path / "report"
        argv = (*GOLDEN_COMMANDS[name], "--format", fmt, "--output", str(path))
        assert run_cli(capsys, *argv) == (0, "", "")
        assert path.read_bytes() == golden
        assert_no_child()

    @pytest.mark.parametrize("name", [*GOLDEN_COMMANDS, "roots"])
    def test_table_rows_are_the_csv_rows(self, capsys, name):
        argv = ("roots",) if name == "roots" else GOLDEN_COMMANDS[name]
        _, table, _ = run_cli(capsys, *argv, "--format", "table")
        _, text, _ = run_cli(capsys, *argv, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))
        cells = table_rows(table, list(rows[0]))
        assert len(cells) == len(rows)
        for label in {"mode", "bell", "bob", "verdict"} & set(rows[0]):
            assert [c[label] for c in cells] == [r[label] for r in rows]

    def test_cells_are_repr_and_json_dumps(self):
        # np.unique merges -0.0 with 0.0 on float keys; the cells key on bits
        values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e22, 0.1 + 0.2, 1 / 3, -0.0]

        def cells(column, fmt, head=""):
            _, _, spec, absent, label = _row_cells(fmt, ("n",))[0][0]
            return np.take(*_texts(column, ("n", head, spec, absent, label)))

        column = np.array(values)
        assert cells(column, "csv").tolist() == [repr(v) for v in values]
        assert cells(column, "json").tolist() == [json.dumps(v) for v in values]
        # an axis: codes into grid values in grid order, where repeats sit side
        # by side; each distinct value gets one text, -0.0 apart from 0.0
        grid = np.array([0.5, 0.5, -0.0, 0.0, 0.0, 1 / 3])
        codes = np.array([5, 0, 1, 2, 3, 4, 2])
        axis = _Labels(grid, codes)
        expected = [repr(v) for v in grid[codes].tolist()]
        assert cells(axis, "csv").tolist() == expected
        assert cells(axis, "json").tolist() == expected
        assert len(_texts(axis, _row_cells("csv", ("n",))[0][0])[0]) == 4
        labels = _Labels(("Zero", "One"), np.array([0, 1, 0]))
        assert cells(labels, "csv").tolist() == ["Zero", "One", "Zero"]
        assert cells(labels, "json").tolist() == ['"Zero"', '"One"', '"Zero"']
        assert (cells(None, "csv", ","), cells(None, "json")) == (",", "null")

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_shared_float_texts_keep_the_sign_of_zero(self, fmt):
        # CSV's four float columns, and the table's three .6g ones, share one
        # text per distinct value, keyed on bits: -0.0 in one column and 0.0
        # in another each keep their own text
        columns = ("abs_diff", "probability", "oracle_concurrence", "formula_concurrence")
        block = {
            "abs_diff": np.array([1.0, 1.0, 1.0]),  # the first column, which has no head
            "probability": np.array([-0.0, 0.0, 0.5]),
            "oracle_concurrence": np.array([0.0, -0.0, 0.5]),
            "formula_concurrence": np.array([0.5, 0.0, -0.0]),
        }
        cells, end = _row_cells(fmt, columns)
        expected = "".join(
            "".join(head + format(value, spec) for (_, head, spec, _, _), value in zip(cells, row)) + end
            for row in zip(*block.values())
        )
        assert "".join(wteleport.cli._rows(block, cells, end)) == expected
        assert expected.count("-0") == 3

    @pytest.mark.parametrize("bound, formatted", [(1024, 40), (39, 120)], ids=["cached", "per-block"])
    def test_value_axis_is_formatted_once_per_sweep_below_the_bound(
        self, monkeypatch, tmp_path, bound, formatted
    ):
        # 120 points in 18 blocks of 7, each shorter than a row of 40 p values;
        # the JSON head names the column whose texts are counted
        made = []
        format_ = wteleport.cli._format

        def counted(values, head, spec):
            if '"p"' in head:
                made.extend(values)
            return format_(values, head, spec)

        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", 7)
        monkeypatch.setattr(wteleport.cli, "_AXIS_TEXTS", bound)
        monkeypatch.setattr(wteleport.cli, "_format", counted)
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: False)  # every block rendered here
        code = main([
            "sweep", "--mode", "werner", "--n", "0.1:10:3", "--p", "0:1:40", "--format", "json",
            "--output", str(tmp_path / "rows"),
        ])
        assert code == 0
        assert len(made) == formatted

    @pytest.mark.parametrize("forks", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("block_points", [7, 128])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--mode", "werner", "--n", "0.1:10:3", "--p", "0:1:50"),
            ("sweep", "--mode", "pure", "--n", "0.01:100:30", "--alpha-sq", "0:1:11"),
        ],
        ids=["werner", "pure"],
    )
    def test_value_axis_texts_per_block_write_the_same_bytes(
        self, capsys, monkeypatch, argv, fmt, block_points, forks
    ):
        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", block_points)
        monkeypatch.setattr(wteleport.protocol, "BLOCK_POINTS", block_points)
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: forks)
        cached = run_cli(capsys, *argv, "--format", fmt)
        monkeypatch.setattr(wteleport.cli, "_AXIS_TEXTS", 0)
        assert run_cli(capsys, *argv, "--format", fmt) == cached
        assert cached[0] == 0
        assert_no_child()

    @pytest.mark.parametrize("block_points", [7, 128])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("name", ["sweep-pure", "sweep-werner"])
    def test_golden_with_value_axis_texts_per_block(
        self, capsys, monkeypatch, name, fmt, block_points
    ):
        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", block_points)
        monkeypatch.setattr(wteleport.protocol, "BLOCK_POINTS", block_points)
        monkeypatch.setattr(wteleport.cli, "_AXIS_TEXTS", 0)
        golden = (GOLDEN / f"{name}.{fmt}").read_bytes().decode()
        assert run_cli(capsys, *GOLDEN_COMMANDS[name], "--format", fmt) == (0, golden, "")

    @pytest.mark.parametrize("name", _TABLE_COLUMNS)
    def test_table_cell_is_one_format_call(self, name):
        # a table cell is one format(value, align + spec) call, which must write
        # what format(format(value, spec), align) writes; a post-state formats
        # each entry by the whole spec, so only an unaligned column may hold one
        _, align, spec = _TABLE_COLUMNS[name]
        values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1 / 3, 0.1 + 0.2, 1e16, 1e22]
        if not align:
            values.append(_PostState(np.array([0.6, -0.0, 1e-300j, 0.1 + 0.2j])))
        elif name == "post_state":
            pytest.fail("the post-state column must not be aligned")
        for value in values:
            assert format(value, align + spec) == format(format(value, spec), align), value
        (cell,), _ = _row_cells("table", (name,))
        assert cell[2:4] == (align + spec, format("-", align))

    @pytest.mark.parametrize(
        "argv, target",
        [
            (("verify",), ("missing", "report.txt")),
            (("sweep", "--mode", "pure", "--n", "1:2:2", "--alpha-sq", "0.5"), ()),
        ],
        ids=["missing-directory", "is-a-directory"],
    )
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv, target):
        path = tmp_path.joinpath(*target)
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --output")
        assert str(path) in err

    def test_failed_output_leaves_stdout_usable(self, tmp_path):
        # an unwritable --output is a usage error that leaves stdout as it was
        script = (
            "import sys; from wteleport.cli import main; "
            "code = main(['roots', '--output', sys.argv[1]]); print('after', code)"
        )
        code, out, err = run_child(script, str(tmp_path / "missing" / "r"))
        assert (code, out) == (0, b"after 2\n")
        assert err.startswith(b"error: cannot write --output")

    def test_closed_stdout_is_quiet(self):
        # the report is far larger than a pipe buffer, so writing it fails
        # once the reader has closed its end after one line, as `| head -1` does
        read, write = os.pipe()
        first = []

        def head():
            with open(read, "rb") as reader:
                first.append(reader.readline())

        thread = threading.Thread(target=head)
        thread.start()
        try:
            code, _, err = run_entry(
                "sweep", "--mode", "pure", "--n", "0.1:10:100", "--alpha-sq", "0:1:100",
                "--format", "csv", stdout=write,
            )
        finally:
            os.close(write)
            thread.join()
        assert first[0].startswith(b"# wteleport sweep")
        assert err == b""
        assert code == 0

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_a_usage_error(self):
        # writing to /dev/full fails with ENOSPC: reported like an unwritable
        # --output, with no traceback from the write or the final flush
        with open("/dev/full", "w") as full:
            code, _, err = run_entry("roots", stdout=full)
        err = err.decode()
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: cannot write to stdout:")

    @pytest.mark.parametrize(
        "argv, stream, expected",
        [
            (USAGE_ERROR, "stderr", 2),
            (FIRST_BLOCK_OVERFLOW, "stderr", 3),
            (("--help",), "stdout", 2),
            (("sweep", "--help"), "stdout", 2),
            (("roots",), "stdout", 2),
        ],
        ids=["usage-error", "numerical-failure", "help", "sweep-help", "roots"],
    )
    def test_full_stream_keeps_the_documented_code(
        self, capsys, monkeypatch, argv, stream, expected
    ):
        # main itself, not only the console script, returns the documented
        # code for a stdout or stderr that cannot be written, and raises nothing
        monkeypatch.setattr(sys, stream, FullStream())
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out) == (expected, "")
        if stream == "stdout":
            assert err.startswith("error: cannot write to stdout:")

    @pytest.mark.parametrize(
        "argv, stream, expected, message",
        [
            (("roots",), "stdout", 2, "error: cannot write to stdout:"),
            (("verify", "--format", "csv"), "stdout", 2, "error: cannot write to stdout:"),
            (("--help",), "stdout", 2, "error: cannot write to stdout:"),
            # nothing goes to stdout, so its message is the usage error's
            (USAGE_ERROR, "stdout", 2, "error: --alpha-sq is required"),
            (USAGE_ERROR, "stderr", 2, ""),
            (FIRST_BLOCK_OVERFLOW, "stderr", 3, ""),
        ],
        ids=["roots", "verify", "help", "usage-error", "usage-error-stderr", "numerical-failure"],
    )
    def test_closed_stream_keeps_the_documented_code(
        self, capsys, monkeypatch, argv, stream, expected, message
    ):
        # Python leaves sys.stdout or sys.stderr None when its descriptor was
        # closed at start; main meets that stream by the rules of one it
        # cannot write, and raises nothing
        monkeypatch.setattr(sys, stream, None)
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out) == (expected, "")
        assert err.startswith(message) if message else err == ""


BUFFERED = pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
# The console script, and main in an interpreter that exits as usual: its
# teardown flushes stdout and stderr once more, and a failed flush exits 120.
THROUGH = pytest.mark.parametrize(
    "script",
    [
        "from wteleport.cli import entry; entry()",
        "import sys; from wteleport.cli import main; sys.exit(main())",
    ],
    ids=["entry", "main"],
)


def run_child(
    code, *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, buffered=True, closing=""
):
    """``python -c code *argv`` in a fresh interpreter, its stdout and stderr
    sent to the ``stdout`` and ``stderr`` targets of ``subprocess.run``
    (captured by default) and written through Python's buffers, or not, as
    with ``PYTHONUNBUFFERED=1``; ``closing`` holds shell redirections such as
    ``>&-`` that close a descriptor before Python starts: exit code, stdout,
    stderr (None if not captured)."""
    package = Path(wteleport.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(package)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-c", code, *argv]
    if closing:
        command = ["sh", "-c", f'exec "$@" {closing}', "sh", *command]
    child = subprocess.run(command, stdout=stdout, stderr=stderr, env=env, timeout=120)
    return child.returncode, child.stdout, child.stderr


def run_entry(*argv, **targets):
    """The console script ``entry()`` in a fresh interpreter (see ``run_child``)."""
    return run_child("from wteleport.cli import entry; entry()", *argv, **targets)


class TestEntry:
    """The console script in a process of its own."""

    @pytest.mark.parametrize("name, fmt", [("verify", "csv"), ("run-pure", "json")])
    def test_golden_bytes_and_exit_zero(self, name, fmt):
        # main flushes stdout and stderr and entry leaves by os._exit,
        # skipping interpreter teardown: no byte and no exit code may be lost
        code, out, err = run_entry(*GOLDEN_COMMANDS[name], "--format", fmt)
        assert (code, err) == (0, b"")
        assert out == (GOLDEN / f"{name}.{fmt}").read_bytes()

    def test_usage_error_exits_two(self):
        code, out, err = run_entry(*USAGE_ERROR)
        assert (code, out) == (2, b"")
        assert err == b"error: --alpha-sq is required with --mode pure\n"

    def test_verify_failure_exits_one(self):
        # a match tolerance no row can meet makes every pure row DISCREPANT
        code, out, err = run_child(
            "import wteleport.analysis; wteleport.analysis.MATCH_TOL = -1.0; "
            "from wteleport.cli import entry; entry()",
            "verify", "--format", "csv",
        )
        assert (code, err) == (1, b"")
        assert out.startswith(b"# wteleport verify") and b",DISCREPANT\n" in out

    def test_numerical_failure_exits_three(self):
        # 2 + 2n overflows in the first block: exit 3 and nothing written
        code, out, err = run_entry(*FIRST_BLOCK_OVERFLOW)
        assert (code, out) == (3, b"")
        assert err.startswith(b"numerical failure:")

    @BUFFERED
    @pytest.mark.parametrize("argv", [("--help",), ("roots",)], ids=["help", "roots"])
    def test_stdout_reader_gone_before_the_run_is_quiet(self, argv, buffered):
        # the reader of stdout has closed its end before anything is written;
        # buffered, argparse's help reaches the pipe only at main's flush
        read, write = os.pipe()
        os.close(read)
        try:
            code, _, err = run_entry(*argv, stdout=write, buffered=buffered)
        finally:
            os.close(write)
        assert (code, err) == (0, b"")

    @BUFFERED
    def test_stdout_reader_gone_keeps_the_verdict(self, buffered):
        # a verify failure whose reader has gone still exits 1, quietly
        read, write = os.pipe()
        os.close(read)
        try:
            code, _, err = run_child(
                "import wteleport.analysis; wteleport.analysis.MATCH_TOL = -1.0; "
                "from wteleport.cli import entry; entry()",
                "verify", "--format", "csv", stdout=write, buffered=buffered,
            )
        finally:
            os.close(write)
        assert (code, err) == (1, b"")

    @THROUGH
    @BUFFERED
    @pytest.mark.parametrize(
        "argv, expected", [(USAGE_ERROR, 2), (FIRST_BLOCK_OVERFLOW, 3)],
        ids=["usage-error", "numerical-failure"],
    )
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stderr_keeps_the_exit_code(self, argv, expected, buffered, script):
        # the message is lost, not the code: neither an uncaught OSError's 1
        # nor the 120 of a final flush that fails
        with open("/dev/full", "w") as full:
            code, out, _ = run_child(script, *argv, stderr=full, buffered=buffered)
        assert (code, out) == (expected, b"")

    @THROUGH
    @BUFFERED
    @pytest.mark.parametrize(
        "argv", [("--help",), ("sweep", "--help"), ("roots",)], ids=["help", "sweep-help", "roots"]
    )
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_two(self, argv, buffered, script):
        # argparse ignores a failed write of its help, and buffered, the help
        # reaches stdout only at the final flush; either way the failure is
        # a usage error, as a report's is
        with open("/dev/full", "w") as full:
            code, _, err = run_child(script, *argv, stdout=full, buffered=buffered)
        assert code == 2
        assert err.startswith(b"error: cannot write to stdout:")
        assert b"Traceback" not in err

    @pytest.mark.parametrize(
        "argv, forks",
        [
            (("roots",), False),
            (("verify", "--format", "csv"), False),
            (("sweep", "--mode", "pure", "--n", "1:2:3", "--alpha-sq", "0.5", "--format", "csv"),
             False),
            # blocks of which a forked child computes the later half
            (("sweep", "--mode", "pure", "--n", "0.1:10:2", "--alpha-sq", "0:1:512",
              "--format", "csv"), True),
        ],
        ids=["roots", "verify", "sweep", "forked-sweep"],
    )
    def test_closed_stdout_exits_two(self, argv, forks):
        # stdout closed before Python starts, as by `>&-`, leaves sys.stdout
        # None: a stdout that cannot be written, not an AttributeError's exit 1
        code, _, err = run_child(
            f"import wteleport.cli; wteleport.cli._forks = lambda: {forks}; wteleport.cli.entry()",
            *argv, stdout=None, closing=">&-",
        )
        assert code == 2
        assert err.decode() == f"error: cannot write to stdout: {os.strerror(errno.EBADF)}\n"

    def test_closed_stdout_and_stderr_keep_the_exit_code(self):
        # the usage error's message is lost, not its code
        code, _, _ = run_child(
            "from wteleport.cli import entry; entry()",
            *USAGE_ERROR, stdout=None, stderr=None, closing=">&- 2>&-",
        )
        assert code == 2

    @BUFFERED
    @pytest.mark.parametrize("forks", [True, False], ids=["forked", "serial"])
    @pytest.mark.parametrize(
        "block", [wteleport.analysis.BLOCK_POINTS, 7], ids=lambda block: f"{block}-point-blocks"
    )
    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_later_block_failure_writes_the_rows_before_it(
        self, capsys, monkeypatch, fmt, block, forks, buffered
    ):
        # 2 + 2n overflows in a later block: the process writes what main
        # writes in process, the rows before the failure; at 7 points a block
        # the last of them are still buffered when the failure is raised, so
        # stdout must be flushed on that path too
        argv = ("sweep", "--mode", "pure", "--n", "1:1.7e308:2000", "--alpha-sq", "0.5")
        monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", block)
        monkeypatch.setattr(wteleport.cli, "_forks", lambda: False)
        expected = run_cli(capsys, *argv, "--format", fmt)
        assert expected[0] == 3 and expected[1]
        assert expected[2].startswith("numerical failure:")
        code, out, err = run_child(
            f"import wteleport.analysis, wteleport.cli; wteleport.analysis.BLOCK_POINTS = {block}; "
            f"wteleport.cli._forks = lambda: {forks}; wteleport.cli.entry()",
            *argv, "--format", fmt, buffered=buffered,
        )
        assert (code, out.decode(), err.decode()) == expected

    def test_main_registers_no_atexit_handler(self):
        # entry leaves by os._exit, which runs no atexit handler, so neither
        # the import nor main (a forked sweep among its runs) may register one
        script = (
            "import atexit, os; before = atexit._ncallbacks()\n"
            "import wteleport.cli; wteleport.cli._forks = lambda: True\n"
            "from wteleport.cli import main\n"
            "for argv in (['verify'], ['sweep', '--mode', 'pure', '--n', '0.1:10:2',\n"
            "             '--alpha-sq', '0:1:512', '--format', 'json']):\n"
            "    assert main([*argv, '--output', os.devnull]) == 0\n"
            "print(atexit._ncallbacks() - before)\n"
        )
        code, out, err = run_child(script)
        assert (code, out, err) == (0, b"0\n", b"")

    def test_import_compiles_no_dataclasses(self):
        # the value classes generate no code at import, so process start does not pay for it
        code, out, _ = run_child("import sys, wteleport.cli; print('dataclasses' in sys.modules)")
        assert (code, out) == (0, b"False\n")


# The traced peak, in KiB per point, of the first block of each benchmark
# sweep's seed-0 grid, computed and rendered as a sweep renders it.  The
# rendering sets it: 2.45 KiB pure CSV and 2.05 KiB Werner JSON per point (313
# and 262 KiB at 128 points); rendering each float column and each block's
# value axis on its own, with a grid column per column, took 2.72 and 2.63.
RENDER_PEAK_KIB_PER_POINT = 2.6


@pytest.mark.parametrize(
    "argv",
    [
        ("--mode", "pure", "--n", "0.01:100:1000", "--alpha-sq", "0.05:0.95:10", "--format", "csv"),
        ("--mode", "werner", "--n", "0.1:10:10", "--p", "0:1:500", "--format", "json"),
    ],
    ids=["pure-csv", "werner-json"],
)
def test_one_rendered_block_holds_only_what_it_still_needs(argv):
    args = wteleport.cli.build_parser().parse_args(["sweep", *argv])
    n_values, _ = _parse_values(args.n, "--n")
    values, _ = wteleport.cli._mode_parameter(args, len(n_values))
    starts, values, tables = wteleport.analysis._grid_tables(args.mode, n_values, values)
    cells, end = _row_cells(args.format, SWEEP_CSV_COLUMNS)
    axis = SWEEP_CSV_COLUMNS.index("alpha_sq" if args.mode == "pure" else "p")
    names = wteleport.cli._axis_texts(values, cells[axis])

    def first_block():
        (table,) = tables(starts[:1], names)
        for _ in wteleport.cli._rows(_sweep_block(table), cells, end):
            pass

    first_block()
    tracemalloc.start()
    try:
        first_block()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = RENDER_PEAK_KIB_PER_POINT * wteleport.analysis.BLOCK_POINTS
    assert peak < bound * 1024, f"{peak / 1024:.0f} KiB"


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: StateVector((1,), np.array([1.0, 0.0])), ("labels", "amplitudes")),
        (lambda: DensityMatrix((1,), np.eye(2) / 2), ("labels", "entries")),
        (lambda: computational_basis((1,)), ("name", "vectors")),
        (lambda: sweep("pure", n_values=(1.0,), alpha_sq_values=(0.5,)), ("mode", "n", "match")),
        (lambda: Report("", (), [], {}), ("comment", "blocks", "exit_code")),
    ],
    ids=["StateVector", "DensityMatrix", "MeasurementBasis", "SweepTable", "Report"],
)
def test_value_fields_cannot_be_assigned(make, fields):
    value = make()
    for name in fields:
        kept = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is kept
