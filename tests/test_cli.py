"""Command-line surface: subcommands, output formats, exit codes."""
import csv
import errno
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wteleport.analysis
import wteleport.concurrence
import wteleport.protocol
from wteleport import InvalidInput, quartic, sweep
from wteleport.cli import (
    RUN_COLUMNS,
    SWEEP_CSV_COLUMNS,
    Report,
    _cells,
    _csv_chunks,
    _csv_text,
    _json_text,
    _Labels,
    _parse_values,
    _sweep_blocks,
    main,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_pure_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--mode", "pure", "--n", "1", "--alpha-sq", "0.5"
        )
        assert code == 0
        assert "PhiPlus/Zero" in out
        assert "probability=0.125" in out
        assert "concurrence=1" in out

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
        # 2 + 2n overflows only in the last of the three blocks of n values
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "pure", "--n", "1:1e308:3000", "--alpha-sq", "0.5",
            "--format", "csv",
        )
        assert code == 3
        assert err.startswith("numerical failure:")
        rows = out.splitlines(keepends=True)[2:]  # after the comment and the header
        assert len(rows) == 2 * wteleport.protocol.BLOCK_POINTS * 8
        n_values = np.linspace(1.0, 1e308, 3000)[: len(rows) // 8]
        table = sweep("pure", n_values=n_values, alpha_sq_values=(0.5,))
        chunks = list(_csv_chunks(Report("", SWEEP_CSV_COLUMNS, _sweep_blocks(table), {}, ())))
        assert "".join(rows) == "".join(chunks[1:])

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_broken_pipe_stops_the_computation(self, monkeypatch, tmp_path, fmt):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        with open(tmp_path / "stdout", "w") as stand_in:

            class ClosedPipe(io.StringIO):
                """A stdout whose reader has gone."""

                def write(self, text):
                    raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

                def fileno(self):
                    return stand_in.fileno()

            monkeypatch.setattr(wteleport.cli, "sweep", counted)
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main([
                "sweep", "--mode", "pure", "--n", "0.1:10:100", "--alpha-sq", "0:1:1024",
                "--format", fmt,
            ])
        assert code == 0
        assert 1 <= len(calls) <= 2  # of the 100 blocks

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
        assert "pure sweep" in out
        assert "0 DISCREPANT" in out
        # the documented closed-form mismatch is listed but does not fail
        assert "formula=2" in out and "oracle=1" in out
        assert "DISCREPANT" in out
        assert "result: PASS (exit 0)" in out

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
        engine = wteleport.analysis.pure_branches

        def scaled(alpha, n):
            probability, concurrence = engine(alpha, n)
            return 0.9 * probability, concurrence

        monkeypatch.setattr(wteleport.analysis, "pure_branches", scaled)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "sweep engine matches the enumeration (pure n=1, 4, 9; werner n=1): FAIL" in out
        assert "result: FAIL (exit 1)" in out

    def test_wrong_werner_engine_fails(self, capsys, monkeypatch):
        engine = wteleport.analysis.werner_branches

        def scaled(p, n):
            probability, concurrence = engine(p, n)
            return probability, 0.9 * concurrence

        monkeypatch.setattr(wteleport.analysis, "werner_branches", scaled)
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
        assert "sweep engine matches the enumeration (pure n=1, 4, 9; werner n=1): FAIL" in out
        assert "result: FAIL (exit 1)" in out

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
        assert "sweep engine matches the enumeration (pure n=1, 4, 9; werner n=1): FAIL" in out
        assert "result: FAIL (exit 1)" in out

    def test_mutated_spin_flip_fails(self, capsys, monkeypatch):
        # flipping one sign in the spin-flip operator corrupts the oracle and
        # must flip the exit code to 1
        mutated = wteleport.concurrence.SIGMA_YY.copy()
        mutated[0, 3] = -1.0
        monkeypatch.setattr(wteleport.concurrence, "SIGMA_YY", mutated)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "result: FAIL (exit 1)" in out


class TestRoots:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "roots")
        assert code == 0
        # 12 significant digits are printed; the last one sits inside the
        # bisection bracket width, so match a stable prefix
        assert "0.01669484997" in out
        assert "2.58716085106" in out
        assert "inequality fails" in out

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
}


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

    def test_cells_are_repr_and_json_dumps(self):
        # np.unique merges -0.0 with 0.0 on float keys; the cells key on bits
        values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e22, 0.1 + 0.2, 1 / 3, -0.0]
        column = np.array(values)
        assert _cells(column, _csv_text).tolist() == [repr(v) for v in values]
        assert _cells(column, _json_text).tolist() == [json.dumps(v) for v in values]
        labels = _Labels(("Zero", "One"), np.array([0, 1, 0]))
        assert _cells(labels, _csv_text).tolist() == ["Zero", "One", "Zero"]
        assert _cells(labels, _json_text).tolist() == ['"Zero"', '"One"', '"Zero"']
        assert (_cells(None, _csv_text, ","), _cells(None, _json_text)) == (",", "null")

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

    def test_closed_stdout_is_quiet(self):
        # the report is far larger than a pipe buffer, so writing it fails
        # once the reader has closed its end after one line, as `| head -1` does
        package = Path(wteleport.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(package)}
        child = subprocess.Popen(
            [sys.executable, "-c", "from wteleport.cli import entry; entry()",
             "sweep", "--mode", "pure", "--n", "0.1:10:100", "--alpha-sq", "0:1:100",
             "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            first = child.stdout.readline()
            child.stdout.close()
            code = child.wait(timeout=120)
            err = child.stderr.read()
        finally:
            child.kill()
            child.stderr.close()
        assert first.startswith(b"# wteleport sweep")
        assert err == b""
        assert code == 0

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_a_usage_error(self):
        # writing to /dev/full fails with ENOSPC: reported like an unwritable
        # --output, with no traceback from the write or the final flush
        package = Path(wteleport.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(package)}
        with open("/dev/full", "w") as full:
            child = subprocess.run(
                [sys.executable, "-c", "from wteleport.cli import entry; entry()", "roots"],
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        err = child.stderr.decode()
        assert child.returncode == 2
        assert "Traceback" not in err
        assert err.startswith("error: cannot write to stdout:")
