"""Correctness gate for one wteleport CLI output.

Usage: python3 bench/gate.py OUTPUT FORMAT MODE POINTS EXIT_CODE
(MODE is pure, werner or verify); prints the problems found as a JSON list.

The gate reads sweep/verify output (CSV or JSON) by column name, so columns
added later do not break it, and checks every row against references
computed here from the paper's closed forms.  It deliberately does not
import wteleport: a defect in the package cannot vouch for itself.

References (x = alpha^2 on Phi rows, beta^2 = 1 - alpha^2 on Psi rows):

- pure, Bob 0:    C = 2 sqrt(n x (1-x)) / (n x + 1 - x)
- Werner, Bob 0:  probability 1/8 and C = max(0, sqrt(n) (3p-1) / (n+1))
- any Bob 1:      C = 0

The printed Werner closed form 4 sqrt(n) (3p-1) / (n+1)^2 disagrees with the
reference except at n = 3; the gate predicts from it how many Werner rows
the program must report as DISCREPANT, so that form has to stay verbatim.
"""
from __future__ import annotations

import csv
import json
import sys
from math import sqrt

PURE_TOL = 1e-10
WERNER_TOL = 1e-10
DEAD_TOL = 1e-12
PROBABILITY_TOL = 1e-12
# The program's own MATCH/DISCREPANT threshold on |oracle - formula|.
MATCH_TOL = 1e-8

VERIFY_ROWS = {"pure": 1064, "werner": 616}
VERIFY_WERNER_DISCREPANT = 196

# Reported problems per output; the rest are only counted.
MAX_PROBLEMS = 5

_FLOAT_COLUMNS = ("n", "alpha_sq", "p", "probability", "oracle_concurrence")


def pure_reference(n: float, x: float) -> float:
    return 2.0 * sqrt(n * x * (1.0 - x)) / (n * x + 1.0 - x)


def werner_reference(n: float, p: float) -> float:
    return max(0.0, sqrt(n) * (3.0 * p - 1.0) / (n + 1.0))


def werner_printed(n: float, p: float) -> float:
    if p <= 1.0 / 3.0:
        return 0.0
    return 4.0 * sqrt(n) * (3.0 * p - 1.0) / (n + 1.0) ** 2


def _number(value) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


def read_rows(path: str, fmt: str) -> tuple[list[dict], dict]:
    """Rows as dicts keyed by column name, plus the JSON summary ({} for CSV)."""
    with open(path, encoding="utf-8", newline="") as handle:
        if fmt == "csv":
            lines = (line for line in handle if not line.startswith("#"))
            rows, summary = list(csv.DictReader(lines)), {}
        else:
            document = json.load(handle)
            rows, summary = document["rows"], document.get("summary", {})
    for row in rows:
        for column in _FLOAT_COLUMNS:
            row[column] = _number(row[column])
    return rows, summary


def check_rows(rows: list[dict]) -> tuple[list[str], dict[str, int]]:
    """Problems found in the rows, and the DISCREPANT count per mode."""
    problems: list[str] = []
    discrepant = {"pure": 0, "werner": 0}
    expected_werner_discrepant = 0

    def problem(row: dict, text: str) -> None:
        problems.append(
            f"{row['mode']} n={row['n']!r} alpha_sq={row['alpha_sq']!r} p={row['p']!r} "
            f"{row['bell']}/{row['bob']}: {text}"
        )

    for row in rows:
        mode, oracle = row["mode"], row["oracle_concurrence"]
        if row["verdict"] == "DISCREPANT":
            discrepant[mode] = discrepant.get(mode, 0) + 1
        elif row["verdict"] != "MATCH":
            problem(row, f"unknown verdict {row['verdict']!r}")

        if row["bob"] == "One":
            reference = 0.0
            if not oracle <= DEAD_TOL:
                problem(row, f"Bob-1 oracle {oracle!r} above {DEAD_TOL}")
        elif mode == "pure":
            x = row["alpha_sq"] if row["bell"].startswith("Phi") else 1.0 - row["alpha_sq"]
            reference = pure_reference(row["n"], x)
            if not abs(oracle - reference) <= PURE_TOL:
                problem(row, f"oracle {oracle!r} vs reference {reference!r}")
        elif mode == "werner":
            reference = werner_reference(row["n"], row["p"])
            if not abs(row["probability"] - 0.125) <= PROBABILITY_TOL:
                problem(row, f"probability {row['probability']!r}, expected 1/8")
            if not abs(oracle - reference) <= WERNER_TOL:
                problem(row, f"oracle {oracle!r} vs reference {reference!r}")
        else:
            problem(row, f"unknown mode {mode!r}")
            continue

        if mode == "pure" and row["verdict"] != "MATCH":
            problem(row, "pure verdict is not MATCH")
        if mode == "werner":
            printed = 0.0 if row["bob"] == "One" else werner_printed(row["n"], row["p"])
            expected_werner_discrepant += abs(reference - printed) > MATCH_TOL

    if discrepant["werner"] != expected_werner_discrepant:
        problems.append(
            f"{discrepant['werner']} Werner rows DISCREPANT, printed form predicts "
            f"{expected_werner_discrepant}"
        )
    if len(problems) > MAX_PROBLEMS:
        problems[MAX_PROBLEMS:] = [f"... and {len(problems) - MAX_PROBLEMS} more"]
    return problems, discrepant


def _points(rows: list[dict]) -> int:
    return len({(row["mode"], row["n"], row["alpha_sq"], row["p"]) for row in rows})


def check_sweep(path: str, fmt: str, mode: str, points: int) -> list[str]:
    """Problems in a `wteleport sweep` output over a grid of `points` points."""
    rows, summary = read_rows(path, fmt)
    problems = []
    if len(rows) != 8 * points:
        problems.append(f"{len(rows)} rows, expected 8 x {points} points")
    distinct = _points(rows)
    if distinct != points:
        problems.append(f"{distinct} distinct grid points, expected {points}")
    if any(row["mode"] != mode for row in rows):
        problems.append(f"rows of another mode than {mode!r}")
    found, discrepant = check_rows(rows)
    if summary and summary.get("discrepant") != discrepant[mode]:
        problems.append(
            f"summary says {summary.get('discrepant')} DISCREPANT, rows say {discrepant[mode]}"
        )
    return problems + found


def check_verify(path: str, fmt: str, exit_code: int) -> list[str]:
    """Problems in a `wteleport verify` output and its exit code."""
    rows, _ = read_rows(path, fmt)
    problems = [] if exit_code == 0 else [f"verify exited {exit_code}, expected 0"]
    for mode, expected in VERIFY_ROWS.items():
        count = sum(1 for row in rows if row["mode"] == mode)
        if count != expected:
            problems.append(f"{count} {mode} rows, expected {expected}")
    found, discrepant = check_rows(rows)
    if discrepant["pure"] != 0:
        problems.append(f"{discrepant['pure']} pure rows DISCREPANT, expected 0")
    if discrepant["werner"] != VERIFY_WERNER_DISCREPANT:
        problems.append(
            f"{discrepant['werner']} Werner rows DISCREPANT, expected {VERIFY_WERNER_DISCREPANT}"
        )
    return problems + found


def main(argv: list[str]) -> int:
    path, fmt, mode, points, exit_code = argv
    if mode == "verify":
        problems = check_verify(path, fmt, int(exit_code))
    else:
        problems = check_sweep(path, fmt, mode, int(points))
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
