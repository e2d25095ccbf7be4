"""Command-line front end: protocol runs, parameter sweeps, oracle-vs-formula
verification, and the channel-rating quartic.

Exit codes: 0 success, 1 verification failure in the pure rows, 2 usage
error, 3 numerical failure.  CSV and JSON outputs carry full double
precision and are byte-stable for identical configurations; tables round to
six significant digits.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from math import isfinite, sqrt
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .analysis import (
    BOB_ONE_COLUMNS,
    DEFAULT_ALPHA_SQ_GRID,
    DEFAULT_P_GRID,
    PHI_ZERO_COLUMNS,
    PSI_ZERO_COLUMNS,
    QuarticReport,
    SweepTable,
    input_concurrence,
    quartic,
    quartic_roots,
    sweep,
)
from .protocol import (
    BLOCK_POINTS,
    BRANCH_ORDER,
    BellOutcome,
    BobOutcome,
    ProtocolResult,
    _check_alpha_sq,
    _check_n,
    _check_p,
    run_protocol_mixed,
    run_protocol_pure,
)
from .states import DensityMatrix, InvalidBasis, InvalidInput, NumericalFailure, StateVector

SWEEP_CSV_COLUMNS = (
    "mode",
    "n",
    "alpha_sq",
    "p",
    "bell",
    "bob",
    "probability",
    "oracle_concurrence",
    "formula_concurrence",
    "abs_diff",
    "verdict",
)

RUN_COLUMNS = (
    "mode", "n", "alpha_sq", "p", "bell", "bob", "probability", "concurrence", "post_state"
)

# The largest sweep grid, in points (8 rows each): the top of the 10^4 to
# 10^6-point range the CLI is measured on.
MAX_GRID_POINTS = 10**6

SPOT_CHECK_TOL = 1e-10
DEADNESS_TOL = 1e-12


def _full(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _bits(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def _format_pure_state(state: StateVector) -> str:
    if state.is_zero():
        return "(zero)"
    terms = []
    for index, amp in enumerate(state.amplitudes):
        if abs(amp) < 1e-12:
            continue
        if abs(amp.imag) < 1e-12:
            coeff = _sig6(amp.real)
        else:
            coeff = f"({_sig6(amp.real)}{amp.imag:+.6g}j)"
        terms.append(f"{coeff}|{_bits(index, state.num_qubits)}>")
    return " + ".join(terms).replace("+ -", "- ")


def _format_matrix_lines(entries: np.ndarray, indent: str) -> list[str]:
    lines = []
    for row in entries:
        cells = []
        for value in row:
            if abs(value.imag) < 1e-12:
                cells.append(f"{value.real:>12.6g}")
            else:
                cells.append(f"{value.real:.6g}{value.imag:+.6g}j")
        lines.append(indent + "[" + "  ".join(cells) + "]")
    return lines


@dataclass(frozen=True)
class _PostState:
    """A run row's post-state cell: complex reprs in CSV, ``[re, im]`` pairs in
    JSON."""

    text: str
    pairs: list = field(compare=False)

    @classmethod
    def of(cls, post: StateVector | DensityMatrix) -> _PostState:
        values = post.amplitudes if isinstance(post, StateVector) else post.entries
        text = " ".join(repr(complex(v)) for v in values.reshape(-1))
        return cls(text, np.stack([values.real, values.imag], axis=-1).tolist())

    def __str__(self) -> str:
        return self.text


def _parse_values(text: str, name: str, points: int = 1) -> tuple[np.ndarray, bool]:
    """Parse a scalar or an inclusive grid spec start:stop:count into a float
    array of one or ``count`` values.

    ``points`` is the size of the grid this one is crossed with; the whole
    grid is checked against ``MAX_GRID_POINTS`` before any of it is built.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidInput(f"{name}: grid spec must be start:stop:count, got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise InvalidInput(f"{name}: grid spec must be numeric start:stop:count, got {text!r}")
        if count < 1:
            raise InvalidInput(f"{name}: grid count must be at least 1, got {count}")
        if count * points > MAX_GRID_POINTS:
            raise InvalidInput(
                f"{name}: a grid holds at most {MAX_GRID_POINTS} points, got {count * points}"
            )
        if not isfinite(stop - start):  # also an inf or NaN endpoint
            raise InvalidInput(
                f"{name}: grid endpoints and their span must be finite, got {text!r}"
            )
        if start > stop:
            raise InvalidInput(f"{name}: grid start must not exceed stop, got {text!r}")
        return np.linspace(start, stop, count), True
    try:
        return np.array([float(text)]), False
    except ValueError:
        raise InvalidInput(f"{name}: expected a number or start:stop:count, got {text!r}")


def _mode_parameter(args: argparse.Namespace, points: int) -> tuple[np.ndarray, bool]:
    """The grid of the parameter that matches --mode, crossed with ``points``
    n values; the other parameter must be absent."""
    if args.mode == "pure":
        if args.alpha_sq is None:
            raise InvalidInput("--alpha-sq is required with --mode pure")
        if args.p is not None:
            raise InvalidInput("--p does not apply to --mode pure")
        return _parse_values(args.alpha_sq, "--alpha-sq", points)
    if args.p is None:
        raise InvalidInput("--p is required with --mode werner")
    if args.alpha_sq is not None:
        raise InvalidInput("--alpha-sq does not apply to --mode werner")
    return _parse_values(args.p, "--p", points)


def _config_dict(args: argparse.Namespace, **extra) -> dict:
    return {"subcommand": args.subcommand, "format": args.format, **extra}


@dataclass(frozen=True)
class _Labels:
    """A label column as integer codes into a small tuple of names: row i's
    label is ``names[codes[i]]``."""

    names: tuple
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


# One block of rows, column by column: a 1-D float array, ``_Labels``, or None
# for a column the rows do not have.
Block = Mapping[str, np.ndarray | _Labels | None]


@dataclass(frozen=True)
class Report:
    """What a subcommand prints, in every format.  Each subcommand builds one
    and hands it to ``_write``, the only code that renders and writes output.

    ``blocks`` yields the rows a ``Block`` at a time, keyed by ``columns``; it
    is consumed once, as it is written, so a sweep computes its next block
    only after the last one is written.  An absent column is an empty CSV
    field and a JSON ``null``.  ``document`` is the JSON output in key order;
    the rows are spliced in at its ``"rows"`` key, and the keys after it are
    rendered only once the rows are written, so a sweep's ``"summary"`` can
    count the rows as they go by.  ``table`` holds the text of the table
    format, one or more whole lines at a time, each ending in a newline.
    """

    comment: str
    columns: tuple[str, ...]
    blocks: Iterable[Block]
    document: dict
    table: Iterable[str]
    exit_code: int = 0


def _cells(column: np.ndarray | _Labels | None, text: Callable[[object], str], head: str = ""):
    """``head + text(value)`` for every value of a 1-D column, with ``text``
    called once per distinct value, or once per name of ``_Labels``; an
    absent column is the one string ``head + text(None)``.

    Floats are keyed on their bits, so -0.0 and 0.0 stay apart.  The column is
    flattened first because the shape of ``np.unique``'s inverse for other
    shapes differs between numpy releases.
    """
    if column is None:
        return head + text(None)
    if isinstance(column, _Labels):
        return np.array([head + text(name) for name in column.names], dtype=object)[column.codes]
    distinct, inverse = np.unique(np.ravel(column).view(np.uint64), return_inverse=True)
    values = distinct.view(np.float64).tolist()
    return np.array([head + text(v) for v in values], dtype=object)[inverse.reshape(-1)]


def _rows(block: Block, cells: Sequence[tuple[str, Callable[[object], str], str]], end: str) -> str:
    """The block's rows as one string: the ``_cells(block[name], text, head)``
    of each ``(name, text, head)`` side by side, each row closed by ``end``.

    The cells go into a (rows x (columns + 1)) grid, ``end`` in its last
    column, which is joined once.
    """
    count = next(len(column) for column in block.values() if column is not None)
    grid = np.empty((count, len(cells) + 1), dtype=object)
    for j, (name, text, head) in enumerate(cells):
        grid[:, j] = _cells(block[name], text, head)
    grid[:, -1] = end
    return "".join(grid.ravel().tolist())


def _csv_text(value) -> str:
    """A CSV field: a float by repr (its ``str``), a label as it is, nothing when absent."""
    return "" if value is None else str(value)


def _json_text(value) -> str:
    """A JSON value nested in a row: a float by repr, anything else by ``json.dumps``.

    Rows hold finite floats only, whose repr is what ``json.dumps`` writes.
    """
    if isinstance(value, float):
        return repr(value)
    return json.dumps(value, indent=2, default=lambda cell: cell.pairs).replace("\n", "\n      ")


def _csv_chunks(report: Report) -> Iterator[str]:
    """The report as CSV: the bytes ``csv.writer`` writes, since no field needs quoting."""
    yield f"# {report.comment}\n" + ",".join(report.columns) + "\n"
    cells = [(name, _csv_text, "," if j else "") for j, name in enumerate(report.columns)]
    for block in report.blocks:
        yield _rows(block, cells, "\n")


def _json_chunks(report: Report) -> Iterator[str]:
    """``json.dumps(report.document, indent=2) + "\\n"``, with the rows written
    one block at a time and spliced in at the ``"rows"`` key.

    Each row opens with the comma that separates it from the row before; the
    first row of the document drops it.
    """
    cells = [
        (name, _json_text, (",\n    {" if j == 0 else ",") + f"\n      {json.dumps(name)}: ")
        for j, name in enumerate(report.columns)
    ]
    separator = "{"
    for key, value in report.document.items():
        yield f"{separator}\n  {json.dumps(key)}: "
        separator = ","
        if key != "rows":
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
            continue
        yield "["
        first = True
        for block in report.blocks:
            text = _rows(block, cells, "\n    }")
            yield text[1:] if first else text
            first = False
        yield "]" if first else "\n  ]"
    yield "\n}\n"


def _write(report: Report, args: argparse.Namespace) -> int:
    """Render the report in ``args.format`` to ``args.output`` or stdout."""
    if args.format == "csv":
        chunks = _csv_chunks(report)
    elif args.format == "json":
        chunks = _json_chunks(report)
    else:
        chunks = report.table
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise InvalidInput(f"cannot write --output {args.output!r}: {exc.strerror}") from exc
        return report.exit_code
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # Point stdout at devnull so the interpreter's final flush of what is
        # still buffered cannot fail again.  A reader that has gone, as with
        # `| head`, ends the run quietly; any other failure is like --output's.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise InvalidInput(f"cannot write to stdout: {exc.strerror}") from exc
    return report.exit_code


# The outcome names, and the codes of the branches into them in ``BRANCH_ORDER``.
_BELLS = tuple(bell.value for bell in BellOutcome)
_BOBS = tuple(bob.value for bob in BobOutcome)
_BELL_CODES = np.array([_BELLS.index(bell.value) for bell, _ in BRANCH_ORDER])
_BOB_CODES = np.array([_BOBS.index(bob.value) for _, bob in BRANCH_ORDER])
_VERDICTS = ("DISCREPANT", "MATCH")  # indexed by the match flag


def _sweep_blocks(table: SweepTable) -> Iterator[Block]:
    """The table's rows in ``SWEEP_CSV_COLUMNS``, ``BLOCK_POINTS`` grid points
    (8 rows each) at a time, in sweep order."""
    branches = len(BRANCH_ORDER)
    for start in range(0, len(table.n), BLOCK_POINTS):
        points = slice(start, start + BLOCK_POINTS)
        count = len(table.n[points])
        yield {
            "mode": _Labels((table.mode,), np.zeros(count * branches, dtype=np.intp)),
            "n": table.n[points].repeat(branches),
            "alpha_sq": None if table.alpha_sq is None else table.alpha_sq[points].repeat(branches),
            "p": None if table.p is None else table.p[points].repeat(branches),
            "bell": _Labels(_BELLS, np.tile(_BELL_CODES, count)),
            "bob": _Labels(_BOBS, np.tile(_BOB_CODES, count)),
            "probability": table.probability[points].ravel(),
            "oracle_concurrence": table.oracle[points].ravel(),
            "formula_concurrence": table.formula[points].ravel(),
            "abs_diff": table.abs_diff[points].ravel(),
            "verdict": _Labels(_VERDICTS, table.match[points].ravel().astype(np.intp)),
        }


def _table_text(align: str, spec: str) -> Callable[[object], str]:
    """A table cell: the value formatted by ``spec``, or "-" when absent, aligned by ``align``."""
    return lambda value: format("-" if value is None else format(value, spec), align)


# (column, title, alignment, number format) of each sweep table column.
_SWEEP_TABLE = (
    ("mode", "mode", "<6", ""),
    ("n", "n", ">8", ".6g"),
    ("alpha_sq", "alpha_sq", ">9", ".6g"),
    ("p", "p", ">6", ".6g"),
    ("bell", "bell", "<8", ""),
    ("bob", "bob", "<4", ""),
    ("probability", "prob", ">10", ".6g"),
    ("oracle_concurrence", "oracle", ">10", ".6g"),
    ("formula_concurrence", "formula", ">10", ".6g"),
    ("abs_diff", "abs_diff", ">10", ".3e"),
    ("verdict", "verdict", "", ""),
)


def _sweep_lines(comment: str, tables: Iterable[SweepTable]) -> Iterator[str]:
    header = " ".join(format(title, align) for _, title, align, _ in _SWEEP_TABLE)
    cells = [
        (name, _table_text(align, spec), " " if j else "")
        for j, (name, _, align, spec) in enumerate(_SWEEP_TABLE)
    ]
    yield f"{comment}\n{header}\n{'-' * len(header)}\n"
    for table in tables:
        for block in _sweep_blocks(table):
            yield _rows(block, cells, "\n")


# ---------------------------------------------------------------- run


def _run_lines(comment: str, result: ProtocolResult) -> list[str]:
    lines = [comment, ""]
    for b in result.branches:
        outcome = f"{b.bell.value}/{b.bob.value}"
        lines.append(
            f"branch {outcome:<14} "
            f"probability={_sig6(b.probability):<12} concurrence={b.concurrence:.6f}"
        )
        if isinstance(b.post_state, StateVector):
            lines.append(f"  post-state: {_format_pure_state(b.post_state)}")
        elif b.post_state.is_zero():
            lines.append("  post-state: (zero)")
        else:
            lines.append("  post-state matrix:")
            lines.extend(_format_matrix_lines(b.post_state.entries, "    "))
    lines.append("")
    lines.append(f"total probability: {_sig6(result.total_probability)}")
    return [line + "\n" for line in lines]


def cmd_run(args: argparse.Namespace) -> int:
    (n_values, n_grid) = _parse_values(args.n, "--n")
    values, p_grid = _mode_parameter(args, len(n_values))
    if n_grid or p_grid:
        raise InvalidInput("run takes scalar parameters; use sweep for grids")
    n = float(n_values[0])
    value = float(values[0])

    if args.mode == "pure":
        result = run_protocol_pure(sqrt(_check_alpha_sq(value)), n)
        alpha_sq, p = value, None
        comment = f"wteleport run mode=pure n={_full(n)} alpha_sq={_full(value)}"
    else:
        result = run_protocol_mixed(value, n)
        alpha_sq, p = None, value
        comment = f"wteleport run mode=werner n={_full(n)} p={_full(value)}"
    # Every format writes the parsed parameter, never one recomputed from the result.
    branches = result.branches  # in BRANCH_ORDER
    rows = {
        "mode": _Labels((args.mode,), np.zeros(len(branches), dtype=np.intp)),
        "n": np.full(len(branches), n),
        "alpha_sq": None if alpha_sq is None else np.full(len(branches), alpha_sq),
        "p": None if p is None else np.full(len(branches), p),
        "bell": _Labels(_BELLS, _BELL_CODES),
        "bob": _Labels(_BOBS, _BOB_CODES),
        "probability": np.array([b.probability for b in branches], dtype=float),
        "concurrence": np.array([b.concurrence for b in branches], dtype=float),
        "post_state": _Labels(
            tuple(_PostState.of(b.post_state) for b in branches), np.arange(len(branches))
        ),
    }
    document = {
        "config": _config_dict(args, mode=args.mode, n=n, alpha_sq=alpha_sq, p=p),
        "rows": None,
        "summary": {"total_probability": result.total_probability},
    }
    return _write(Report(comment, RUN_COLUMNS, [rows], document, _run_lines(comment, result)), args)


# ---------------------------------------------------------------- sweep


def _grid_blocks(n_values: np.ndarray, values: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The (n values, mode values) of each block of the n-major grid, at most
    ``BLOCK_POINTS`` points each, in sweep order: one n and a slice of the
    mode values when those fill a block, else whole rows of as many n as fit."""
    if len(values) >= BLOCK_POINTS:
        for i in range(len(n_values)):
            for start in range(0, len(values), BLOCK_POINTS):
                yield n_values[i : i + 1], values[start : start + BLOCK_POINTS]
    else:
        step = BLOCK_POINTS // len(values)
        for start in range(0, len(n_values), step):
            yield n_values[start : start + step], values


def _sweep_tables(
    mode: str, n_values: np.ndarray, values: np.ndarray, summary: dict
) -> Iterator[SweepTable]:
    """``sweep`` over one grid block at a time, adding each block's verdicts
    to the ``rows``, ``match`` and ``discrepant`` counts of ``summary``."""
    key = "alpha_sq_values" if mode == "pure" else "p_values"
    for n, value in _grid_blocks(n_values, values):
        table = sweep(mode, n_values=n, **{key: value})
        match = int(table.match.sum())
        summary["rows"] += len(table)
        summary["match"] += match
        summary["discrepant"] += len(table) - match
        yield table


def cmd_sweep(args: argparse.Namespace) -> int:
    """Compute and write the sweep one grid block at a time.

    Both grids are validated whole, and the first block is computed, before
    any output is written or the ``--output`` file is opened; so a usage
    error, or a numerical failure in the first block, writes nothing.  A
    numerical failure in a later block leaves the rows written before it.
    """
    (n_values, n_grid) = _parse_values(args.n, "--n")
    values, p_grid = _mode_parameter(args, len(n_values))
    if not (n_grid or p_grid):
        raise InvalidInput("sweep needs at least one grid parameter (start:stop:count)")
    if args.mode == "pure":
        _check_alpha_sq(values)
        span = f"alpha_sq={args.alpha_sq}"
    else:
        _check_p(values)
        span = f"p={args.p}"
    _check_n(n_values)

    comment = f"wteleport sweep mode={args.mode} n={args.n} {span}"
    summary = {"rows": 0, "match": 0, "discrepant": 0}
    document = {
        "config": _config_dict(args, mode=args.mode, n=args.n, alpha_sq=args.alpha_sq, p=args.p),
        "rows": None,
        "summary": summary,
    }
    tables = _sweep_tables(args.mode, n_values, values, summary)
    tables = itertools.chain([next(tables)], tables)  # the first block, before any output
    blocks = (block for table in tables for block in _sweep_blocks(table))
    return _write(
        Report(comment, SWEEP_CSV_COLUMNS, blocks, document, _sweep_lines(comment, tables)), args
    )


# ---------------------------------------------------------------- verify


_FAMILIES = (
    ("phi_zero", PHI_ZERO_COLUMNS, "Phi+/Phi- with Bob 0"),
    ("psi_zero", PSI_ZERO_COLUMNS, "Psi+/Psi- with Bob 0"),
    ("bob_one", BOB_ONE_COLUMNS, "any Bell with Bob 1 "),
)


def _family_counts(table: SweepTable | None) -> dict[str, dict[str, int]]:
    counts = {}
    for family, columns, _ in _FAMILIES:
        match = table.match[:, columns] if table is not None else np.zeros(0, dtype=bool)
        counts[family] = {"match": int(match.sum()), "discrepant": int((~match).sum())}
    return counts


def _engine_error(result: ProtocolResult, table: SweepTable, point: int) -> float:
    """Largest probability or concurrence gap between enumeration and engine at one point."""
    probability = [b.probability for b in result.branches]
    concurrence = [b.concurrence for b in result.branches]
    return max(
        float(np.abs(table.probability[point] - probability).max()),
        float(np.abs(table.oracle[point] - concurrence).max()),
    )


def _check(name: str, max_error: float) -> dict:
    return {"name": name, "max_error": max_error, "passed": max_error <= SPOT_CHECK_TOL}


def _werner_engine_error(werner: SweepTable) -> float:
    """Largest gap between the Werner sweep engine and the enumeration at n = 1."""
    points = {key: i for i, key in enumerate(zip(werner.n.tolist(), werner.p.tolist()))}
    return max(
        _engine_error(run_protocol_mixed(p, 1.0), werner, points[1.0, p]) for p in DEFAULT_P_GRID
    )


def _spot_checks(pure: SweepTable, werner_engine: float) -> list[dict]:
    """Concurrence preservation at the state-independent points, and the sweep
    engine against the scalar enumeration: pure here, and Werner as measured
    by ``_werner_engine_error`` (0 when the Werner checks did not run)."""
    pure_points = {key: i for i, key in enumerate(zip(pure.n.tolist(), pure.alpha_sq.tolist()))}

    worst = engine_worst = 0.0
    for alpha_sq in DEFAULT_ALPHA_SQ_GRID:
        alpha = sqrt(alpha_sq)
        result = run_protocol_pure(alpha, 1.0)
        branch = result.branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO)
        worst = max(worst, abs(branch.concurrence - input_concurrence(alpha)))
        engine_worst = max(engine_worst, _engine_error(result, pure, pure_points[1.0, alpha_sq]))
    checks = [_check("n=1 preserves concurrence for every grid input", worst)]

    for n, alpha_sq in ((4.0, 1.0 / 3.0), (9.0, 1.0 / 4.0)):
        alpha = sqrt(alpha_sq)
        result = run_protocol_pure(alpha, n)
        branch = result.branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO)
        checks.append(
            _check(
                f"n={_sig6(n)}, alpha_sq={_sig6(alpha_sq)} preserves concurrence",
                abs(branch.concurrence - input_concurrence(alpha)),
            )
        )
        point = sweep("pure", n_values=(n,), alpha_sq_values=(alpha_sq,))
        engine_worst = max(engine_worst, _engine_error(result, point, 0))

    checks.append(
        _check(
            "sweep engine matches the enumeration (pure n=1, 4, 9; werner n=1)",
            max(engine_worst, werner_engine),
        )
    )
    return checks


def _verify_lines(summary: dict, werner: SweepTable | None) -> list[str]:
    lines = ["wteleport verify", "================"]
    for mode in ("pure", "werner"):
        lines.append(f"{mode} sweep: {summary[mode]['rows']} rows")
        for family, _, label in _FAMILIES:
            c = summary[mode]["families"][family]
            lines.append(f"  {label}: {c['match']} MATCH, {c['discrepant']} DISCREPANT")
    if summary["werner"]["numerical_failure"] is not None:
        lines.append(f"werner checks aborted: {summary['werner']['numerical_failure']}")
    lines.append("spot checks:")
    for check in summary["spot_checks"]:
        state = "PASS" if check["passed"] else "FAIL"
        lines.append(f"  {check['name']}: {state} (max error {check['max_error']:.3e})")
    lines.append(
        f"Bob-outcome-1 branches carry no entanglement: "
        f"{'PASS' if summary['bob_one_dead'] else 'FAIL'} "
        f"(max {summary['bob_one_max_concurrence']:.3e})"
    )
    # The werner closed form disagrees with the oracle wherever p > 1/3 (its
    # value can even exceed 1); that mismatch is a reproducible property of
    # the closed form itself, so it is reported but never fails the run.
    werner_examples = [] if werner is None else np.flatnonzero(werner.p == 1.0).tolist()
    if werner_examples:
        lines.append(
            "werner closed form vs oracle at p=1 "
            "(documented mismatch, does not affect the exit code):"
        )
        bell, bob = BellOutcome.PHI_PLUS, BobOutcome.ZERO
        k = BRANCH_ORDER.index((bell, bob))
        for i in werner_examples:
            formula, oracle = werner.formula[i, k], werner.oracle[i, k]
            lines.append(
                f"  n={_sig6(werner.n[i])} p={_sig6(werner.p[i])} {bell.value}/{bob.value}: "
                f"formula={_sig6(formula)} oracle={_sig6(oracle)} "
                f"{'MATCH' if werner.match[i, k] else 'DISCREPANT'}"
            )
    exit_code = summary["exit_code"]
    lines.append(f"result: {'FAIL' if exit_code else 'PASS'} (exit {exit_code})")
    return [line + "\n" for line in lines]


def cmd_verify(args: argparse.Namespace) -> int:
    pure = sweep("pure")
    werner: SweepTable | None = None
    werner_engine = 0.0
    werner_failure: NumericalFailure | None = None
    try:
        werner = sweep("werner")
        werner_engine = _werner_engine_error(werner)
    except NumericalFailure as exc:
        werner, werner_failure = None, exc
    spot_checks = _spot_checks(pure, werner_engine)
    pure_discrepant = int((~pure.match).sum())
    pure_failed = bool(pure_discrepant) or not all(c["passed"] for c in spot_checks)
    # A pure-side failure outranks a numerical failure in the werner phase,
    # sweep or enumeration: a corrupted oracle should report as a
    # verification failure.
    if werner_failure is not None and not pure_failed:
        raise werner_failure

    tables = [pure] if werner is None else [pure, werner]
    dead_worst = max(float(t.oracle[:, BOB_ONE_COLUMNS].max()) for t in tables)
    dead_ok = dead_worst <= DEADNESS_TOL
    exit_code = 1 if pure_failed or not dead_ok else 0
    werner_rows = 0 if werner is None else len(werner)
    werner_match = 0 if werner is None else int(werner.match.sum())
    summary = {
        "pure": {
            "rows": len(pure),
            "match": len(pure) - pure_discrepant,
            "discrepant": pure_discrepant,
            "families": _family_counts(pure),
        },
        "werner": {
            "rows": werner_rows,
            "match": werner_match,
            "discrepant": werner_rows - werner_match,
            "families": _family_counts(werner),
            "numerical_failure": None if werner_failure is None else str(werner_failure),
        },
        "spot_checks": spot_checks,
        "bob_one_max_concurrence": dead_worst,
        "bob_one_dead": dead_ok,
        "exit_code": exit_code,
    }
    report = Report(
        "wteleport verify (pure + werner default grids)",
        SWEEP_CSV_COLUMNS,
        (block for table in tables for block in _sweep_blocks(table)),
        {"config": _config_dict(args), "rows": None, "summary": summary},
        _verify_lines(summary, werner),
        exit_code,
    )
    return _write(report, args)


# ---------------------------------------------------------------- roots


def _roots_lines(roots: QuarticReport) -> list[str]:
    lines = ["quartic n^4 + 4n^3 + 6n^2 - 60n + 1"]
    for i, r in enumerate(roots.roots_positive, start=1):
        lines.append(f"  root {i}: {r:.12g}   (quartic value {quartic(r):.3e})")
    lines.append("sign on (0, inf):")
    for region in roots.sign_regions:
        upper = "inf" if region.upper is None else f"{region.upper:.12g}"
        sign = ">= 0 (inequality holds)" if region.sign > 0 else "< 0 (inequality fails)"
        lines.append(f"  ({region.lower:.12g}, {upper}): {sign}")
    return [line + "\n" for line in lines]


def cmd_roots(args: argparse.Namespace) -> int:
    roots = quartic_roots()
    document = {
        "config": _config_dict(args),
        "coefficients": list(roots.coefficients),
        "roots": list(roots.roots_positive),
        "rows": None,
        "sign_regions": [region._asdict() for region in roots.sign_regions],
        "summary": {"positive_roots": len(roots.roots_positive)},
    }
    rows = {
        "root": np.array(roots.roots_positive),
        "quartic_value": np.array([quartic(r) for r in roots.roots_positive]),
    }
    report = Report(
        "wteleport roots: n^4 + 4n^3 + 6n^2 - 60n + 1",
        ("root", "quartic_value"),
        [rows],
        document,
        _roots_lines(roots),
    )
    return _write(report, args)


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wteleport",
        description=(
            "Teleportation of entanglement over the |W_n> channel family: "
            "exact branch enumeration and closed-form verification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, with_params: bool) -> None:
        if with_params:
            p.add_argument("--mode", choices=("pure", "werner"), required=True)
            p.add_argument("--n", required=True, help="channel parameter, scalar or start:stop:count")
            p.add_argument("--alpha-sq", dest="alpha_sq", help="input weight alpha^2 (pure mode)")
            p.add_argument("--p", help="Werner mixing weight (werner mode)")
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--output", help="write the report to this path instead of stdout")

    p_run = sub.add_parser("run", help="run the protocol at one parameter point")
    add_common(p_run, with_params=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="oracle vs closed form over a parameter grid")
    add_common(p_sweep, with_params=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the default verification grids")
    add_common(p_verify, with_params=False)
    p_verify.set_defaults(func=cmd_verify)

    p_roots = sub.add_parser("roots", help="positive roots of the channel-rating quartic")
    add_common(p_roots, with_params=False)
    p_roots.set_defaults(func=cmd_roots)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (InvalidInput, InvalidBasis) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
