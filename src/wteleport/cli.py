"""Command-line front end: protocol runs, parameter sweeps, oracle-vs-formula
verification, and the channel-rating quartic.

Exit codes: 0 success; 1 ``verify`` failure: a DISCREPANT pure row, a failed
spot check (engine against enumeration, pure or Werner, among them) or a
Bob-1 concurrence above ``DEADNESS_TOL``; 2 usage error; 3 numerical
failure.  Every format renders the same report: CSV and JSON carry full
double precision and are byte-stable for identical configurations; a table
rounds its rows to six significant digits (twelve for a quartic root) and
ends with the summary as indented ``key: value`` lines.  Only ``entry``, the
console script, freezes the collector (``gc.freeze``) before it exits, so
the collections at interpreter exit skip the objects left by the imports;
``main`` leaves the collector as it is.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from math import isfinite
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .analysis import (
    BOB_ONE_COLUMNS,
    DEFAULT_ALPHA_SQ_GRID,
    DEFAULT_P_GRID,
    PHI_ZERO_COLUMNS,
    PSI_ZERO_COLUMNS,
    SweepTable,
    _grid_tables,
    quartic,
    quartic_roots,
    sweep,
)
from .protocol import (
    BRANCH_ORDER,
    BellOutcome,
    BobOutcome,
    _mixed_results,
    _protocol_result,
    _pure_results,
    run_protocol_mixed,
)
from .states import DensityMatrix, InvalidBasis, InvalidInput, NumericalFailure, StateVector, _Frozen

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


class _PostState(_Frozen):
    """A run row's post-state cell: its amplitudes, or its density-matrix
    entries row-major, each formatted by the cell's format spec and joined by
    spaces (so complex reprs in CSV); ``[re, im]`` pairs in JSON."""

    __slots__ = ("values", "pairs")

    def __init__(self, post: StateVector | DensityMatrix) -> None:
        values = post.amplitudes if isinstance(post, StateVector) else post.entries
        pairs = np.stack([values.real, values.imag], axis=-1).tolist()
        self._set(values=tuple(values.reshape(-1).tolist()), pairs=pairs)

    def __format__(self, spec: str) -> str:
        return " ".join(format(value, spec) for value in self.values)

    def __str__(self) -> str:
        return format(self, "")


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


class _Labels(_Frozen):
    """A label column as integer codes into a small tuple of names: row i's
    label is ``names[codes[i]]``."""

    __slots__ = ("names", "codes")

    def __init__(self, names: tuple, codes: np.ndarray) -> None:
        self._set(names=names, codes=codes)

    def __len__(self) -> int:
        return len(self.codes)


# One block of rows, column by column: a 1-D float array, ``_Labels``, or None
# for a column the rows do not have.
Block = Mapping[str, np.ndarray | _Labels | None]


class Report(NamedTuple):
    """What a subcommand prints, in every format.  Each subcommand builds one
    and hands it to ``_write``, the only code that renders and writes output;
    CSV, JSON and the table all render the same ``comment``, ``columns``,
    ``blocks`` and ``document``.

    ``blocks`` yields the rows a ``Block`` at a time, keyed by ``columns``; it
    is consumed once, as it is written, so a sweep computes its next block
    only after the last one is written and let go.  Each block is formatted
    in one pass and written as strings of whole rows, about ``_JOIN_BYTES``
    long (see ``_rows``).  An absent column is an empty CSV field, a JSON
    ``null`` and a "-" table cell.
    ``document`` is the JSON output in key order; the rows are spliced in at
    its ``"rows"`` key, and the keys after it are rendered only once the rows
    are written, so a sweep's ``"summary"`` can count the rows as they go by.
    The table prints those keys after its rows.
    """

    comment: str
    columns: tuple[str, ...]
    blocks: Iterable[Block]
    document: dict
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


# The text, in (ASCII) bytes, that ``_rows`` joins into one string.  Below
# glibc's default mmap threshold (128 KiB), so each string and its UTF-8 copy
# come from the heap, not from mappings of their own.
_JOIN_BYTES = 65536


def _rows(block: Block, cells: Sequence[tuple], end: str) -> Iterator[str]:
    """The block's rows as text: the ``_cells(block[name], text, head)`` of
    each ``(name, text, head)`` side by side, each row closed by ``end``.

    The cells go into one (rows x (columns + 1)) grid, ``end`` in its last
    column.  The grid is joined and yielded ``max(1, _JOIN_BYTES // width)``
    rows at a time, ``width`` the length of the block's first row.
    """
    count = next(len(column) for column in block.values() if column is not None)
    grid = np.empty((count, len(cells) + 1), dtype=object)
    for j, (name, text, head) in enumerate(cells):
        grid[:, j] = _cells(block[name], text, head)
    grid[:, -1] = end
    step = max(1, _JOIN_BYTES // sum(map(len, grid[0])))
    for start in range(0, count, step):
        yield "".join(grid[start : start + step].ravel().tolist())


def _block_rows(blocks: Iterable[Block], cells: Sequence[tuple], end: str) -> Iterator[str]:
    """``_rows`` of each block in turn, each block and its grid let go before the
    next block is asked for (a ``for`` loop would hold the last one)."""
    return itertools.chain.from_iterable(map(lambda block: _rows(block, cells, end), blocks))


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
    yield from _block_rows(report.blocks, cells, "\n")


def _json_chunks(report: Report) -> Iterator[str]:
    """``json.dumps(report.document, indent=2) + "\\n"``, with the rows written
    one block at a time and spliced in at the ``"rows"`` key.

    Each row opens with the comma that separates it from the row before; the
    first string of rows drops it.
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
        rows = _block_rows(report.blocks, cells, "\n    }")
        head = next(rows, None)
        if head is not None:
            yield head[1:]
            yield from rows
        yield "]" if head is None else "\n  ]"
    yield "\n}\n"


def _table_text(align: str, spec: str) -> Callable[[object], str]:
    """A table cell: the value formatted by ``spec``, or "-" when absent, aligned by ``align``."""
    return lambda value: format("-" if value is None else format(value, spec), align)


# (title, alignment, format spec) of each column a table can hold.
_TABLE_COLUMNS = {
    "mode": ("mode", "<6", ""),
    "n": ("n", ">8", ".6g"),
    "alpha_sq": ("alpha_sq", ">9", ".6g"),
    "p": ("p", ">6", ".6g"),
    "bell": ("bell", "<8", ""),
    "bob": ("bob", "<4", ""),
    "probability": ("prob", ">10", ".6g"),
    "oracle_concurrence": ("oracle", ">10", ".6g"),
    "formula_concurrence": ("formula", ">10", ".6g"),
    "abs_diff": ("abs_diff", ">10", ".3e"),
    "verdict": ("verdict", "", ""),
    "concurrence": ("concurrence", ">11", ".6g"),
    "post_state": ("post_state", "", ".6g"),
    "root": ("root", ">16", ".12g"),
    "quartic_value": ("quartic_value", ">13", ".3e"),
}


def _summary_lines(document: dict, indent: str = "") -> Iterator[str]:
    """Each ``key: value`` of ``document`` as a line at ``indent``: a float to
    six significant digits, None as "-".  A dict value opens a block of its
    items two spaces deeper; a list of dicts, one such block per dict, its
    first line marked "- "."""
    for key, value in document.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:\n"
            yield from _summary_lines(value, indent + "  ")
        elif isinstance(value, list):
            yield f"{indent}{key}:\n"
            for item in value:
                lines = _summary_lines(item, indent + "    ")
                yield f"{indent}  - {next(lines)[len(indent) + 4 :]}"
                yield from lines
        else:
            text = format(value, ".6g") if isinstance(value, float) else value
            yield f"{indent}{key}: {'-' if value is None else text}\n"


def _table_chunks(report: Report) -> Iterator[str]:
    """The report as a table: the comment, a header and a rule, a line per row
    with the cells of ``_TABLE_COLUMNS``, then the document's keys after
    ``"rows"`` as ``_summary_lines``."""
    specs = [_TABLE_COLUMNS[name] for name in report.columns]
    header = " ".join(format(title, align) for title, align, _ in specs)
    yield f"{report.comment}\n{header}\n{'-' * len(header)}\n"
    cells = [
        (name, _table_text(align, spec), " " if j else "")
        for j, (name, (_, align, spec)) in enumerate(zip(report.columns, specs))
    ]
    yield from _block_rows(report.blocks, cells, "\n")
    keys = list(report.document)
    yield "".join(_summary_lines({k: report.document[k] for k in keys[keys.index("rows") + 1 :]}))


_WRITERS = {"csv": _csv_chunks, "json": _json_chunks, "table": _table_chunks}


def _write(report: Report, args: argparse.Namespace) -> int:
    """Render the report in ``args.format`` to ``args.output`` or stdout."""
    chunks = _WRITERS[args.format](report)
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


def _sweep_block(table: SweepTable) -> Block:
    """The table's rows in ``SWEEP_CSV_COLUMNS``, 8 per grid point, in sweep order."""
    branches = len(BRANCH_ORDER)
    count = len(table.n)
    return {
        "mode": _Labels((table.mode,), np.zeros(count * branches, dtype=np.intp)),
        "n": table.n.repeat(branches),
        "alpha_sq": None if table.alpha_sq is None else table.alpha_sq.repeat(branches),
        "p": None if table.p is None else table.p.repeat(branches),
        "bell": _Labels(_BELLS, np.tile(_BELL_CODES, count)),
        "bob": _Labels(_BOBS, np.tile(_BOB_CODES, count)),
        "probability": table.probability.ravel(),
        "oracle_concurrence": table.oracle.ravel(),
        "formula_concurrence": table.formula.ravel(),
        "abs_diff": table.abs_diff.ravel(),
        "verdict": _Labels(_VERDICTS, table.match.ravel().astype(np.intp)),
    }


_FAMILIES = {
    "phi_zero": PHI_ZERO_COLUMNS, "psi_zero": PSI_ZERO_COLUMNS, "bob_one": BOB_ONE_COLUMNS
}


def _tally(table: SweepTable | None) -> dict:
    """The table's verdict counts: ``rows``, ``match`` and ``discrepant``, then
    ``match`` and ``discrepant`` per family.  None, a Werner sweep that failed
    numerically, counts no rows."""
    match = np.zeros((0, len(BRANCH_ORDER)), dtype=bool) if table is None else table.match
    per_branch = match.sum(axis=0)  # matching rows of each branch column

    def counts(matched: np.ndarray) -> dict[str, int]:
        total = int(matched.sum())
        return {"match": total, "discrepant": len(match) * matched.size - total}

    return {
        "rows": match.size,
        **counts(per_branch),
        "families": {family: counts(per_branch.take(cols)) for family, cols in _FAMILIES.items()},
    }


# ---------------------------------------------------------------- run


def cmd_run(args: argparse.Namespace) -> int:
    (n_values, n_grid) = _parse_values(args.n, "--n")
    values, p_grid = _mode_parameter(args, len(n_values))
    if n_grid or p_grid:
        raise InvalidInput("run takes scalar parameters; use sweep for grids")
    n = float(n_values[0])
    value = float(values[0])

    if args.mode == "pure":
        result = _protocol_result(n, *(a[0] for a in _pure_results(value, n)))
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
            tuple(_PostState(b.post_state) for b in branches), np.arange(len(branches))
        ),
    }
    document = {
        "config": _config_dict(args, mode=args.mode, n=n, alpha_sq=alpha_sq, p=p),
        "rows": None,
        "summary": {"total_probability": result.total_probability},
    }
    return _write(Report(comment, RUN_COLUMNS, [rows], document), args)


# ---------------------------------------------------------------- sweep


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
    span = f"alpha_sq={args.alpha_sq}" if args.mode == "pure" else f"p={args.p}"
    comment = f"wteleport sweep mode={args.mode} n={args.n} {span}"
    summary = {"rows": 0, "match": 0, "discrepant": 0}
    document = {
        "config": _config_dict(args, mode=args.mode, n=args.n, alpha_sq=args.alpha_sq, p=args.p),
        "rows": None,
        "summary": summary,
    }

    def tallied(table: SweepTable) -> SweepTable:  # adds the table's counts to the summary
        tally = _tally(table)
        for key in summary:
            summary[key] += tally[key]
        return table

    tables = map(tallied, _grid_tables(args.mode, n_values, values))
    # The first block, before any output; a list iterator, unlike a list, lets go
    # of it once the next block is asked for.
    tables = itertools.chain(iter([next(tables)]), tables)
    blocks = map(_sweep_block, tables)
    return _write(Report(comment, SWEEP_CSV_COLUMNS, blocks, document), args)


# ---------------------------------------------------------------- verify


def _engine_error(oracle: np.ndarray, table: SweepTable, rows: np.ndarray) -> float:
    """Largest gap between the enumerated ``oracle``, probabilities and
    concurrences stacked (2, points, 8), and the engine's ``table`` at
    ``rows``, one row per point, in order."""
    if oracle.shape[1] != len(rows):
        raise NumericalFailure(f"engine check: {len(rows)} rows for {oracle.shape[1]} results")
    return float(np.abs(np.stack([table.probability[rows], table.oracle[rows]]) - oracle).max())


def _check(name: str, max_error: float) -> dict:
    return {"name": name, "max_error": max_error, "passed": max_error <= SPOT_CHECK_TOL}


def _spot_checks(pure: SweepTable, werner_engine: float) -> list[dict]:
    """Concurrence preservation at the state-independent points, and the sweep
    engine against the scalar enumeration: pure here, and Werner as measured
    in ``cmd_verify`` (0 when the Werner checks did not run).

    The pure points, enumerated once, are every grid input at n = 1, in the
    order the n-major ``pure`` table holds them, and alpha^2 = 1/(sqrt(n) + 1)
    at n = 4 and 9, the diagonal of their own 2 x 2 sweep.
    """
    points = [(1.0, alpha_sq) for alpha_sq in DEFAULT_ALPHA_SQ_GRID]
    grid = len(points)
    points += [(4.0, 1.0 / 3.0), (9.0, 1.0 / 4.0)]
    n_values, x = np.array(points).T
    probability, _, concurrence = _pure_results(x, n_values)
    oracle = np.stack([probability, concurrence])
    phi_zero = concurrence[:, BRANCH_ORDER.index((BellOutcome.PHI_PLUS, BobOutcome.ZERO))]
    gaps = np.abs(phi_zero - 2.0 * np.sqrt(x * (1.0 - x))).tolist()  # the input's concurrence
    checks = [_check("n=1 preserves concurrence for every grid input", max(gaps[:grid]))]
    for (n, alpha_sq), gap in zip(points[grid:], gaps[grid:]):
        name = f"n={n:.6g}, alpha_sq={alpha_sq:.6g} preserves concurrence"
        checks.append(_check(name, gap))
    special = sweep("pure", *zip(*points[grid:]))
    engine = max(
        _engine_error(oracle[:, :grid], pure, np.flatnonzero(pure.n == 1.0)),
        _engine_error(oracle[:, grid:], special, np.array([0, 3])),
        werner_engine,
    )
    checks.append(
        _check("sweep engine matches the enumeration (pure n=1, 4, 9; werner n=1)", engine)
    )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    pure = sweep("pure")
    werner: SweepTable | None = None
    werner_engine = 0.0
    werner_failure: NumericalFailure | None = None
    try:
        werner = sweep("werner")
        probability, _, _, concurrence = _mixed_results(DEFAULT_P_GRID, 1.0)
        werner_engine = _engine_error(
            np.stack([probability, concurrence]), werner, np.flatnonzero(werner.n == 1.0)
        )
    except NumericalFailure as exc:
        werner, werner_failure = None, exc
    spot_checks = _spot_checks(pure, werner_engine)
    pure_tally = _tally(pure)
    pure_failed = bool(pure_tally["discrepant"]) or not all(c["passed"] for c in spot_checks)
    # A pure-side failure outranks a numerical failure in the werner phase,
    # sweep or enumeration: a corrupted oracle should report as a
    # verification failure.
    if werner_failure is not None and not pure_failed:
        raise werner_failure

    tables = [pure] if werner is None else [pure, werner]
    dead_worst = max(float(t.oracle[:, BOB_ONE_COLUMNS].max()) for t in tables)
    dead_ok = dead_worst <= DEADNESS_TOL
    # The Werner closed form disagrees with the oracle wherever p > 1/3 (its
    # value can even exceed 1); that mismatch is a reproducible property of
    # the closed form itself, so its rows are DISCREPANT but never fail the run.
    exit_code = 1 if pure_failed or not dead_ok else 0
    summary = {
        "pure": pure_tally,
        "werner": {
            **_tally(werner),
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
        map(_sweep_block, tables),
        {"config": _config_dict(args), "rows": None, "summary": summary},
        exit_code,
    )
    return _write(report, args)


# ---------------------------------------------------------------- roots


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
    """The console script: run ``main``, freeze the collector, exit with
    ``main``'s code (see the module docstring)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
