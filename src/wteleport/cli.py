"""Command-line front end: protocol runs, parameter sweeps, oracle-vs-formula
verification, and the channel-rating quartic.

Exit codes: 0 success; 1 ``verify`` failure: a DISCREPANT pure row, a failed
spot check (engine against enumeration, pure or Werner, among them) or a
Bob-1 concurrence above ``DEADNESS_TOL``; 2 usage error; 3 numerical
failure.  Every format renders the same report: CSV and JSON carry full
double precision and are byte-stable for identical configurations; a table
rounds its rows to six significant digits (twelve for a quartic root) and
ends with the summary as indented ``key: value`` lines.  ``main`` alone
turns an outcome into an exit code; ``entry``, the console script, is
``os._exit(main())``, as a sweep's forked child leaves: no teardown runs.
"""
from __future__ import annotations

import argparse
import codecs
import contextlib
import errno
import functools
import io
import itertools
import json
import os
import sys
import warnings
from math import isfinite
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .analysis import (
    BOB_ONE_COLUMNS,
    DEFAULT_ALPHA_SQ_GRID,
    DEFAULT_P_GRID,
    PHI_ZERO_COLUMNS,
    PSI_ZERO_COLUMNS,
    SweepTable,
    _grid_tables,
    _table,
    quartic,
    quartic_roots,
    sweep,
)
from .protocol import BRANCH_ORDER, BellOutcome, BobOutcome, _mixed_results, _pure_results
from .states import InvalidBasis, InvalidInput, NumericalFailure, _Frozen

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
    """A run row's post-state cell, from its row of the oracle's arrays: its
    amplitudes (4,), or its density-matrix entries (4, 4) row-major, each
    formatted by the cell's format spec and joined by spaces (so complex reprs
    in CSV); ``[re, im]`` pairs in JSON."""

    __slots__ = ("values", "pairs")

    def __init__(self, values: np.ndarray) -> None:
        pairs = np.stack([values.real, values.imag], axis=-1).tolist()
        self._set(values=tuple(values.reshape(-1).tolist()), pairs=pairs)

    def __format__(self, spec: str) -> str:
        return " ".join(format(value, spec) for value in self.values)


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
    """A column as integer codes into its names: row i's cell is
    ``names[codes[i]]``.  The names are a small tuple of labels, a float
    array of grid values in grid order (see ``analysis._grid_table``), or the
    ``_Texts`` of a value axis."""

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

    ``blocks`` yields the rows a ``Block`` at a time, keyed by ``columns``, or
    as text already rendered, a string or a binary file of its UTF-8 bytes
    (see ``_copy``); it is consumed
    once, as it is written, so a sweep computes its next block only after the
    last one is written and let go.  Each block is formatted in one pass and written as strings of whole
    rows (see ``_rows``).  An absent column is an empty CSV field, a JSON
    ``null`` and a "-" table cell.
    ``document`` is the JSON output in key order; the rows are spliced in at
    its ``"rows"`` key, and the keys after it are rendered only once the rows
    are written, so a sweep's ``"summary"`` can count the rows as they go by.
    The table prints those keys after its rows.
    """

    comment: str
    columns: tuple[str, ...]
    blocks: Iterable[Block | str | io.BufferedIOBase]
    document: dict
    exit_code: int = 0


class _Texts(NamedTuple):
    """A value axis already rendered for one cell (see ``_row_cells``): the
    text of each grid value, as ``_texts`` writes it, and the longest one's
    length.  ``cmd_sweep`` renders an axis of at most ``_AXIS_TEXTS`` values
    once and names it by these."""

    texts: np.ndarray
    width: int


def _texts(column: np.ndarray | _Labels | None, cell: tuple):
    """The texts of a 1-D column by ``cell`` (see ``_row_cells``), one per
    distinct float or ``_Labels`` name, in an object array, and each value's
    index into it.  A float's text is ``head + format(value, spec)``, by
    ``repr`` when ``spec`` is empty (the same text, and the faster call); a
    name's is ``head + label(name)``, or formatted as a float's when ``label``
    is None; an absent column's one text (index 0) is ``head + absent``.  A
    ``_Labels`` column of floats is formatted as floats, one of ``_Texts``
    is rendered already.
    """
    _, head, spec, absent, label = cell
    if column is None:
        return np.array([head + absent], dtype=object), 0
    if isinstance(column, np.ndarray):
        texts, (index,), _ = _float_texts([column], head, spec)
        return texts, index
    if isinstance(column.names, _Texts):
        return column.names.texts, column.codes
    if not isinstance(column.names, np.ndarray):
        return _label_texts(column.names, cell), column.codes
    values, index = _distinct(column)
    return _format(values, head, spec)[0], index


def _format(values: list, head: str, spec: str) -> tuple[np.ndarray, list]:
    """Each float of ``values`` as ``head + format(value, spec)``, in an object
    array and in a list."""
    texts = map(format, values, itertools.repeat(spec)) if spec else map(repr, values)
    texts = list(map(head.__add__, texts))
    return np.array(texts, dtype=object), texts


def _float_texts(columns: list, head: str, spec: str):
    """The texts (see ``_texts``) of the distinct floats of all ``columns``,
    float arrays of one size, each formatted once; each column's index into
    them, one row per column; and each column's longest text.  Floats are keyed
    on their bits, so -0.0 and 0.0 stay apart.  A stable argsort of the bits
    sets equal ones side by side for ``_runs``, so the distinct floats come in
    the order of their bits, as ``np.unique`` gives them."""
    bits = [column.view(np.uint64) for column in columns]
    bits = bits[0] if len(bits) == 1 else np.concatenate(bits)
    order = bits.argsort(kind="stable")
    distinct, number = _runs(bits[order])
    index = np.empty_like(number)
    index[order] = number
    texts, strings = _format(distinct.view(np.float64).tolist(), head, spec)
    index = index.reshape(len(columns), -1)
    if len(columns) == 1:
        return texts, index, [max(map(len, strings))]
    lengths = np.fromiter(map(len, strings), np.intp, len(strings))
    return texts, index, lengths[index].max(axis=1).tolist()


@functools.lru_cache(maxsize=32)
def _label_texts(names: tuple, cell: tuple) -> np.ndarray:
    """The read-only texts of the label ``names`` by ``cell`` (see ``_texts``),
    formatted once: every block of a sweep asks for the same few."""
    _, head, spec, _, label = cell
    texts = map(label, names) if label else map(format, names, itertools.repeat(spec))
    texts = np.array(list(map(head.__add__, texts)), dtype=object)
    texts.setflags(write=False)
    return texts


def _distinct(column: _Labels) -> tuple[list, np.ndarray]:
    """The distinct float names of a ``_Labels`` column, as a list, and each
    row's index into them.  The names are in grid order, where equal ones sit
    side by side, so ``_runs`` needs no sort."""
    distinct, number = _runs(column.names.view(np.uint64))
    return distinct.view(np.float64).tolist(), number[column.codes]


def _runs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``bits``, a uint64 array in which equal values sit
    side by side, in their order, and each value's index into them: equal
    neighbours are merged and the runs numbered by ``cumsum``.  Floats viewed
    as their bits keep -0.0 apart from 0.0."""
    first = np.empty(len(bits), dtype=bool)  # whether each value differs from the one before
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    return bits[first], np.cumsum(first) - 1


# The text, in (ASCII) bytes, that ``_rows`` joins into one string, and that
# ``_copy`` reads of a child's text at a time where it cannot send it file to
# file.  Each string and its UTF-8 copy are heap transients of this size, and
# each string is one write: 32 KiB peaks as low as 16 KiB on the benchmark's
# grids, and 64 KiB about 0.14 MiB higher on its Werner JSON sweep, with half
# the writes of 16 KiB (BENCH_34.json).
_JOIN_BYTES = 32768


# The most texts one grid column of neighbouring columns may have, one per
# pair of theirs (see ``_grid``): each pair is joined once per block, which
# costs less than a column of the grid while they are this few.
_MERGED_TEXTS = 64


def _rows(block: Block, cells: Sequence[tuple], end: str) -> Iterator[str]:
    """The block's rows as text: the ``_texts(block[name], cell)`` of each
    ``cell``, ``name`` its first entry, side by side, each row closed by ``end``.

    The rows' cells go into one grid (see ``_grid``), which is joined and
    yielded ``max(1, _JOIN_BYTES // width)`` rows at a time, ``width`` the sum
    of each column's longest text and ``len(end)``: no row is wider, so only a
    string of one row can be longer.
    """
    grid, width = _grid(block, cells, end)
    step = max(1, _JOIN_BYTES // width)
    for start in range(0, len(grid), step):
        yield "".join(grid[start : start + step].ravel().tolist())


def _grid(block: Block, cells: Sequence[tuple], end: str) -> tuple[np.ndarray, int]:
    """The block's rows as a (rows x columns) grid of texts, and the sum of the
    columns' longest texts and ``len(end)``.

    Float columns whose cells share ``head`` and ``spec`` share their texts:
    each distinct value among them is formatted once.  Neighbouring columns,
    ``end`` the last, are rendered as one grid column while the pairs of their
    texts number at most ``_MERGED_TEXTS``.
    """
    rendered = [None] * len(cells)  # each column's texts, index and longest text
    floats = {}  # the positions of the float columns of each (head, spec)
    for j, cell in enumerate(cells):
        column = block[cell[0]]
        if isinstance(column, np.ndarray):
            floats.setdefault(cell[1:3], []).append(j)
            continue
        texts, index = _texts(column, cell)
        names = getattr(column, "names", None)
        width = names.width if isinstance(names, _Texts) else max(map(len, texts))
        rendered[j] = texts, index, width
    for (head, spec), positions in floats.items():
        texts, index, longest = _float_texts([block[cells[j][0]] for j in positions], head, spec)
        for j, column_index, width in zip(positions, index, longest):
            rendered[j] = texts, column_index, width
    rendered.append((np.array([end], dtype=object), 0, len(end)))
    merged = [rendered[0]]
    for texts, index, width in rendered[1:]:
        left, left_index, left_width = merged[-1]
        if len(left) * len(texts) <= _MERGED_TEXTS:
            pairs = (left[:, np.newaxis] + texts).ravel()
            merged[-1] = pairs, left_index * len(texts) + index, left_width + width
        else:
            merged.append((texts, index, width))
    count = next(len(column) for column in block.values() if column is not None)
    grid = np.empty((count, len(merged)), dtype=object)
    for j, (texts, index, _) in enumerate(merged):
        grid[:, j] = texts[index]
    return grid, sum(width for _, _, width in merged)


def _block_rows(
    blocks: Iterable[Block | str | io.BufferedIOBase], cells: Sequence[tuple], end: str
) -> Iterator[str | io.BufferedIOBase]:
    """``_rows`` of each block in turn, each block and its grid let go before the
    next block is asked for (a ``for`` loop would hold the last one).  A string,
    or a binary file of its UTF-8 bytes, is rows already rendered with ``cells``
    and ``end``, and passes as it is."""
    rendered = (str, io.IOBase)
    return itertools.chain.from_iterable(
        map(
            lambda block: (block,) if isinstance(block, rendered) else _rows(block, cells, end),
            blocks,
        )
    )


def _csv_chunks(report: Report) -> Iterator[str]:
    """The report as CSV: the bytes ``csv.writer`` writes, since no field needs quoting."""
    yield f"# {report.comment}\n" + ",".join(report.columns) + "\n"
    yield from _block_rows(report.blocks, *_row_cells("csv", report.columns))


def _json_chunks(report: Report) -> Iterator[str]:
    """``json.dumps(report.document, indent=2) + "\\n"``, with the rows written
    one block at a time and spliced in at the ``"rows"`` key; the first
    string of rows drops the comma that opens it (see ``_row_cells``).
    """
    separator = "{"
    for key, value in report.document.items():
        yield f"{separator}\n  {json.dumps(key)}: "
        separator = ","
        if key != "rows":
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
            continue
        yield "["
        rows = _block_rows(report.blocks, *_row_cells("json", report.columns))
        head = next(rows, None)
        if head is not None:
            yield head[1:]
            yield from rows
        yield "]" if head is None else "\n  ]"
    yield "\n}\n"


def _json_label(name) -> str:
    """A JSON label nested in a row, a post-state as its ``[re, im]`` pairs."""
    return json.dumps(name, indent=2, default=lambda cell: cell.pairs).replace("\n", "\n      ")


# (title, alignment, format spec) of each column a table can hold.  A post-state
# formats each entry by the whole spec, so its column takes no alignment.
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


def _row_cells(fmt: str, columns: Sequence[str]) -> tuple[list, str]:
    """The ``cells`` and ``end`` (see ``_rows``) of format ``fmt``'s rows of
    ``columns``: per column a cell ``(name, head, spec, absent, label)``, the
    data of ``_texts``' one rule.  CSV and JSON write a float by ``repr``, what
    ``str`` and ``json.dumps`` write for the finite floats rows hold.  A table's
    ``spec`` is a ``_TABLE_COLUMNS`` alignment and format spec in one."""
    if fmt == "json":
        heads = [f",\n      {json.dumps(name)}: " for name in columns]
        heads[0] = ",\n    {" + heads[0][1:]
        cells = [(name, head, "", "null", _json_label) for name, head in zip(columns, heads)]
        return cells, "\n    }"
    if fmt == "csv":
        return [(name, "," if j else "", "", "", None) for j, name in enumerate(columns)], "\n"
    cells = []
    for j, name in enumerate(columns):
        _, align, spec = _TABLE_COLUMNS[name]
        cells.append((name, " " if j else "", align + spec, format("-", align), None))
    return cells, "\n"


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
    specs = map(_TABLE_COLUMNS.get, report.columns)
    header = " ".join(format(title, align) for title, align, _ in specs)
    yield f"{report.comment}\n{header}\n{'-' * len(header)}\n"
    yield from _block_rows(report.blocks, *_row_cells("table", report.columns))
    keys = list(report.document)
    yield "".join(_summary_lines({k: report.document[k] for k in keys[keys.index("rows") + 1 :]}))


_WRITERS = {"csv": _csv_chunks, "json": _json_chunks, "table": _table_chunks}


def _write(report: Report, args: argparse.Namespace) -> int:
    """Render the report in ``args.format`` to ``args.output`` or stdout; a
    reader of stdout that has gone stops it (``main`` ends the run)."""
    chunks = _WRITERS[args.format](report)
    if args.output is None:
        with contextlib.suppress(BrokenPipeError):
            _emit(chunks, sys.stdout)
        return report.exit_code
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            _emit(chunks, handle)
    except OSError as exc:
        raise InvalidInput(f"cannot write --output {args.output!r}: {exc.strerror}") from exc
    return report.exit_code


def _emit(chunks: Iterable[str | io.BufferedIOBase], handle) -> None:
    """Write ``chunks`` to the text stream ``handle``: a string as text, and a
    binary file, text already in UTF-8, by ``_copy``."""
    for chunk in chunks:
        if isinstance(chunk, str):
            handle.write(chunk)
        else:
            _copy(chunk, handle)


def _copy(source: io.BufferedIOBase, handle) -> None:
    """Write the binary file ``source``, UTF-8 text, from its start to the text
    stream ``handle``, once the text before it is flushed: by ``os.sendfile``,
    file to file, where ``handle`` writes UTF-8 to a binary buffer with a file
    descriptor that takes it; else read ``_JOIN_BYTES`` at a time, written to
    that buffer or, where there is none (or ``handle`` has another encoding),
    decoded."""
    encoding = getattr(handle, "encoding", None)
    utf8 = encoding is not None and codecs.lookup(encoding).name == "utf-8"
    buffer = getattr(handle, "buffer", None) if utf8 else None
    handle.flush()
    offset = 0
    try:
        target = buffer.fileno()
        while sent := os.sendfile(target, source.fileno(), offset, 1 << 30):
            offset += sent
        return
    except (AttributeError, io.UnsupportedOperation):  # None, or no descriptor
        pass
    except OSError:
        if offset:  # part of the text is out
            raise
    source.seek(0)
    for piece in iter(lambda: source.read(_JOIN_BYTES), b""):
        if buffer is None:
            handle.write(piece.decode("utf-8"))
        else:
            buffer.write(piece)


# The outcome names, and the codes of the branches into them in ``BRANCH_ORDER``.
_BELLS = tuple(bell.value for bell in BellOutcome)
_BOBS = tuple(bob.value for bob in BobOutcome)
_BELL_CODES = np.array([_BELLS.index(bell.value) for bell, _ in BRANCH_ORDER])
_BOB_CODES = np.array([_BOBS.index(bob.value) for _, bob in BRANCH_ORDER])
_VERDICTS = ("DISCREPANT", "MATCH")  # indexed by the match flag


def _branch_rows(mode: str, n: tuple, alpha_sq: tuple | None, p: tuple | None):
    """The ``mode``, ``n``, ``alpha_sq``, ``p``, ``bell`` and ``bob`` columns of
    points given by the axes n and alpha_sq or p, each its values (or their
    ``_Texts``) and one code per point into them (see ``analysis._grid_table``),
    8 rows per point in ``BRANCH_ORDER``; the parameter ``mode`` does not take
    is None, an absent column."""
    branches, count = len(BRANCH_ORDER), len(n[1])

    def rows(axis: tuple | None) -> _Labels | None:
        return None if axis is None else _Labels(axis[0], axis[1].repeat(branches))

    return {
        "mode": _Labels((mode,), np.zeros(count * branches, dtype=np.intp)),
        "n": rows(n),
        "alpha_sq": rows(alpha_sq),
        "p": rows(p),
        "bell": _Labels(_BELLS, np.tile(_BELL_CODES, count)),
        "bob": _Labels(_BOBS, np.tile(_BOB_CODES, count)),
    }


def _sweep_block(table: SweepTable) -> Block:
    """The table's rows in ``SWEEP_CSV_COLUMNS``, 8 per grid point, in sweep order."""
    n, value = table._axes
    pure = table.mode == "pure"
    return {
        **_branch_rows(table.mode, n, value if pure else None, None if pure else value),
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
    per_branch = match.sum(axis=0).tolist()  # matching rows of each branch column

    def counts(columns: Sequence[int]) -> dict[str, int]:
        total = sum(per_branch[column] for column in columns)
        return {"match": total, "discrepant": len(match) * len(columns) - total}

    return {
        "rows": match.size,
        **counts(range(len(BRANCH_ORDER))),
        "families": {family: counts(columns) for family, columns in _FAMILIES.items()},
    }


# ---------------------------------------------------------------- run


def cmd_run(args: argparse.Namespace) -> int:
    """The eight branches of one point, read from the oracle's arrays as
    ``verify`` reads them; every format writes the parsed parameters."""
    (n_values, n_grid) = _parse_values(args.n, "--n")
    values, p_grid = _mode_parameter(args, len(n_values))
    if n_grid or p_grid:
        raise InvalidInput("run takes scalar parameters; use sweep for grids")
    n = float(n_values[0])
    value = float(values[0])

    point = np.zeros(1, dtype=np.intp)  # the one point's code into each axis
    if args.mode == "pure":
        probability, post, concurrence = (a[0] for a in _pure_results(value, n))
        alpha_sq, p, name = (values, point), None, "alpha_sq"
    else:
        probability, _, post, concurrence = (a[0] for a in _mixed_results(values, n))
        alpha_sq, p, name = None, (values, point), "p"
    rows = {
        **_branch_rows(args.mode, (n_values, point), alpha_sq, p),
        "probability": probability,
        "concurrence": concurrence,
        "post_state": _Labels(tuple(map(_PostState, post)), np.arange(len(post))),
    }
    comment = f"wteleport run mode={args.mode} n={_full(n)} {name}={_full(value)}"
    point = {"alpha_sq": None, "p": None, name: value}
    document = {
        "config": _config_dict(args, mode=args.mode, n=n, **point),
        "rows": None,
        "summary": {"total_probability": float(sum(probability))},
    }
    return _write(Report(comment, RUN_COLUMNS, [rows], document), args)


# ---------------------------------------------------------------- sweep


def _forks() -> bool:
    """Whether a sweep forks: ``os.fork`` exists and this process may run on 2 CPUs or more."""
    affinity = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))
    return hasattr(os, "fork") and len(affinity(0)) >= 2


class _Child:
    """A child, forked before any block is counted, that renders ``tables``
    with ``cells`` and ``end`` into an unlinked temporary file, sends the counts
    its ``summary`` adds over a pipe, closes it and leaves by ``os._exit``,
    flushing no inherited buffer; it stops once this process has gone.  ``rows()``
    yields its text if the counts came, as the file of its UTF-8 bytes, for
    ``_copy``, adding the counts to ``summary``, else the blocks of ``tables``
    computed here; ``close()`` kills and reaps the child."""

    def __init__(self, tables: Iterator[SweepTable], cells, end: str, summary: dict, fork: bool):
        self.tables, self.summary, self.pid, self.files = tables, summary, 0, []
        if not fork:
            return
        import tempfile
        try:
            self.files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            self.files += map(open, os.pipe(), ("rb", "wb"))
            self.text, self.counts, write = self.files
            with warnings.catch_warnings():
                # Python 3.12 warns that forking with threads (OpenBLAS's) may deadlock;
                # the child calls no BLAS or LAPACK, only ufuncs, a stable argsort and repr.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            return self.close()
        if self.pid == 0:
            parent = os.getppid()
            try:
                tables = itertools.takewhile(lambda _: os.getppid() == parent, tables)
                self.text.writelines(_block_rows(map(_sweep_block, tables), cells, end))
                self.text.flush()
                os.write(write.fileno(), json.dumps(summary).encode())
                write.close()
            finally:
                os._exit(0)  # the counts, not the exit status, tell the child's success
        write.close()

    def rows(self) -> Iterator[Block | io.BufferedIOBase]:
        counts = self.counts.read() if self.pid else b""  # to EOF: the child has closed the pipe
        if counts:
            for key, count in json.loads(counts).items():
                self.summary[key] += count
            yield self.text.buffer
        else:
            yield from map(_sweep_block, self.tables)

    def close(self) -> None:
        if self.pid:
            os.kill(self.pid, 9)  # SIGKILL
            os.waitpid(self.pid, 0)
        for file in self.files:
            file.close()


# The longest value axis (alpha^2 or p) a sweep renders once, before its first
# block, rather than in every block: about 100 KiB of texts, kept for the
# whole sweep.  It covers the benchmark's grids and the 10^5-point grids of
# the README; a longer axis is rendered a block at a time.
_AXIS_TEXTS = 1024


def _axis_texts(values: np.ndarray, cell: tuple) -> _Texts | None:
    """The ``_Texts`` by ``cell`` of the validated value axis ``values``, or
    None for an axis longer than ``_AXIS_TEXTS``."""
    if len(values) > _AXIS_TEXTS:
        return None
    texts, index = _texts(_Labels(values, np.arange(len(values))), cell)
    return _Texts(texts[index], max(map(len, texts)))


def cmd_sweep(args: argparse.Namespace) -> int:
    """Compute and write the sweep one grid block at a time.

    Both grids are validated whole, and the first block is computed, before
    any output is written or the ``--output`` file is opened; so a usage
    error, or a numerical failure in the first block, writes nothing.  A
    numerical failure in a later block leaves the rows written before it.
    When ``_forks()``, a ``_Child`` computes the later half of the blocks.
    """
    (n_values, n_grid) = _parse_values(args.n, "--n")
    values, p_grid = _mode_parameter(args, len(n_values))
    if not (n_grid or p_grid):
        raise InvalidInput("sweep needs at least one grid parameter (start:stop:count)")
    starts, values, grid_tables = _grid_tables(args.mode, n_values, values)
    cells, end = _row_cells(args.format, SWEEP_CSV_COLUMNS)
    # rendered here, before any block, so that a forked child inherits it
    axis = SWEEP_CSV_COLUMNS.index("alpha_sq" if args.mode == "pure" else "p")
    names = _axis_texts(values, cells[axis])
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

    half = (len(starts) + 1) // 2 if _forks() else len(starts)
    rest = map(tallied, grid_tables(starts[half:], names))
    child = _Child(rest, cells, end, summary, half < len(starts))
    try:
        first = map(tallied, grid_tables(starts[:half], names))
        # The first block, before any output; a list iterator, unlike a list,
        # lets go of it once the next block is asked for.
        first = itertools.chain(iter([next(first)]), first)
        blocks = itertools.chain(map(_sweep_block, first), child.rows())
        return _write(Report(comment, SWEEP_CSV_COLUMNS, blocks, document), args)
    finally:
        child.close()


# ---------------------------------------------------------------- verify


def _engine_error(mode: str, n: np.ndarray, value: np.ndarray, probability, concurrence) -> float:
    """Largest gap between the engine's table at the points (n[i], value[i])
    and their enumerated branch ``probability`` and ``concurrence``."""
    table = _table(mode, n, value)
    gaps = np.stack([table.probability - probability, table.oracle - concurrence])
    return float(np.abs(gaps).max())


def _check(name: str, max_error: float) -> dict:
    return {"name": name, "max_error": max_error, "passed": max_error <= SPOT_CHECK_TOL}


def _spot_checks(werner_engine: float) -> list[dict]:
    """Concurrence preservation at the state-independent points, and the sweep
    engine against the scalar enumeration: pure here, and Werner as measured
    in ``cmd_verify`` (0 when the Werner checks did not run).

    The pure points, every grid input at n = 1 and alpha^2 = 1/(sqrt(n) + 1)
    at n = 4 and 9, are enumerated once, and the engine evaluated at them.
    """
    points = [(1.0, alpha_sq) for alpha_sq in DEFAULT_ALPHA_SQ_GRID]
    grid = len(points)
    points += [(4.0, 1.0 / 3.0), (9.0, 1.0 / 4.0)]
    n_values, x = np.array(points).T
    probability, _, concurrence = _pure_results(x, n_values)
    phi_zero = concurrence[:, BRANCH_ORDER.index((BellOutcome.PHI_PLUS, BobOutcome.ZERO))]
    gaps = np.abs(phi_zero - 2.0 * np.sqrt(x * (1.0 - x))).tolist()  # the input's concurrence
    checks = [_check("n=1 preserves concurrence for every grid input", max(gaps[:grid]))]
    for (n, alpha_sq), gap in zip(points[grid:], gaps[grid:]):
        name = f"n={n:.6g}, alpha_sq={alpha_sq:.6g} preserves concurrence"
        checks.append(_check(name, gap))
    engine = max(_engine_error("pure", n_values, x, probability, concurrence), werner_engine)
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
        p = np.array(DEFAULT_P_GRID)
        probability, _, _, concurrence = _mixed_results(p, 1.0)
        werner_engine = _engine_error("werner", np.ones_like(p), p, probability, concurrence)
    except NumericalFailure as exc:
        werner, werner_failure = None, exc
    spot_checks = _spot_checks(werner_engine)
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
    comment = "wteleport verify (pure + werner default grids)"
    document = {"config": _config_dict(args), "rows": None, "summary": summary}
    blocks = map(_sweep_block, tables)
    return _write(Report(comment, SWEEP_CSV_COLUMNS, blocks, document, exit_code), args)


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
    comment = "wteleport roots: n^4 + 4n^3 + 6n^2 - 60n + 1"
    return _write(Report(comment, ("root", "quartic_value"), [rows], document), args)


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

    for name, command, text in (
        ("run", cmd_run, "run the protocol at one parameter point"),
        ("sweep", cmd_sweep, "oracle vs closed form over a parameter grid"),
        ("verify", cmd_verify, "run the default verification grids"),
        ("roots", cmd_roots, "positive roots of the channel-rating quartic"),
    ):
        p = sub.add_parser(name, help=text)
        if name in ("run", "sweep"):
            p.add_argument("--mode", choices=("pure", "werner"), required=True)
            p.add_argument("--n", required=True, help="channel parameter, scalar or start:stop:count")
            p.add_argument("--alpha-sq", dest="alpha_sq", help="input weight alpha^2 (pure mode)")
            p.add_argument("--p", help="Werner mixing weight (werner mode)")
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--output", help="write the report to this path instead of stdout")
        p.set_defaults(func=command)
    return parser


def _to_devnull(stream) -> None:
    """Point ``stream``'s file, if it has one, at devnull: no later flush may fail again."""
    with contextlib.suppress(OSError):  # io.UnsupportedOperation: no file
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


class _Closed(io.TextIOBase):
    """A standard stream closed before Python started, which ``sys`` holds as
    None: writing text to it fails as writing to a closed descriptor does."""

    def write(self, text: str) -> int:
        if text:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run ``argv`` (``sys.argv[1:]`` when None) and return its exit code: the
    subcommand's, argparse's, 2 for ``InvalidInput`` and ``InvalidBasis``, 3
    for ``NumericalFailure``.  Stdout is flushed on every path, and a failed
    write to it, a closed stdout's included, is exit 2 unless its reader has
    gone.  The message goes to stderr last; a stderr that cannot be written,
    or is closed, keeps the code."""
    # what argparse prints is held and written below, as the rest of a run is:
    # argparse itself ignores a failed write (3.11 and later) or raises it
    out, err = io.StringIO(), io.StringIO()
    code, message = 0, ""
    stdout, stderr = sys.stdout or _Closed(), sys.stderr or _Closed()
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = build_parser().parse_args(argv)
            with contextlib.redirect_stdout(stdout):
                code = args.func(args)
        except SystemExit as exc:  # argparse's
            code, message = (exc.code if isinstance(exc.code, int) else 2), err.getvalue()
            stdout.write(out.getvalue())
        except (InvalidInput, InvalidBasis) as exc:
            code, message = 2, f"error: {exc}\n"
        except NumericalFailure as exc:
            code, message = 3, f"numerical failure: {exc}\n"
        stdout.flush()
    except OSError as exc:  # from stdout: the run's other writes report their own
        _to_devnull(stdout)
        if not isinstance(exc, BrokenPipeError):
            code, message = 2, f"error: cannot write to stdout: {exc.strerror}\n"
    try:
        stderr.write(message)
        stderr.flush()
    except OSError:
        _to_devnull(stderr)
    return code


def entry() -> None:
    """The console script: ``main``'s code, by ``os._exit``."""
    os._exit(main())


if __name__ == "__main__":
    entry()
