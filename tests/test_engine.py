"""The batched branch engine behind ``sweep``, cross-checked against the
scalar five-qubit enumeration it replaces in sweeps, for pure and Werner
inputs alike."""
import csv
import io
import json

import numpy as np
import pytest

import wteleport.cli
import wteleport.protocol
from wteleport import (
    BellOutcome,
    BobOutcome,
    InvalidInput,
    NumericalFailure,
    StateVector,
    SweepTable,
    bell_basis,
    branch_map,
    computational_basis,
    concurrence_mixed,
    concurrence_pure,
    run_protocol_mixed,
    run_protocol_pure,
    sweep,
    werner,
)
from wteleport.cli import (
    SWEEP_CSV_COLUMNS,
    Report,
    _csv_chunks,
    _json_chunks,
    _Labels,
    _parse_values,
    _sweep_blocks,
    _sweep_lines,
    main,
)
from wteleport.concurrence import (
    concurrence_mixed_batch,
    concurrence_pure_batch,
    concurrence_x_batch,
)
from wteleport.protocol import BRANCH_ORDER, branch_maps, pure_branches, werner_branches
from wteleport.states import ZERO_PROBABILITY_CUTOFF, check_density_matrices

N_LOG_GRID = np.logspace(-6, 6, 25)


def _grid(second):
    """Flattened (n, second) coordinates of the N_LOG_GRID x second grid."""
    return (a.ravel() for a in np.meshgrid(N_LOG_GRID, second, indexing="ij"))


def _enumerated(results):
    results = list(results)
    probability = np.array([[b.probability for b in r.branches] for r in results])
    concurrence = np.array([[b.concurrence for b in r.branches] for r in results])
    return probability, concurrence


def test_pure_engine_matches_enumeration():
    n, alpha_sq = _grid(np.linspace(0.0, 1.0, 21))
    alpha = np.sqrt(alpha_sq)
    probability, concurrence = pure_branches(alpha, n)
    expected_p, expected_c = _enumerated(run_protocol_pure(a, m) for a, m in zip(alpha, n))
    assert np.abs(probability - expected_p).max() <= 1e-15
    assert np.abs(concurrence - expected_c).max() <= 1e-13


def test_werner_engine_matches_enumeration():
    n, p = _grid(np.linspace(0.0, 1.0, 21))
    probability, concurrence = werner_branches(p, n)
    expected_p, expected_c = _enumerated(run_protocol_mixed(q, m) for q, m in zip(p, n))
    assert np.abs(probability - expected_p).max() <= 1e-15
    # the Wootters square roots amplify eigenvalue roundoff
    assert np.abs(concurrence - expected_c).max() <= 1e-10


def test_werner_bob_zero_matches_the_derived_form():
    # each Bob-0 branch has probability 1/8 and C = max(0, sqrt(n) (3p-1) / (n+1))
    n, p = (a.ravel() for a in np.meshgrid(np.logspace(-12, 12, 97), np.linspace(0, 1, 21)))
    probability, concurrence = werner_branches(p, n)
    bob_zero = [k for k, (_, bob) in enumerate(BRANCH_ORDER) if bob is BobOutcome.ZERO]
    derived = np.maximum(0.0, np.sqrt(n) * (3.0 * p - 1.0) / (n + 1.0))
    assert np.abs(probability[:, bob_zero] - 0.125).max() <= 1e-15
    assert np.abs(concurrence[:, bob_zero] - derived[:, None]).max() <= 1e-15
    # the engine's X-state kernel against Wootters' formula on the same post-states
    maps = branch_maps(n)
    rho = np.array([werner(q).entries for q in p])
    weighted = maps @ rho[:, np.newaxis] @ np.swapaxes(maps, -1, -2)
    trace = np.trace(weighted, axis1=-2, axis2=-1).real
    alive = trace >= ZERO_PROBABILITY_CUTOFF
    post = weighted[alive] / trace[alive][:, None, None]
    assert np.abs(concurrence_x_batch(post) - concurrence_mixed_batch(post)).max() <= 1e-13


def test_x_kernel_rejects_entries_off_the_x():
    rho = np.eye(4) / 4.0
    rho[0, 1] = rho[1, 0] = 1e-300
    with pytest.raises(NumericalFailure, match="off the X"):
        concurrence_x_batch(rho[np.newaxis])


@pytest.mark.parametrize("engine", [pure_branches, werner_branches])
def test_blocks_do_not_change_results(monkeypatch, engine):
    n = np.linspace(0.1, 10.0, 23)
    value = np.linspace(0.0, 1.0, 23)
    whole = engine(value, n)
    monkeypatch.setattr(wteleport.protocol, "BLOCK_POINTS", 4)
    blocked = engine(value, n)
    for a, b in zip(whole, blocked):
        np.testing.assert_array_equal(a, b)


def test_branch_map_is_a_slice_of_branch_maps():
    maps = branch_maps(np.array([0.3, 7.0]))
    assert maps.shape == (2, 8, 4, 4)
    for k, (bell, bob) in enumerate(BRANCH_ORDER):
        np.testing.assert_array_equal(branch_map(7.0, bell, bob), maps[1, k])
        # identity on qubit 1 times a 2x2 action
        np.testing.assert_array_equal(maps[1, k], np.kron(np.eye(2), maps[1, k, :2, :2]))
    completeness = np.einsum("kji,kjl->il", maps[0], maps[0])
    np.testing.assert_allclose(completeness, np.eye(4), atol=1e-15)


def test_batched_validators_raise_invalid_input():
    with pytest.raises(InvalidInput, match="channel parameter n"):
        branch_maps(np.array([1.0, 0.0]))
    with pytest.raises(InvalidInput, match="alpha must lie"):
        pure_branches(np.array([0.5, 1.5]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidInput, match="mixing weight p"):
        werner_branches(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(InvalidInput, match="channel parameter n"):
        sweep("werner", n_values=(1.0, np.inf))
    # X-states the kernel must reject as check_density_matrices does, message and all
    bell = werner(1.0).entries.real
    asymmetric, long_trace, negative = bell.copy(), bell.copy(), bell.copy()
    asymmetric[0, 3] += 1e-9
    long_trace[1, 1] += 1e-9
    negative[0, 3] = negative[3, 0] = 0.5 + 2e-10  # smallest eigenvalue -2e-10
    non_finite = bell.copy()
    non_finite[2, 2] = np.nan
    for bad in (asymmetric, long_trace, negative, non_finite):
        with pytest.raises(InvalidInput) as expected:
            check_density_matrices(bad[np.newaxis])
        with pytest.raises(InvalidInput) as raised:
            concurrence_x_batch(np.array([bell, bad]))
        assert str(raised.value) == str(expected.value)
    # within NORM_TOL of positive semidefinite passes both
    negative[0, 3] = negative[3, 0] = 0.5 + 4e-11
    check_density_matrices(negative[np.newaxis])
    assert concurrence_x_batch(negative[np.newaxis]) == pytest.approx(1.0, abs=1e-9)


def test_scalar_concurrences_delegate_to_the_kernels():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    batch = concurrence_pure_batch(amps)
    for a, c in zip(amps, batch):
        assert concurrence_pure(StateVector((1, 2), a)) == c
    p = np.linspace(0.0, 1.0, 7)
    mats = np.array([werner(q).entries for q in p])
    np.testing.assert_array_equal(
        concurrence_mixed_batch(mats), [concurrence_mixed(werner(q)) for q in p]
    )
    with pytest.raises(InvalidInput, match="normalized"):
        concurrence_pure_batch(0.5 * amps)
    amps[2, 1] = np.nan
    with pytest.raises(InvalidInput, match="normalized"):
        concurrence_pure_batch(amps)


def test_bases_are_built_once():
    assert bell_basis((2, 3)) is bell_basis([2, 3])
    assert computational_basis((5,)) is computational_basis([5])
    assert bell_basis((2, 3)) is not bell_basis((3, 2))


def _rows(tables):
    """Every row of the tables as dicts keyed by the sweep columns, built point
    by point and branch by branch straight from the tables' arrays."""
    rows = []
    for table in tables:
        for i, n in enumerate(table.n.tolist()):
            for k, (bell, bob) in enumerate(BRANCH_ORDER):
                rows.append({
                    "mode": table.mode,
                    "n": n,
                    "alpha_sq": None if table.alpha_sq is None else table.alpha_sq[i].item(),
                    "p": None if table.p is None else table.p[i].item(),
                    "bell": bell.value,
                    "bob": bob.value,
                    "probability": table.probability[i, k].item(),
                    "oracle_concurrence": table.oracle[i, k].item(),
                    "formula_concurrence": table.formula[i, k].item(),
                    "abs_diff": table.abs_diff[i, k].item(),
                    "verdict": "MATCH" if table.match[i, k] else "DISCREPANT",
                })
    return rows


def _decoded(column):
    """A block column as an array, label codes replaced by their names."""
    if isinstance(column, _Labels):
        return np.array(column.names, dtype=object)[column.codes]
    return column


def _block_rows(blocks):
    """The rows of column blocks, as dicts keyed by the sweep columns."""
    rows = []
    for block in blocks:
        assert list(block) == list(SWEEP_CSV_COLUMNS)
        block = {c: _decoded(block[c]) for c in block}
        count = len(block["mode"])
        assert all(block[c] is None or block[c].shape == (count,) for c in block)
        columns = [[None] * count if block[c] is None else block[c].tolist() for c in block]
        rows += [dict(zip(SWEEP_CSV_COLUMNS, row)) for row in zip(*columns)]
    return rows


def test_sweep_rows_follow_the_table(monkeypatch):
    table = sweep("pure", n_values=(0.5, 2.0), alpha_sq_values=(0.2, 0.7, 0.9))
    assert isinstance(table, SweepTable)
    rows = _block_rows(_sweep_blocks(table))
    assert len(rows) == len(table) == 3 * 2 * 8
    assert [(r["bell"], r["bob"]) for r in rows[:8]] == [
        (bell.value, bob.value) for bell, bob in BRANCH_ORDER
    ]
    assert [(r["n"], r["alpha_sq"]) for r in rows[::8]] == [
        (n, a) for n in (0.5, 2.0) for a in (0.2, 0.7, 0.9)
    ]
    assert {r["p"] for r in rows} == {None}
    assert all(type(r[c]) is float for r in rows for c in ("n", "alpha_sq", "probability"))
    phi = rows[8 * 4]  # n = 2, alpha^2 = 0.7, Phi+/Zero
    assert (phi["bell"], phi["bob"]) == (BellOutcome.PHI_PLUS.value, BobOutcome.ZERO.value)
    assert phi["probability"] == table.probability[4, 0]
    assert phi["oracle_concurrence"] == table.oracle[4, 0]
    assert phi["verdict"] == ("MATCH" if table.match[4, 0] else "DISCREPANT")
    assert rows == _rows([table])
    monkeypatch.setattr(wteleport.cli, "BLOCK_POINTS", 4)
    blocks = list(_sweep_blocks(table))
    assert [len(block["n"]) for block in blocks] == [4 * 8, 2 * 8]
    assert _block_rows(blocks) == rows


# Reference renderings of sweep rows: csv.writer and json.dumps, row by row.


def _reference_csv(rows, comment: str) -> str:
    def full(x):
        return "" if x is None else repr(float(x))

    buffer = io.StringIO()
    buffer.write(f"# {comment}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [r["mode"], full(r["n"]), full(r["alpha_sq"]), full(r["p"]), r["bell"], r["bob"],
             full(r["probability"]), full(r["oracle_concurrence"]),
             full(r["formula_concurrence"]), full(r["abs_diff"]), r["verdict"]]
        )
    return buffer.getvalue()


def _reference_json(config, rows, summary) -> str:
    return json.dumps({"config": config, "rows": rows, "summary": summary}, indent=2) + "\n"


@pytest.mark.parametrize(
    "tables",
    [
        lambda: [sweep("pure", n_values=(0.5, 2.0), alpha_sq_values=(0.0, 0.37, 1.0))],
        lambda: [sweep("pure"), sweep("werner")],
        lambda: [sweep("werner", n_values=np.linspace(0.1, 9, 9), p_values=(0.3, 1.0))],
        lambda: [],
        # drawn grids: no parameter value repeats, unlike on a linspace grid
        lambda: [
            sweep(
                "pure",
                n_values=np.random.default_rng(1).lognormal(0.0, 3.0, 9),
                alpha_sq_values=np.random.default_rng(2).random(7),
            )
        ],
        lambda: [
            sweep(
                "werner",
                n_values=np.random.default_rng(3).lognormal(0.0, 3.0, 6),
                p_values=np.random.default_rng(4).random(5),
            )
        ],
    ],
)
def test_bulk_rendering_matches_row_by_row_rendering(monkeypatch, tables):
    monkeypatch.setattr(wteleport.cli, "BLOCK_POINTS", 5)  # several blocks per table
    tables = tables()
    rows = _rows(tables)
    config = {"subcommand": "sweep", "format": "json", "alpha_sq": None, "n": "1:2:3"}
    summary = {"rows": len(rows), "families": {"bob_one": {"match": 1}}, "checks": [1.5, None]}

    def report():  # its row blocks are consumed once
        document = {"config": config, "rows": None, "summary": summary}
        blocks = (block for table in tables for block in _sweep_blocks(table))
        return Report("comment", SWEEP_CSV_COLUMNS, blocks, document, ())

    assert "".join(_csv_chunks(report())) == _reference_csv(rows, "comment")
    assert "".join(_json_chunks(report())) == _reference_json(config, rows, summary)


@pytest.mark.parametrize(
    "mode, n_spec, value_spec, sizes",
    [
        # more mode values than a block holds: one n at a time, in slices
        ("pure", "0.5:4:3", "0:1:9", [7, 2] * 3),
        # exactly a block of mode values
        ("werner", "0.1:10:4", "0:1:7", [7] * 4),
        # fewer: as many whole n rows as fit, 2 x 3 of the 7 points
        ("pure", "0.2:5:5", "0.1:0.9:3", [6, 6, 3]),
        ("werner", "1e-3:1e3:9", "0.5", [7, 2]),
    ],
)
def test_sweep_streams_blocks_of_at_most_block_points(
    monkeypatch, capsys, mode, n_spec, value_spec, sizes
):
    key = "--alpha-sq" if mode == "pure" else "--p"
    grid = {"alpha_sq_values" if mode == "pure" else "p_values": _parse_values(value_spec, key)[0]}
    whole = sweep(mode, n_values=_parse_values(n_spec, "--n")[0], **grid)
    comment = f"wteleport sweep mode={mode} n={n_spec} {key[2:].replace('-', '_')}={value_spec}"
    config = {
        "subcommand": "sweep",
        "format": "json",
        "mode": mode,
        "n": n_spec,
        "alpha_sq": value_spec if mode == "pure" else None,
        "p": value_spec if mode == "werner" else None,
    }
    match = int(whole.match.sum())
    summary = {"rows": len(whole), "match": match, "discrepant": len(whole) - match}

    def report():  # its row blocks are consumed once
        document = {"config": config, "rows": None, "summary": summary}
        return Report(comment, SWEEP_CSV_COLUMNS, _sweep_blocks(whole), document, ())

    expected = {
        "csv": "".join(_csv_chunks(report())),
        "json": "".join(_json_chunks(report())),
        "table": "".join(_sweep_lines(comment, [whole])),
    }

    monkeypatch.setattr(wteleport.cli, "BLOCK_POINTS", 7)
    for fmt, text in expected.items():
        calls = []

        def counted(mode, n_values, **grid):
            (values,) = grid.values()
            calls.append(len(n_values) * len(values))
            return sweep(mode, n_values=n_values, **grid)

        monkeypatch.setattr(wteleport.cli, "sweep", counted)
        code = main(["sweep", "--mode", mode, "--n", n_spec, key, value_spec, "--format", fmt])
        assert code == 0
        assert capsys.readouterr().out == text
        assert calls == sizes
