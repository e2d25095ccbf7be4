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
    StateVector,
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
from wteleport.analysis import sweep_table
from wteleport.cli import SWEEP_CSV_COLUMNS, Report, _csv_chunks, _json_chunks, _record_blocks
from wteleport.concurrence import concurrence_mixed_batch, concurrence_pure_batch
from wteleport.protocol import BRANCH_ORDER, branch_maps, pure_branches, werner_branches

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


def test_sweep_rows_follow_the_table():
    table = sweep_table("pure", n_values=(0.5, 2.0), alpha_sq_values=(0.2, 0.7, 0.9))
    rows = table.rows()
    assert len(rows) == len(table) == 3 * 2 * 8
    assert [(r.bell, r.bob) for r in rows[:8]] == list(BRANCH_ORDER)
    assert [(r.n, r.alpha_sq) for r in rows[::8]] == [
        (n, a) for n in (0.5, 2.0) for a in (0.2, 0.7, 0.9)
    ]
    assert all(type(v) is float for r in rows for v in (r.n, r.alpha_sq, r.probability))
    phi = rows[8 * 4]  # n = 2, alpha^2 = 0.7, Phi+/Zero
    assert (phi.bell, phi.bob) == (BellOutcome.PHI_PLUS, BobOutcome.ZERO)
    assert phi.probability == table.probability[4, 0]
    assert phi.oracle_concurrence == table.oracle[4, 0]


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
            [r.mode, full(r.n), full(r.alpha_sq), full(r.p), r.bell.value, r.bob.value,
             full(r.probability), full(r.oracle_concurrence), full(r.formula_concurrence),
             full(r.abs_diff), r.verdict]
        )
    return buffer.getvalue()


def _reference_json(config, rows, summary) -> str:
    dicts = [
        {
            "mode": r.mode, "n": r.n, "alpha_sq": r.alpha_sq, "p": r.p,
            "bell": r.bell.value, "bob": r.bob.value, "probability": r.probability,
            "oracle_concurrence": r.oracle_concurrence,
            "formula_concurrence": r.formula_concurrence, "abs_diff": r.abs_diff,
            "verdict": r.verdict,
        }
        for r in rows
    ]
    return json.dumps({"config": config, "rows": dicts, "summary": summary}, indent=2) + "\n"


@pytest.mark.parametrize(
    "tables",
    [
        lambda: [sweep_table("pure", n_values=(0.5, 2.0), alpha_sq_values=(0.0, 0.37, 1.0))],
        lambda: [sweep_table("pure"), sweep_table("werner")],
        lambda: [sweep_table("werner", n_values=np.linspace(0.1, 9, 9), p_values=(0.3, 1.0))],
        lambda: [],
    ],
)
def test_bulk_rendering_matches_row_by_row_rendering(monkeypatch, tables):
    monkeypatch.setattr(wteleport.cli, "BLOCK_POINTS", 5)  # several blocks per table
    tables = tables()
    rows = [row for table in tables for row in table.rows()]
    config = {"subcommand": "sweep", "format": "json", "alpha_sq": None, "n": "1:2:3"}
    summary = {"rows": len(rows), "families": {"bob_one": {"match": 1}}, "checks": [1.5, None]}

    def report():  # its row blocks are consumed once
        document = {"config": config, "rows": None, "summary": summary}
        return Report("comment", SWEEP_CSV_COLUMNS, _record_blocks(tables), document, ())

    assert "".join(_csv_chunks(report())) == _reference_csv(rows, "comment")
    assert "".join(_json_chunks(report())) == _reference_json(config, rows, summary)
