"""The batched branch engine behind ``sweep``, cross-checked against the
scalar five-qubit enumeration it replaces in sweeps, for pure and Werner
inputs alike."""
import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

import wteleport.analysis
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
    _sweep_block,
    _table_chunks,
    main,
)
from wteleport.concurrence import (
    concurrence_mixed_batch,
    concurrence_pure_batch,
    concurrence_x_batch,
)
from wteleport.protocol import (
    BRANCH_ORDER,
    _mixed_results,
    _pure_results,
    branch_maps,
    pure_branches,
    w_normalization,
    werner_branches,
)
from wteleport.states import ZERO_PROBABILITY_CUTOFF, check_density_matrices

N_LOG_GRID = np.logspace(-6, 6, 25)
# The entries an X-state may hold: its diagonal and anti-diagonal.
X_SHAPE = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


def _x_entries(matrices):
    """The diagonal and (rho14, rho23) of a stack of 4x4 matrices, the six
    entries ``concurrence_x_batch`` takes, once every entry off the X is
    checked to be exactly zero."""
    assert not np.any(matrices[:, ~X_SHAPE])
    return np.diagonal(matrices, axis1=-2, axis2=-1), matrices[:, [0, 1], [3, 2]]


def _grid(second):
    """Flattened (n, second) coordinates of the N_LOG_GRID x second grid."""
    return (a.ravel() for a in np.meshgrid(N_LOG_GRID, second, indexing="ij"))


def test_pure_engine_matches_enumeration():
    n, alpha_sq = _grid(np.linspace(0.0, 1.0, 21))
    # both evaluate the alpha^2 given; the oracle enumerates the whole grid as
    # one stack
    probability, concurrence = pure_branches(alpha_sq, n)
    expected_p, _, expected_c = _pure_results(alpha_sq, n)
    assert np.abs(probability - expected_p).max() <= 1e-15
    assert np.abs(concurrence - expected_c).max() <= 1e-13


def test_werner_engine_matches_enumeration():
    p_grid = np.linspace(0.0, 1.0, 21)
    n, p = _grid(p_grid)
    probability, concurrence = werner_branches(p, n)
    # one oracle call per n, for the whole p grid; n-major, as _grid is
    oracle = [_mixed_results(p_grid, m) for m in N_LOG_GRID]
    expected_p = np.concatenate([arrays[0] for arrays in oracle])
    expected_c = np.concatenate([arrays[-1] for arrays in oracle])
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
    x_state = concurrence_x_batch(*_x_entries(post))
    assert np.abs(x_state - concurrence_mixed_batch(post)).max() <= 1e-13


# Reference: every branch from its dense 4x4 map M = I x sA, s the engine's
# power-of-two scale, by M rho M' as two matrix products, for pure and Werner
# inputs alike, with the engine's dead-branch rule on the weight, and s^2
# divided out before f(n)^2 / 2 makes it the probability.  Each non-zero entry
# of these sums is a single product, which the engine forms alone, so engine
# and reference agree to the bit.
# n from the smallest subnormal to just below where 2 + 2n overflows; the
# subnormal n and values include points where a branch's unscaled weight is
# subnormal but not 0: (n, value) = (1e-316, 1e-317), (1e-323, 1e-323) and
# (4 * 2**-1074, 1955 * 2**-1074).
REFERENCE_N = np.concatenate((
    [5e-324, 4 * 2.0**-1074, 1e-323, 1e-320, 1e-316],
    np.logspace(-12, 12, 49), np.logspace(-300, 300, 61), [8.9e307],
))
REFERENCE_VALUES = np.concatenate(  # 0, 1/3 and 1 included
    (np.linspace(0.0, 1.0, 21), [1.0 / 3.0, 1955 * 2.0**-1074, 1e-323, 1e-317])
)


def _pure_rho(x):
    """The density matrices of the pure inputs with alpha^2 = x."""
    y = 1.0 - x
    rho = np.zeros((len(x), 4, 4))
    rho[:, 0b00, 0b00], rho[:, 0b11, 0b11] = x, y
    rho[:, 0b00, 0b11] = rho[:, 0b11, 0b00] = np.sqrt(x * y)
    return rho


def _werner_rho(p):
    return np.array([werner(q).entries.real for q in p])


def _dense(rho, n):
    actions = np.moveaxis(wteleport.protocol._branch_actions(n), 0, -1).reshape(len(n), 8, 2, 2)
    scale = np.where(n < 2.0**900, 2.0**40, 1.0)[:, None]
    maps = np.zeros((len(n), 8, 4, 4))
    maps[..., :2, :2] = maps[..., 2:, 2:] = actions * scale[..., None, None]
    weighted = maps @ rho[:, np.newaxis] @ np.swapaxes(maps, -1, -2)
    weight = np.trace(weighted, axis1=-2, axis2=-1)
    alive = weight >= ZERO_PROBABILITY_CUTOFF
    concurrence = np.zeros_like(weight)
    post = weighted[alive] / weight[alive][:, None, None]
    concurrence[alive] = concurrence_x_batch(*_x_entries(post))
    return weight / scale**2 * (0.5 / (2.0 + 2.0 * n))[:, None], concurrence


@pytest.mark.parametrize(
    "engine, rho",
    [(pure_branches, _pure_rho), (werner_branches, _werner_rho)],
    ids=["pure", "werner"],
)
def test_engines_match_the_dense_maps_to_the_bit(engine, rho):
    n, value = (a.ravel() for a in np.meshgrid(REFERENCE_N, REFERENCE_VALUES, indexing="ij"))
    for got, expected in zip(engine(value, n), _dense(rho(value), n)):
        assert np.array_equal(got, expected)


def test_no_action_has_two_non_zeros_in_a_row_or_column():
    # the engine forms each branch from the action's entries on this premise:
    # it keeps M rho M' an X-state
    a, b, c, d = wteleport.protocol._branch_actions(REFERENCE_N)
    for first, second in ((a, b), (c, d), (a, c), (b, d)):
        assert not np.any(first * second)
    # each branch map is f(n)/sqrt(2) times its action
    actions = branch_maps(REFERENCE_N)[..., :2, :2]
    scale = (w_normalization(REFERENCE_N) / np.sqrt(2.0))[:, None, None, None]
    expected = np.stack((a, b, c, d), -1).reshape(actions.shape) * scale
    np.testing.assert_array_equal(actions, expected)


@pytest.mark.parametrize("engine", [pure_branches, werner_branches], ids=["pure", "werner"])
def test_engine_rejects_actions_off_the_x(monkeypatch, engine):
    # swapping b and d of Psi+/Zero puts a and b in one row: M rho M' is no
    # longer an X-state, and the engine says so for either input family
    # before the kernel would take its six entries
    actions = wteleport.protocol._branch_actions
    k = BRANCH_ORDER.index((BellOutcome.PSI_PLUS, BobOutcome.ZERO))

    def swapped(n):
        table = actions(n).copy()
        table[[1, 3], :, k] = table[[3, 1], :, k]
        return table

    monkeypatch.setattr(wteleport.protocol, "_branch_actions", swapped)
    with pytest.raises(NumericalFailure, match="post-state has a non-zero entry off the X shape"):
        engine(np.array([0.5]), np.array([2.0]))


@pytest.mark.parametrize("engine", [pure_branches, werner_branches])
def test_blocks_do_not_change_results(monkeypatch, engine):
    n = np.linspace(0.1, 10.0, 23)
    value = np.linspace(0.0, 1.0, 23)
    whole = engine(value, n)
    monkeypatch.setattr(wteleport.protocol, "BLOCK_POINTS", 4)
    blocked = engine(value, n)
    for a, b in zip(whole, blocked):
        np.testing.assert_array_equal(a, b)


# The first block of each benchmark sweep's seed-0 grid, as the CLI parses it
# (n-major), and the traced peak, in KiB per point, one engine block must stay
# below.  numpy reports its array buffers to tracemalloc, so the figure repeats
# exactly: 1.09 KiB per point, pure and Werner (140 KiB at 128 points); a block
# that held its action table, six full X entries and six masked copies through
# the kernel took 2.20 and 2.32.
BENCHMARK_GRIDS = {
    "pure": (pure_branches, np.linspace(0.01, 100.0, 1000), np.linspace(0.05, 0.95, 10)),
    "werner": (werner_branches, np.linspace(0.1, 10.0, 10), np.linspace(0.0, 1.0, 500)),
}
BLOCK_PEAK_KIB_PER_POINT = 1.75


@pytest.mark.parametrize("grid", BENCHMARK_GRIDS)
def test_one_block_holds_only_the_arrays_it_still_needs(grid):
    engine, n_grid, values = BENCHMARK_GRIDS[grid]
    i = np.arange(wteleport.protocol.BLOCK_POINTS)
    n, value = n_grid[i // len(values)], values[i % len(values)]
    engine(value, n)
    tracemalloc.start()
    try:
        engine(value, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = BLOCK_PEAK_KIB_PER_POINT * wteleport.protocol.BLOCK_POINTS
    assert peak < bound * 1024, f"{peak / 1024:.0f} KiB"


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
    with pytest.raises(InvalidInput, match="alpha\\^2 must lie"):
        pure_branches(np.array([0.5, 1.5]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidInput, match="mixing weight p"):
        werner_branches(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(InvalidInput, match="channel parameter n"):
        sweep("werner", n_values=(1.0, np.inf))
    # X-states the kernel must reject as check_density_matrices does, message and all
    bell = werner(1.0).entries
    imaginary, long_trace, negative = bell.copy(), bell.copy(), bell.copy()
    imaginary[1, 1] += 1e-9j
    long_trace[1, 1] += 1e-9
    negative[0, 3] = negative[3, 0] = 0.5 + 2e-10  # smallest eigenvalue -2e-10
    non_finite = bell.copy()
    non_finite[2, 2] = np.nan
    for bad in (imaginary, long_trace, negative, non_finite):
        with pytest.raises(InvalidInput) as expected:
            check_density_matrices(bad[np.newaxis])
        with pytest.raises(InvalidInput) as raised:
            concurrence_x_batch(*_x_entries(np.array([bell, bad])))
        assert str(raised.value) == str(expected.value)
    # within NORM_TOL of positive semidefinite passes both
    negative[0, 3] = negative[3, 0] = 0.5 + 4e-11
    check_density_matrices(negative[np.newaxis])
    assert concurrence_x_batch(*_x_entries(negative[np.newaxis])) == pytest.approx(1.0, abs=1e-9)


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


def test_sweep_rows_follow_the_table():
    table = sweep("pure", n_values=(0.5, 2.0), alpha_sq_values=(0.2, 0.7, 0.9))
    assert isinstance(table, SweepTable)
    rows = _block_rows([_sweep_block(table)])
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
def test_bulk_rendering_matches_row_by_row_rendering(tables):
    tables = tables()
    rows = _rows(tables)
    config = {"subcommand": "sweep", "format": "json", "alpha_sq": None, "n": "1:2:3"}
    summary = {"rows": len(rows), "families": {"bob_one": {"match": 1}}, "checks": [1.5, None]}

    def report():  # its row blocks are consumed once
        document = {"config": config, "rows": None, "summary": summary}
        return Report("comment", SWEEP_CSV_COLUMNS, map(_sweep_block, tables), document)

    assert "".join(_csv_chunks(report())) == _reference_csv(rows, "comment")
    assert "".join(_json_chunks(report())) == _reference_json(config, rows, summary)


def _whole_grid_outputs(mode: str, n_spec: str, value_spec: str) -> dict[str, str]:
    """What ``wteleport sweep`` writes in each format for this grid, rendered
    from the whole-grid ``sweep()`` as one block."""
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
        return Report(comment, SWEEP_CSV_COLUMNS, [_sweep_block(whole)], document)

    return {
        "csv": "".join(_csv_chunks(report())),
        "json": "".join(_json_chunks(report())),
        "table": "".join(_table_chunks(report())),
    }


@pytest.mark.parametrize(
    "mode, n_spec, value_spec, sizes",
    [
        # consecutive ranges of 7 n-major points, the last one shorter; a
        # range may start and end inside an n row
        ("pure", "0.5:4:3", "0:1:9", [7, 7, 7, 6]),
        ("werner", "0.1:10:4", "0:1:7", [7] * 4),  # each range one whole n row
        ("pure", "0.2:5:5", "0.1:0.9:3", [7, 7, 1]),
        ("werner", "1e-3:1e3:9", "0.5", [7, 2]),  # one value per n row
    ],
)
def test_sweep_streams_blocks_of_at_most_block_points(
    monkeypatch, capsys, mode, n_spec, value_spec, sizes
):
    key = "--alpha-sq" if mode == "pure" else "--p"
    expected = _whole_grid_outputs(mode, n_spec, value_spec)
    monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", 7)
    # one process computes every block, so every call is counted here
    monkeypatch.setattr(wteleport.cli, "_forks", lambda: False)
    table = wteleport.analysis._table
    for fmt, text in expected.items():
        calls = []

        def counted(mode, n, value, axes):
            calls.append(len(n))
            return table(mode, n, value, axes)

        monkeypatch.setattr(wteleport.analysis, "_table", counted)
        code = main(["sweep", "--mode", mode, "--n", n_spec, key, value_spec, "--format", fmt])
        assert code == 0
        assert capsys.readouterr().out == text
        assert calls == sizes


@pytest.mark.parametrize(
    "mode, n_spec, value_spec",
    [
        # 1,050 and 1,170 points, so each has a block of 512 and one of 1024
        # points that ends inside an n row
        ("pure", "0.1:10:7", "0:1:150"),
        ("werner", "0.1:10:9", "0:1:130"),
    ],
)
@pytest.mark.parametrize(
    "block_points", sorted({7, 512, 1024, wteleport.analysis.BLOCK_POINTS})
)
def test_sweep_output_does_not_depend_on_the_block_size(
    monkeypatch, capsys, mode, n_spec, value_spec, block_points
):
    key = "--alpha-sq" if mode == "pure" else "--p"
    expected = _whole_grid_outputs(mode, n_spec, value_spec)
    monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", block_points)
    monkeypatch.setattr(wteleport.protocol, "BLOCK_POINTS", block_points)
    for fmt, text in expected.items():
        code = main(["sweep", "--mode", mode, "--n", n_spec, key, value_spec, "--format", fmt])
        assert code == 0
        assert capsys.readouterr().out == text, fmt


@pytest.mark.parametrize(
    "mode, n_spec, value_spec",
    [("pure", "0.1:10:7", "0:1:150"), ("werner", "0.1:10:9", "0:1:130")],
)
@pytest.mark.parametrize("block_points", [7, wteleport.analysis.BLOCK_POINTS])
@pytest.mark.parametrize("forks", [False, True], ids=["serial", "forked"])
def test_sweep_output_does_not_depend_on_the_fork(
    monkeypatch, capsys, mode, n_spec, value_spec, block_points, forks
):
    # the grids of the block-size test; a forked child renders the later
    # half of their blocks: 75 of 150 or 84 of 168 at 7 points, 2 of 5 at 256
    key = "--alpha-sq" if mode == "pure" else "--p"
    expected = _whole_grid_outputs(mode, n_spec, value_spec)
    monkeypatch.setattr(wteleport.analysis, "BLOCK_POINTS", block_points)
    monkeypatch.setattr(wteleport.protocol, "BLOCK_POINTS", block_points)
    monkeypatch.setattr(wteleport.cli, "_forks", lambda: forks)
    for fmt, text in expected.items():
        code = main(["sweep", "--mode", mode, "--n", n_spec, key, value_spec, "--format", fmt])
        assert code == 0
        assert capsys.readouterr().out == text, fmt
