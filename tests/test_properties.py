"""Properties of every branch over the supported domain, drawn by hypothesis:
n log-uniform in [1e-323, 8.9e307] (from the smallest subnormal decade to
just below where 2 + 2n overflows), alpha^2 and p in [0, 1] with the edges
included.  The pure sweep's closed forms also draw alpha^2 log-uniform in
[1e-323, 1], where n alpha^2 (1 - alpha^2) can underflow.

The runs are derandomized and keep no example database, so every run draws
the same points and writes no files.
"""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wteleport import BobOutcome, run_protocol_mixed, run_protocol_pure, sweep
from wteleport.analysis import PSI_ZERO_COLUMNS
from wteleport.protocol import (
    BRANCH_ORDER,
    ZERO_PROBABILITY_CUTOFF,
    _mixed_results,
    _pure_results,
    pure_branches,
    werner_branches,
)

REPEATABLE = settings(derandomize=True, database=None, deadline=None)

N = st.floats(-323.0, 307.95).map(lambda exponent: 10.0**exponent)
UNIT = st.floats(0.0, 1.0)
ALPHA_SQ = UNIT | st.floats(-323.0, 0.0).map(lambda exponent: 10.0**exponent)
MODES = pytest.mark.parametrize("mode", ["pure", "werner"])

BOB_ZERO = [k for k, (_, bob) in enumerate(BRANCH_ORDER) if bob is BobOutcome.ZERO]
# The engine tests' tolerances: the Wootters square roots of the Werner
# oracle amplify eigenvalue roundoff.
CONCURRENCE_TOL = {"pure": 1e-13, "werner": 1e-10}


def _point(mode: str, n: float, value: float):
    """(probability, concurrence) of the engine and of the scalar oracle, each
    shape (8,), at one point; value is alpha^2 or p."""
    if mode == "pure":
        # the oracle takes alpha, the engine the alpha^2 it evaluates
        alpha = np.sqrt(value)
        probability, concurrence = pure_branches(np.array([alpha * alpha]), np.array([n]))
        result = run_protocol_pure(float(alpha), n)
    else:
        probability, concurrence = werner_branches(np.array([value]), np.array([n]))
        result = run_protocol_mixed(value, n)
    oracle = (
        np.array([b.probability for b in result.branches]),
        np.array([b.concurrence for b in result.branches]),
    )
    return (probability[0], concurrence[0]), oracle


@MODES
@REPEATABLE
@given(n=N, value=UNIT)
def test_probabilities_sum_to_one_and_bob_zero_to_half(mode, n, value):
    # Bob's outcome 0 comes with probability 1/2 whatever the input and n
    for probability, _ in _point(mode, n, value):
        assert abs(probability.sum() - 1.0) <= 1e-12
        assert abs(probability[BOB_ZERO].sum() - 0.5) <= 1e-12


@MODES
@REPEATABLE
@given(n=N, value=UNIT)
def test_concurrence_lies_in_the_unit_interval(mode, n, value):
    for _, concurrence in _point(mode, n, value):
        assert ((concurrence >= 0.0) & (concurrence <= 1.0)).all()


@MODES
@REPEATABLE
@given(n=N, value=UNIT)
def test_engine_equals_the_scalar_oracle(mode, n, value):
    # Only inside the scalar oracle's domain: a pure input's Bob-0
    # probabilities, (n x + 1 - x) / (4 (n + 1)) for Phi and (x + n (1 - x)) /
    # (4 (n + 1)) for Psi, can be subnormal (above n = 1/(4 tiny), or with n
    # and x = alpha^2 both below 4 tiny) where the branch's weight is not, and
    # the oracle, unlike the engine, then reads the branch as dead.
    # DEAD_BRANCH_POINTS pins the oracle's side of that; a margin of 2 covers
    # the rounding of this estimate.
    if mode == "pure":
        x, y = value, 1.0 - value
        bob_zero = np.array([n * x + y, x + n * y]) / (n + 1.0) / 4.0
        assume((bob_zero >= 2.0 * ZERO_PROBABILITY_CUTOFF).all())
    (probability, concurrence), (expected_p, expected_c) = _point(mode, n, value)
    assert np.abs(probability - expected_p).max() <= 1e-15
    assert np.abs(concurrence - expected_c).max() <= CONCURRENCE_TOL[mode]


def _rows(*arrays):
    """Each point's row of every array, as raw bytes, so equality is bit for bit."""
    return [b"".join(a[i].tobytes() for a in arrays) for i in range(len(arrays[0]))]


def _result_bits(result, *fields):
    """The same bytes for one run: each branch field in ``fields``, stacked."""
    return b"".join(
        np.array([getattr(b, field) for b in result.branches]).tobytes() for field in fields
    )


# Points whose stack holds dead branches: exactly 0 (Psi/One at alpha^2 = 1),
# underflowed but not 0 (Psi/Zero at n = alpha^2 = 1e-323), and all four Phi
# branches at the near-overflow corner, where the oracle, unlike the engine,
# reads the Phi Bob-0 branches as dead.
DEAD_BRANCH_POINTS = [(1.0, 1.0), (1e-323, 1e-323), (8.9e307, 1.0 / 8.9e307), (4.0, 1.0 / 3.0)]


@REPEATABLE
@given(points=st.lists(st.tuples(N, ALPHA_SQ), min_size=1, max_size=8))
@example(points=DEAD_BRANCH_POINTS)
def test_pure_stack_equals_one_point_runs(points):
    n, alpha_sq = (np.array(values) for values in zip(*points))
    # each run squares its alpha once, so the stack takes that alpha^2
    alpha = np.sqrt(alpha_sq)
    probability, post, concurrence = _pure_results(alpha * alpha, n)
    runs = [run_protocol_pure(a, m) for a, m in zip(alpha.tolist(), n.tolist())]
    post_amplitudes = [
        np.array([b.post_state.amplitudes for b in run.branches]).tobytes() for run in runs
    ]
    assert _rows(probability, concurrence) == [
        _result_bits(run, "probability", "concurrence") for run in runs
    ]
    assert [row.tobytes() for row in post] == post_amplitudes


def test_the_explicit_stack_holds_dead_branches():
    n, alpha_sq = zip(*DEAD_BRANCH_POINTS)
    probability, post, concurrence = _pure_results(alpha_sq, n)
    dead = probability < ZERO_PROBABILITY_CUTOFF
    assert dead.sum(axis=-1).tolist() == [2, 4, 4, 0]
    assert (probability[dead] == 0.0).any() and (probability[dead] > 0.0).any()
    assert not post[dead].any() and not concurrence[dead].any()


@REPEATABLE
@given(n=N, p_values=st.lists(UNIT, min_size=1, max_size=8))
def test_werner_grid_equals_one_point_runs(n, p_values):
    probability, weighted, post, concurrence = _mixed_results(p_values, n)
    runs = [run_protocol_mixed(p, n) for p in p_values]
    assert _rows(probability, concurrence, weighted, post) == [
        _result_bits(run, "probability", "concurrence", "weighted_matrix")
        + np.array([b.post_state.entries for b in run.branches]).tobytes()
        for run in runs
    ]


@REPEATABLE
@given(n=N, alpha_sq=ALPHA_SQ)
def test_pure_sweep_matches_the_closed_forms(n, alpha_sq):
    assert sweep("pure", n_values=(n,), alpha_sq_values=(alpha_sq,)).match.all()


@REPEATABLE
@given(n=N, p=UNIT)
def test_werner_bob_zero_matches_the_derived_form(n, p):
    _, concurrence = werner_branches(np.array([p]), np.array([n]))
    derived = max(0.0, np.sqrt(n) * (3.0 * p - 1.0) / (n + 1.0))
    assert np.abs(concurrence[0, BOB_ZERO] - derived).max() <= 1e-15


def test_extreme_n_rows_match():
    """Regression for the n = 1e16 row and for the underflowing closed form.

    At n = 1e16 and alpha^2 = 1e-16 the Phi Bob-0 branches have probability
    about 5e-17.  An absolute zero-probability cutoff of 1e-14 once reported
    them dead, with probability 0 and concurrence 0 against a closed form of
    0.9999999999999999.  At n = alpha^2 = 1e-300 the Psi Bob-0 branches have
    probability about 5e-301 and concurrence 1, while n alpha^2 (1 - alpha^2)
    underflows; oracle and closed form must both give 1, not agree on 0.
    """
    table = sweep("pure", n_values=(1e16,), alpha_sq_values=(1e-16,))
    assert table.match.all()
    assert (table.probability[0, BOB_ZERO] > 0.0).all()
    table = sweep("pure", n_values=(1e-300,), alpha_sq_values=(1e-300,))
    assert table.match.all()
    for column in (table.oracle, table.formula):
        assert np.abs(column[0, PSI_ZERO_COLUMNS] - 1.0).max() <= 1e-15
