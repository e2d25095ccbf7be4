"""Closed-form concurrence predictions, channel classification, and
oracle-vs-formula verification sweeps.

Sweeps pair the batched branch engine of ``protocol`` with the closed forms,
both evaluated over the whole grid as arrays.  The closed forms are
evaluated exactly as printed, with no clamping: where a printed formula
disagrees with the simulation oracle (the Werner case does, see
``predicted_concurrence_werner``), the sweep reports both values and a
DISCREPANT verdict rather than guessing which side is right.
"""
from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .protocol import (
    BLOCK_POINTS,
    BRANCH_ORDER,
    BellOutcome,
    BobOutcome,
    _check_alpha,
    _check_alpha_sq,
    _check_n,
    _check_p,
    _pure_branches,
    _scalar,
    _validated,
    _werner_branches,
)
from .states import ZERO_PROBABILITY_CUTOFF, InvalidInput, NumericalFailure, _Frozen

MATCH_TOL = 1e-8

# Default verification grids; they span both classification regimes
# (0 < n < 1 and n > 1) and the full Werner mixing range.
DEFAULT_N_GRID: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)
DEFAULT_ALPHA_SQ_GRID: tuple[float, ...] = tuple(np.linspace(0.05, 0.95, 19))
DEFAULT_P_GRID: tuple[float, ...] = tuple(np.linspace(0.0, 1.0, 11))

QUARTIC_COEFFICIENTS: tuple[float, ...] = (1.0, 4.0, 6.0, -60.0, 1.0)


class Region(Enum):
    PRESERVING = "PRESERVING"
    DEGRADED = "DEGRADED"


class StateIndependentPoint(NamedTuple):
    """Input weight at which the channel preserves concurrence exactly.

    ``any_alpha`` is True only at n = 1, where every input works and the
    reported value is just the symmetric point 1/2.
    """

    alpha_sq: float
    any_alpha: bool


class SignRegion(NamedTuple):
    """Sign of the channel-rating quartic on (lower, upper); upper None means unbounded."""

    lower: float
    upper: float | None
    sign: int


class QuarticReport(NamedTuple):
    coefficients: tuple[float, ...]
    roots_positive: tuple[float, ...]
    sign_regions: tuple[SignRegion, ...]


def input_concurrence(alpha: float) -> float:
    """Concurrence 2 alpha sqrt(1 - alpha^2) of the input pair."""
    alpha = _scalar(_check_alpha(alpha))
    return float(2.0 * alpha * np.sqrt(1.0 - alpha * alpha))


def efficiency_ratio(alpha_sq: float, n: float) -> float:
    """Final-to-initial concurrence ratio sqrt(n) / ((n-1) alpha^2 + 1),
    evaluated over the denominator n x + y of ``_bob_zero_form``."""
    n, x = _scalar(_check_n(n)), _scalar(_check_alpha_sq(alpha_sq))
    return float(np.sqrt(n) / (n * x + (1.0 - x)))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def predicted_concurrence_phi(alpha: float, n: float) -> float:
    """Closed-form branch concurrence 2 alpha sqrt(n (1-alpha^2)) / ((n-1) alpha^2 + 1).

    Applies to Alice outcome Phi+/Phi- with Bob outcome 0.
    """
    alpha = _scalar(_check_alpha(alpha))
    x = alpha * alpha
    return float(_finite(_bob_zero_form(x, 1.0 - x, _scalar(_check_n(n)))))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def predicted_concurrence_psi(alpha: float, n: float) -> float:
    """Mirror closed form for Psi+/Psi- with Bob outcome 0: alpha^2 -> beta^2."""
    alpha = _scalar(_check_alpha(alpha))
    x = alpha * alpha
    return float(_finite(_bob_zero_form(1.0 - x, x, _scalar(_check_n(n)))))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def predicted_concurrence_werner(p: float, n: float) -> float:
    """Printed closed form 4 sqrt(n) (3p-1) / (n+1)^2 for p > 1/3, else 0.

    Returned verbatim, never clamped to [0, 1]: at n = 1, p = 1 it evaluates
    to 2.0 while the branch-map oracle gives 1.0.  The sweep exists to expose
    exactly that kind of mismatch, so this evaluator must not mask it.
    """
    return float(_finite(_werner_form(_scalar(_check_p(p)), _scalar(_check_n(n)))))


# The closed forms, elementwise over arrays of validated parameters, for
# callers that ignore numpy's floating-point warnings.  A non-finite value gives
# NaN or inf here, which ``_finite`` turns into a NumericalFailure.


def _bob_zero_form(x, y, n):
    """2 sqrt(n x y) / (n x + y): Phi with x = alpha^2, y = 1 - x; Psi with x, y swapped.

    The printed denominator (n-1) alpha^2 + 1 equals n x + y but cancels when
    n is small and alpha^2 near 1; n x + y is positive for every n > 0.
    Where n x y underflows (tiny n and x) the root is sqrt(n x) sqrt(y), not 0,
    and sqrt(y) is divided by n x + y first, so that no factor underflows.
    """
    split = n * x * y < ZERO_PROBABILITY_CUTOFF
    d = n * x + y
    return np.where(split, 2.0 * np.sqrt(n * x) * (np.sqrt(y) / d), 2.0 * np.sqrt(n * x * y) / d)


def _werner_form(p, n):
    """4 sqrt(n) (3p-1) / (n+1)^2 for p > 1/3, else 0.

    np.square, as an array's ** 2 is; a numpy scalar's ** 2 calls pow.  Above
    n = 1.34e154 the square overflows, and the numerator is divided by n + 1
    twice instead, which keeps the printed value (2e-300 at n = 1e200).
    """
    m = n + 1.0
    square = np.square(m)
    numerator = 4.0 * np.sqrt(n) * (3.0 * p - 1.0)
    value = np.where(np.isfinite(square), numerator / square, numerator / m / m)
    return np.where(p <= 1.0 / 3.0, 0.0, value)


def _finite(values, what: str = "closed form"):
    if not np.isfinite(values).all():
        bad = np.count_nonzero(~np.isfinite(values))
        raise NumericalFailure(f"{what} is not finite ({bad} values)")
    return values


def predicted_branch_matrix_phi(p: float, n: float, sign: int = 1) -> np.ndarray:
    """Closed-form unnormalized post-state for Phi+/Phi- with Bob 0, Werner input.

    Returned exactly as the closed form states it (its trace is not 1 in
    general; compare against ``weighted_matrix`` after fixing the overall
    scale, e.g. by matching the top-left entries).  Note the |10><10| entry
    carries a factor n here, while the branch-map oracle produces it without
    that factor; the two therefore disagree entrywise whenever n != 1.
    """
    return _branch_matrix(p, n, sign, lambda p, n, c: [
        [(1.0 - p) / 8.0, 0.0, 0.0, 0.0],
        [0.0, n * (1.0 + p) / 8.0, c, 0.0],
        [0.0, c, n * (1.0 + p) / 8.0, 0.0],
        [0.0, 0.0, 0.0, n * (1.0 - p) / 8.0],
    ])


def predicted_branch_matrix_psi(p: float, n: float, sign: int = 1) -> np.ndarray:
    """Closed-form unnormalized post-state for Psi+/Psi- with Bob 0, Werner input.

    Unlike the Phi case this one agrees with the branch-map oracle entrywise
    (up to the same overall scale).
    """
    return _branch_matrix(p, n, sign, lambda p, n, c: [
        [(1.0 + p) / 8.0, 0.0, 0.0, c],
        [0.0, n * (1.0 - p) / 8.0, 0.0, 0.0],
        [0.0, 0.0, (1.0 - p) / 8.0, 0.0],
        [c, 0.0, 0.0, n * (1.0 + p) / 8.0],
    ])


@np.errstate(over="ignore")
def _branch_matrix(p, n, sign, entries) -> np.ndarray:
    """The matrix ``entries(p, n, c)``, c = sign sqrt(n) p / 4, at validated
    (p, n, sign); ``NumericalFailure`` where an entry overflows."""
    p, n = _scalar(_check_p(p)), _scalar(_check_n(n))
    if np.ndim(sign) or sign not in (1, -1):
        raise InvalidInput(f"sign must be +1 or -1, got {sign!r}")
    return _finite(np.array(entries(p, n, sign * np.sqrt(n) * p / 4.0)), "closed-form matrix")


def state_independent_alpha_sq(n: float) -> StateIndependentPoint:
    """Input weight alpha^2 = 1/(sqrt(n)+1) at which concurrence is preserved.

    This is the continuous form of (sqrt(n)-1)/(n-1), which is 0/0 at n = 1;
    there the channel preserves concurrence for every input, flagged via
    ``any_alpha``.
    """
    n = _scalar(_check_n(n))
    return StateIndependentPoint(float(1.0 / (np.sqrt(n) + 1.0)), bool(n == 1.0))


def classify_region(alpha_sq: float, n: float) -> Region:
    """DEGRADED when the efficiency ratio drops below 1, else PRESERVING.

    The boundary (ratio within 1e-12 of 1) counts as PRESERVING.  For n > 1
    the degraded inputs are alpha^2 > 1/(sqrt(n)+1); for 0 < n < 1 they are
    alpha^2 < 1/(sqrt(n)+1).
    """
    alpha_sq = _validated(
        alpha_sq, lambda a: (a > 0.0) & (a < 1.0), "alpha^2 must lie in (0, 1), got {}"
    )
    ratio = efficiency_ratio(alpha_sq, n)
    return Region.DEGRADED if ratio < 1.0 - 1e-12 else Region.PRESERVING


@np.errstate(over="ignore", invalid="ignore")
def quartic(n: float) -> float:
    """Channel-rating quartic n^4 + 4n^3 + 6n^2 - 60n + 1 at a finite n;
    ``NumericalFailure`` where it overflows."""
    n = _scalar(_validated(n, np.isfinite, "n must be finite, got {}"))
    return float(_finite(n**4 + 4.0 * n**3 + 6.0 * n**2 - 60.0 * n + 1.0, "quartic"))


def _bisect(lo: float, hi: float, xtol: float = 1e-12) -> float:
    f_lo = quartic(lo)
    f_hi = quartic(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise NumericalFailure(f"no sign change on bracket ({lo}, {hi})")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = quartic(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def quartic_roots() -> QuarticReport:
    """Both positive roots of the quartic, by bracketing bisection.

    The brackets (0, 0.1) and (2, 3) are fixed by sign evaluations
    (quartic(0) = 1 > 0, quartic(0.1) < 0, quartic(2) < 0, quartic(3) = 64);
    the sign pattern on (0, inf) is therefore (+, -, +).
    """
    r1 = _bisect(0.0, 0.1)
    r2 = _bisect(2.0, 3.0)
    regions = (
        SignRegion(0.0, r1, +1),
        SignRegion(r1, r2, -1),
        SignRegion(r2, None, +1),
    )
    return QuarticReport(QUARTIC_COEFFICIENTS, (r1, r2), regions)


class SweepTable(_Frozen):
    """A sweep in columns: one entry per grid point, or per (point, branch).

    ``n`` and the mode's own parameter (``alpha_sq`` or ``p``; the other is
    None) have shape (points,).  The branch columns have shape (points, 8),
    branches in ``BRANCH_ORDER``; ``match`` holds the verdicts.  ``_axes``
    gives n and the mode's parameter again, each as the grid values the
    points touch, or the names given for the mode's, and every point's code
    into them (see ``_grid_table``).
    """

    __slots__ = (
        "mode", "n", "alpha_sq", "p", "probability", "oracle", "formula", "abs_diff", "match", "_axes"
    )

    def __init__(
        self, mode, n, alpha_sq, p, probability, oracle, formula, abs_diff, match, axes
    ) -> None:
        self._set(mode=mode, n=n, alpha_sq=alpha_sq, p=p, probability=probability,
                  oracle=oracle, formula=formula, abs_diff=abs_diff, match=match, _axes=axes)

    def __len__(self) -> int:
        return self.probability.size


def _columns(bells: tuple[BellOutcome, ...], bob: BobOutcome) -> tuple[int, ...]:
    """Positions in ``BRANCH_ORDER`` of the branches with these outcomes."""
    return tuple(i for i, (b, o) in enumerate(BRANCH_ORDER) if b in bells and o is bob)


# Branch columns whose Bob-0 closed form is the Phi or Psi one, and the dead Bob-1 branches.
PHI_ZERO_COLUMNS = _columns((BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS), BobOutcome.ZERO)
PSI_ZERO_COLUMNS = _columns((BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS), BobOutcome.ZERO)
BOB_ONE_COLUMNS = _columns(tuple(BellOutcome), BobOutcome.ONE)


def sweep(
    mode: str,
    n_values: Sequence[float] | None = None,
    alpha_sq_values: Sequence[float] | None = None,
    p_values: Sequence[float] | None = None,
) -> SweepTable:
    """Pair the batched branch engine with the closed forms over a parameter grid.

    The result is one ``SweepTable``: 8 rows per grid point, one per branch
    in ``BRANCH_ORDER``.  Grid points are ordered lexicographically in the
    grid coordinates (n outermost).  Verdict is MATCH when |oracle - formula| <= 1e-8.  A
    non-finite oracle or closed-form value raises ``NumericalFailure``.
    """
    mode = str(mode).lower()
    if mode not in ("pure", "werner"):
        raise InvalidInput(f"mode must be 'pure' or 'werner', got {mode!r}")
    if mode == "pure":
        if p_values is not None:
            raise InvalidInput("p grid does not apply to a pure sweep")
        values = DEFAULT_ALPHA_SQ_GRID if alpha_sq_values is None else alpha_sq_values
    else:
        if alpha_sq_values is not None:
            raise InvalidInput("alpha^2 grid does not apply to a werner sweep")
        values = DEFAULT_P_GRID if p_values is None else p_values
    n_grid, values = _checked_grids(mode, DEFAULT_N_GRID if n_values is None else n_values, values)
    return _grid_table(mode, n_grid, values, 0, n_grid.size * values.size)


def _checked_grids(mode: str, n_values, values) -> tuple[np.ndarray, np.ndarray]:
    """The n grid and the mode's grid as 1-D float arrays, each validated
    whole: the mode's grid first, then n.  The mode's grid may be a scalar."""
    values = np.atleast_1d(_check_alpha_sq(values) if mode == "pure" else _check_p(values))
    n_values = _check_n(n_values)
    if np.ndim(n_values) != 1 or values.ndim != 1:
        raise InvalidInput(f"grids must be 1-D: n {np.shape(n_values)}, values {values.shape}")
    if not (n_values.size and values.size):
        raise InvalidInput(f"empty grid: n {n_values.shape}, values {values.shape}")
    return n_values, values


def _grid_tables(mode: str, n_values, values) -> tuple[range, np.ndarray, Callable]:
    """The first point of each block of ``BLOCK_POINTS`` consecutive points of
    the n-major grid ``n_values`` x ``values``, both validated whole; the
    validated ``values``; and a function that lazily computes the table of
    each block at a slice of those starts, its value axis named by ``names``
    (see ``_grid_table``)."""
    n_grid, values = _checked_grids(mode, n_values, values)
    points = len(n_grid) * len(values)

    def tables(starts: range, names=None) -> Iterator[SweepTable]:
        for start in starts:
            stop = min(start + BLOCK_POINTS, points)
            yield _grid_table(mode, n_grid, values, start, stop, names)

    return range(0, points, BLOCK_POINTS), values, tables


def _grid_table(mode: str, n_grid: np.ndarray, values: np.ndarray, start: int, stop: int,
                names=None) -> SweepTable:
    """The sweep table of points ``start`` to ``stop - 1`` of the n-major grid
    ``n_grid`` x ``values``, both validated, and its axes.

    Point i of the grid is (n_grid[i // m], values[i % m]), m = len(values).
    Each axis holds the grid values the points touch, in grid order, and one
    code per point into them: for n the rows from the first point's to the
    last one's, a view of ``n_grid``; for the other, all of ``values`` when the
    points fill a row or more, else the points' own values, which a range
    shorter than a row touches once each.  ``names``, one per entry of
    ``values``, replace all of ``values`` on the value axis whatever the
    range, each point coded by its column.
    """
    rows, columns = np.divmod(np.arange(start, stop), len(values))
    n, value = n_grid[rows], values[columns]
    n_axis = n_grid[rows[0] : rows[-1] + 1], rows - rows[0]
    if names is not None:
        value_axis = names, columns
    elif len(value) < len(values):
        value_axis = value, np.arange(len(value))
    else:
        value_axis = values, columns
    return _table(mode, n, value, (n_axis, value_axis))


@np.errstate(all="ignore")
def _table(mode: str, n: np.ndarray, value: np.ndarray, axes=None) -> SweepTable:
    """The sweep table of validated points (n[i], value[i]), value being alpha^2
    or p; ``axes`` as ``_grid_table`` gives them, by default each point its own
    n and value.  Engine and closed forms run under one ``np.errstate``: a
    non-finite value raises through ``_finite`` or the engine's checks."""
    formula = np.zeros((len(n), len(BRANCH_ORDER)))
    if mode == "pure":
        probability, oracle = _pure_branches(value, n)
        x = np.array((value, 1.0 - value))
        forms = _bob_zero_form(x, x[::-1], n)  # Phi, Psi
        formula[:, PHI_ZERO_COLUMNS] = forms[0, :, None]
        formula[:, PSI_ZERO_COLUMNS] = forms[1, :, None]
    else:
        probability, oracle = _werner_branches(value, n)
        formula[:, PHI_ZERO_COLUMNS + PSI_ZERO_COLUMNS] = _werner_form(value, n)[:, None]
    if axes is None:
        index = np.arange(len(n))
        axes = (n, index), (value, index)
    _finite(formula)
    _finite(oracle, "oracle concurrence")
    abs_diff = np.abs(oracle - formula)
    return SweepTable(
        mode=mode,
        n=n,
        alpha_sq=value if mode == "pure" else None,
        p=value if mode == "werner" else None,
        probability=probability,
        oracle=oracle,
        formula=formula,
        abs_diff=abs_diff,
        match=abs_diff <= MATCH_TOL,
        axes=axes,
    )
