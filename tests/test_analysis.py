"""Closed forms, classification, the rating quartic, and verification sweeps."""
from decimal import Decimal, localcontext

import numpy as np
import pytest

from wteleport import (
    BellOutcome,
    BobOutcome,
    InvalidInput,
    NumericalFailure,
    Region,
    SweepTable,
    classify_region,
    efficiency_ratio,
    input_concurrence,
    predicted_concurrence_phi,
    predicted_concurrence_psi,
    predicted_concurrence_werner,
    quartic,
    quartic_roots,
    state_independent_alpha_sq,
    sweep,
)
from wteleport.analysis import PHI_ZERO_COLUMNS, PSI_ZERO_COLUMNS, _columns
from wteleport.protocol import BRANCH_ORDER

N_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)

# frozen from an independent high-precision root search
ROOT_LOW = 0.016694849973322434
ROOT_HIGH = 2.5871608510577097

# n from the smallest subnormal decade to just below where 2 + 2n overflows,
# and the edges of alpha^2 and p
EXTREME_N = (1e-323, 1e-300, 1e-16, 1.0, 1e16, 1e300, 8.9e307)
EDGE_VALUES = (
    0.0, 1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-12, 1e-6,
    1.0 / 3.0, 0.5, 1.0 - 1e-12, 1.0 - 1e-16, 1.0,
)


def _fifty_digits(form, *values):
    """``form`` over the exact decimal values of the doubles ``values``, at 50 digits."""
    with localcontext() as context:
        context.prec = 50
        return float(form(*map(Decimal, values)))


def _bob_zero(x, y, n):
    return 2 * (n * x * y).sqrt() / (n * x + y)


def _derived_werner(p, n):
    return max(Decimal(0), n.sqrt() * (3 * p - 1) / (n + 1))


# The pure input's branch probabilities by branch columns: (n x + y) / (4 (n + 1))
# for Phi Bob 0, (x + n y) / (4 (n + 1)) for Psi Bob 0, x / 4 and y / 4 for Phi
# and Psi Bob 1, with x = alpha^2 and y = 1 - x.
PHI = (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
PSI = (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS)
_PURE_PROBABILITIES = (
    (PHI_ZERO_COLUMNS, lambda x, n: (n * x + (1 - x)) / (4 * (n + 1))),
    (PSI_ZERO_COLUMNS, lambda x, n: (x + n * (1 - x)) / (4 * (n + 1))),
    (_columns(PHI, BobOutcome.ONE), lambda x, n: x / 4),
    (_columns(PSI, BobOutcome.ONE), lambda x, n: (1 - x) / 4),
)


class TestPredictedPhi:
    def test_identity_channel(self):
        for alpha_sq in np.linspace(0.01, 0.99, 25):
            alpha = np.sqrt(alpha_sq)
            assert predicted_concurrence_phi(alpha, 1.0) == pytest.approx(
                2.0 * alpha * np.sqrt(1.0 - alpha_sq), abs=1e-15
            )

    def test_product_endpoints(self):
        assert predicted_concurrence_phi(0.0, 2.0) == 0.0
        assert predicted_concurrence_phi(1.0, 2.0) == 0.0

    def test_preserving_point_at_n4(self):
        assert predicted_concurrence_phi(np.sqrt(1.0 / 3.0), 4.0) == pytest.approx(
            2.0 * np.sqrt(2.0) / 3.0, abs=1e-14
        )

    def test_factors_into_input_concurrence_times_ratio(self):
        for n in N_GRID:
            for alpha_sq in (0.1, 0.5, 0.9):
                alpha = np.sqrt(alpha_sq)
                assert predicted_concurrence_phi(alpha, n) == pytest.approx(
                    input_concurrence(alpha) * efficiency_ratio(alpha_sq, n), abs=1e-13
                )

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            predicted_concurrence_phi(1.1, 1.0)
        with pytest.raises(InvalidInput):
            predicted_concurrence_phi(0.5, 0.0)


class TestPredictedPsi:
    def test_identity_channel(self):
        for alpha_sq in (0.2, 0.5, 0.8):
            alpha = np.sqrt(alpha_sq)
            assert predicted_concurrence_psi(alpha, 1.0) == pytest.approx(
                input_concurrence(alpha), abs=1e-14
            )

    def test_symmetric_weight_matches_phi(self):
        for n in N_GRID:
            assert predicted_concurrence_psi(np.sqrt(0.5), n) == pytest.approx(
                predicted_concurrence_phi(np.sqrt(0.5), n), abs=1e-14
            )

    def test_mirror_of_phi(self):
        # beta^2 = 1/3 (alpha^2 = 2/3) mirrors the phi case at alpha^2 = 1/3
        assert predicted_concurrence_psi(np.sqrt(2.0 / 3.0), 4.0) == pytest.approx(
            2.0 * np.sqrt(2.0) / 3.0, abs=1e-14
        )


class TestPredictedWerner:
    def test_vanishes_at_threshold(self):
        assert predicted_concurrence_werner(1.0 / 3.0, 2.0) == 0.0

    def test_vanishes_fully_mixed(self):
        assert predicted_concurrence_werner(0.0, 2.0) == 0.0

    def test_exceeds_physical_range_unclamped(self):
        # the closed form verbatim: 2.0 at n=1, p=1 even though concurrence
        # cannot exceed 1; the sweep flags it against the oracle's 1.0
        assert predicted_concurrence_werner(1.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            predicted_concurrence_werner(-0.1, 1.0)

    @pytest.mark.parametrize("n", [1.4e154, 1e200])
    def test_overflowing_square_keeps_the_printed_value(self, n):
        # (n + 1)^2 overflows above n = 1.34e154; the form divides by n + 1
        # twice there, in the scalar and in the sweep alike
        expected = _fifty_digits(lambda p, n: 4 * n.sqrt() * (3 * p - 1) / (n + 1) ** 2, 0.5, n)
        formula = sweep("werner", n_values=(n,), p_values=(0.5, 1.0 / 3.0)).formula
        bob_zero = PHI_ZERO_COLUMNS + PSI_ZERO_COLUMNS
        for value in (predicted_concurrence_werner(0.5, n), *formula[0, bob_zero]):
            assert abs(value - expected) <= 1e-15 * expected
        assert not formula[1].any()

    def test_printed_form_is_the_derived_form_times_four_over_n_plus_one(self):
        # the printed 4 sqrt(n) (3p-1) / (n+1)^2 is max(0, sqrt(n) (3p-1) / (n+1)),
        # the derived Bob-0 concurrence, times 4/(n+1); the two agree at n = 3 only
        table = sweep("werner", n_values=np.logspace(-3, 3, 61), p_values=np.linspace(0, 1, 101))
        n, p = table.n[:, None], table.p[:, None]
        derived = np.maximum(0.0, np.sqrt(n) * (3.0 * p - 1.0) / (n + 1.0))
        bob_zero = PHI_ZERO_COLUMNS + PSI_ZERO_COLUMNS
        assert np.abs(table.formula[:, bob_zero] - derived * (4.0 / (n + 1.0))).max() <= 1e-15
        table = sweep("werner", n_values=(3.0,), p_values=np.linspace(0, 1, 101))
        derived = np.maximum(0.0, np.sqrt(3.0) * (3.0 * table.p[:, None] - 1.0) / 4.0)
        assert np.abs(table.formula[:, bob_zero] - derived).max() <= 1e-15


class TestStateIndependentPoint:
    def test_n4(self):
        point = state_independent_alpha_sq(4.0)
        assert point.alpha_sq == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert not point.any_alpha

    def test_n1_flags_every_input(self):
        point = state_independent_alpha_sq(1.0)
        assert point.alpha_sq == pytest.approx(0.5, abs=1e-15)
        assert point.any_alpha

    def test_n9_preserves_concurrence(self):
        point = state_independent_alpha_sq(9.0)
        assert point.alpha_sq == pytest.approx(0.25, abs=1e-15)
        alpha = np.sqrt(point.alpha_sq)
        assert predicted_concurrence_phi(alpha, 9.0) == pytest.approx(
            input_concurrence(alpha), abs=1e-14
        )
        assert input_concurrence(alpha) == pytest.approx(2 * 0.5 * np.sqrt(0.75), abs=1e-15)

    def test_rationalized_form_matches_raw(self):
        for n in (0.1, 0.25, 0.5, 2.0, 4.0, 9.0, 10.0):
            raw = (np.sqrt(n) - 1.0) / (n - 1.0)
            assert state_independent_alpha_sq(n).alpha_sq == pytest.approx(raw, abs=1e-13)

    def test_preserving_at_special_point(self):
        for n in (0.25, 0.5, 2.0, 4.0, 9.0):
            point = state_independent_alpha_sq(n)
            alpha = np.sqrt(point.alpha_sq)
            assert predicted_concurrence_phi(alpha, n) == pytest.approx(
                input_concurrence(alpha), abs=1e-12
            )


class TestClassifyRegion:
    def test_degraded_above_threshold_for_large_n(self):
        assert classify_region(0.9, 4.0) is Region.DEGRADED

    def test_boundary_is_preserving(self):
        assert classify_region(1.0 / 3.0, 4.0) is Region.PRESERVING

    def test_degraded_below_threshold_for_small_n(self):
        # threshold at n = 0.25 is 2/3; ratio at alpha^2 = 0.1 is ~0.541
        assert classify_region(0.1, 0.25) is Region.DEGRADED
        assert efficiency_ratio(0.1, 0.25) == pytest.approx(0.5 / 0.925, abs=1e-12)

    def test_consistent_with_ratio(self):
        for n in N_GRID:
            for alpha_sq in np.linspace(0.02, 0.98, 25):
                region = classify_region(alpha_sq, n)
                alpha = np.sqrt(alpha_sq)
                degraded = predicted_concurrence_phi(alpha, n) < input_concurrence(alpha) - 1e-12
                assert (region is Region.DEGRADED) == degraded

    def test_open_interval_enforced(self):
        with pytest.raises(InvalidInput):
            classify_region(0.0, 2.0)
        with pytest.raises(InvalidInput):
            classify_region(1.0, 2.0)


class TestQuartic:
    def test_exact_values(self):
        assert quartic(0.0) == 1.0
        assert quartic(1.0) == -48.0
        assert quartic(3.0) == 64.0

    def test_overflow_is_a_numerical_failure(self):
        for n in (1e100, -1e100):  # n^4 overflows; so does -4n^3, to -inf
            with pytest.raises(NumericalFailure, match="quartic is not finite"):
                quartic(n)
        for n in (float("nan"), float("inf"), "1", [1.0, 2.0]):
            with pytest.raises(InvalidInput):
                quartic(n)

    def test_roots(self):
        report = quartic_roots()
        assert report.coefficients == (1.0, 4.0, 6.0, -60.0, 1.0)
        r1, r2 = report.roots_positive
        assert 0.0 < r1 < 0.1
        assert 2.0 < r2 < 3.0
        assert abs(quartic(r1)) <= 1e-8
        assert abs(quartic(r2)) <= 1e-8
        assert r1 == pytest.approx(ROOT_LOW, abs=1e-9)
        assert r2 == pytest.approx(ROOT_HIGH, abs=1e-9)

    def test_sign_regions(self):
        report = quartic_roots()
        (low, mid, high) = report.sign_regions
        assert (low.sign, mid.sign, high.sign) == (1, -1, 1)
        assert low.lower == 0.0
        assert low.upper == report.roots_positive[0]
        assert mid.upper == report.roots_positive[1]
        assert high.upper is None
        # sample evaluations confirm the pattern
        assert quartic(0.01) > 0.0
        assert quartic(1.0) < 0.0
        assert quartic(3.0) > 0.0


class TestUnimodality:
    def test_single_peak_over_input_weight(self):
        alpha_sq_values = np.linspace(0.01, 0.99, 99)
        for n in N_GRID:
            values = [
                predicted_concurrence_phi(np.sqrt(s), n) for s in alpha_sq_values
            ]
            diffs = np.diff(values)
            signs = [int(np.sign(d)) for d in diffs if abs(d) > 1e-12]
            changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert changes == 1, f"n={n}"
            assert signs[0] == 1 and signs[-1] == -1

    def test_peak_value_reaches_one(self):
        # the maximum over alpha^2 is 1 for every n, at alpha^2 = 1/(n+1)
        for n in N_GRID:
            assert predicted_concurrence_phi(np.sqrt(1.0 / (n + 1.0)), n) == pytest.approx(
                1.0, abs=1e-12
            )


class TestSweep:
    # Positions of the branches the tests read, in the table's branch columns.
    PHI_ZERO = BRANCH_ORDER.index((BellOutcome.PHI_PLUS, BobOutcome.ZERO))
    BOB_ONE = [k for k, (_, bob) in enumerate(BRANCH_ORDER) if bob is BobOutcome.ONE]

    def test_pure_point(self):
        table = sweep("pure", n_values=(1.0,), alpha_sq_values=(0.25,))
        assert isinstance(table, SweepTable)
        assert len(table) == 8
        assert table.oracle.shape == table.formula.shape == (1, 8)
        expected = 2.0 * 0.5 * np.sqrt(0.75)
        assert table.oracle[0, self.PHI_ZERO] == pytest.approx(expected, abs=1e-12)
        assert table.formula[0, self.PHI_ZERO] == pytest.approx(expected, abs=1e-12)
        bell, bob = BRANCH_ORDER[self.PHI_ZERO]
        assert (bell.value, bob.value) == ("PhiPlus", "Zero")
        assert table.match[0, self.PHI_ZERO]

    def test_bob_one_rows_match_zero(self):
        table = sweep("pure", n_values=(2.0,), alpha_sq_values=(0.3, 0.7))
        assert table.formula[:, self.BOB_ONE].size == 8
        assert (table.formula[:, self.BOB_ONE] == 0.0).all()
        assert table.match[:, self.BOB_ONE].all()
        one_columns = [k for k, (_, bob) in enumerate(BRANCH_ORDER) if bob.value == "One"]
        assert table.match[:, one_columns].size == 8
        assert table.match[:, one_columns].all()

    def test_werner_discrepancy(self):
        table = sweep("werner", n_values=(1.0,), p_values=(1.0,))
        assert table.alpha_sq is None
        assert table.oracle[0, self.PHI_ZERO] == pytest.approx(1.0, abs=1e-10)
        assert table.formula[0, self.PHI_ZERO] == pytest.approx(2.0, abs=1e-12)
        assert not table.match[0, self.PHI_ZERO]
        bell, bob = BRANCH_ORDER[self.PHI_ZERO]
        assert (table.mode, table.n[0], table.p[0], bell.value, bob.value) == (
            "werner", 1.0, 1.0, "PhiPlus", "Zero"
        )

    def test_default_pure_grid_all_match(self):
        table = sweep("pure")
        assert len(table) == table.match.size == len(table.n) * 8 == 7 * 19 * 8
        assert table.match.all()

    def test_deterministic_ordering(self):
        table = sweep("pure", n_values=(1.0, 2.0), alpha_sq_values=(0.25, 0.75))
        coords = list(zip(table.n.tolist(), table.alpha_sq.tolist()))
        assert coords == sorted(coords)
        assert coords == [(1.0, 0.25), (1.0, 0.75), (2.0, 0.25), (2.0, 0.75)]
        assert table.oracle.shape == (4, 8)
        bells = ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus")
        assert [(bell.value, bob.value) for bell, bob in BRANCH_ORDER] == [
            (bell, bob) for bell in bells for bob in ("Zero", "One")
        ]
        assert BRANCH_ORDER == tuple((bell, bob) for bell in BellOutcome for bob in BobOutcome)

    def test_wide_domain_all_match(self):
        # the Bob-0 closed forms must not cancel anywhere on n in [1e-12, 1e12],
        # up to the edges of alpha^2 (the printed (n-1) alpha^2 + 1 gave 1.00001
        # at n = 1e-12, alpha^2 = 1 - 1e-12)
        edges = (0.0, 1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12, 1.0)
        alpha_sq = np.union1d(edges, np.linspace(0.0, 1.0, 41))
        table = sweep("pure", n_values=np.logspace(-12, 12, 97), alpha_sq_values=alpha_sq)
        assert len(table) == 97 * 45 * 8
        assert np.isfinite(table.formula).all()
        assert table.formula.min() >= 0.0 and table.formula.max() <= 1.0
        assert table.match.all(), table.abs_diff.max()

    def test_fifty_digit_reference_beyond_the_old_domain(self):
        # at the printed alpha^2, every Bob-0 closed form and oracle is within
        # 1e-15 of a 50-digit evaluation, and every branch probability within
        # 1e-15 of it relative, down to subnormal n and up to the overflow of
        # 2 + 2n
        pure = sweep("pure", n_values=EXTREME_N, alpha_sq_values=EDGE_VALUES)
        werner = sweep("werner", n_values=EXTREME_N, p_values=EDGE_VALUES)
        m = len(EDGE_VALUES)
        bob_zero = PHI_ZERO_COLUMNS + PSI_ZERO_COLUMNS
        for i, n in enumerate(np.repeat(EXTREME_N, m)):
            x = pure.alpha_sq[i]
            phi = _fifty_digits(lambda x, n: _bob_zero(x, 1 - x, n), x, n)
            psi = _fifty_digits(lambda x, n: _bob_zero(1 - x, x, n), x, n)
            derived = _fifty_digits(_derived_werner, werner.p[i], n)
            for columns, expected in ((PHI_ZERO_COLUMNS, phi), (PSI_ZERO_COLUMNS, psi)):
                for column in (pure.formula, pure.oracle):
                    assert np.abs(column[i, columns] - expected).max() <= 1e-15, (n, x)
            for columns, form in _PURE_PROBABILITIES:
                expected = _fifty_digits(form, x, n)
                got = pure.probability[i, columns]
                assert np.abs(got - expected).max() <= 1e-15 * expected, (n, x, columns)
            # the printed Werner form is the documented discrepancy; the
            # oracle follows the derived one
            assert np.abs(werner.oracle[i, bob_zero] - derived).max() <= 1e-15, (n, werner.p[i])

    def test_near_overflow_corner_matches(self):
        # the Phi Bob-0 probability (n alpha^2 + 1)/(4n) is subnormal, 5.6e-309,
        # but the branch's unscaled weight is not, so it stays live: oracle and
        # formula both read 0.9999999999999999
        table = sweep("pure", n_values=(8.9e307,), alpha_sq_values=(1 / 8.9e307,))
        assert table.match.all(), table.oracle[0, PHI_ZERO_COLUMNS]

    def test_near_overflow_corner_scan_has_no_discrepant_row(self):
        # n up to just below where 2 + 2n overflows, alpha^2 down to the
        # smallest subnormal decade: wherever (n alpha^2 + 1)/(4n) is subnormal,
        # a live Phi Bob-0 branch must still be read as live
        n = np.logspace(300, 307.95, 40)
        table = sweep("pure", n_values=n, alpha_sq_values=np.logspace(-323, -290, 40))
        assert table.match.all(), np.count_nonzero(~table.match)

    def test_subnormal_corner_scan_has_no_discrepant_row(self):
        # with n and alpha^2 both subnormal the Psi Bob-0 weight alpha^2 +
        # n (1 - alpha^2) can be subnormal too, and so can the closed form's
        # sqrt(n x) sqrt(y); the engine forms every branch at a power-of-two
        # scale that makes such a weight normal, and the closed form divides
        # before it multiplies, so every row matches, and the Bob-0 rows agree
        # with a 50-digit evaluation
        grid = np.logspace(-323, -290, 200)
        table = sweep("pure", n_values=grid, alpha_sq_values=grid)
        assert table.match.all(), np.count_nonzero(~table.match)
        corner = [(4 * 2.0**-1074, 1955 * 2.0**-1074), (1e-316, 1e-317), (1e-323, 1e-323),
                  (5e-324, 3e-310), (1e-310, 1e-320)]
        for n, x in corner:
            table = sweep("pure", n_values=(n,), alpha_sq_values=(x,))
            phi = _fifty_digits(lambda x, n: _bob_zero(x, 1 - x, n), x, n)
            psi = _fifty_digits(lambda x, n: _bob_zero(1 - x, x, n), x, n)
            for columns, expected in ((PHI_ZERO_COLUMNS, phi), (PSI_ZERO_COLUMNS, psi)):
                for column in (table.formula, table.oracle):
                    assert np.abs(column[0, columns] - expected).max() <= 1e-15, (n, x)

    def test_sweep_evaluates_the_printed_alpha_sq(self):
        # 0.99863 at the printed alpha^2; at fl(sqrt(alpha^2))^2, where 1 - x is
        # twice the printed 1 - alpha^2, oracle and formula would read 0.92541
        n, alpha_sq = 1e-16, 0.9999999999999999
        table = sweep("pure", n_values=(n,), alpha_sq_values=(alpha_sq,))
        expected = _fifty_digits(lambda x, n: _bob_zero(x, 1 - x, n), alpha_sq, n)
        for column in (table.formula, table.oracle):
            assert np.abs(column[0, PHI_ZERO_COLUMNS] - expected).max() <= 1e-12

    def test_scalar_forms_are_the_sweep_formula_bit_for_bit(self):
        # the scalar closed forms run the sweep's arithmetic, at alpha^2 = alpha * alpha
        n_grid = EXTREME_N + (1e200,)
        alpha = np.sqrt(EDGE_VALUES)
        pure = sweep("pure", n_values=n_grid, alpha_sq_values=alpha * alpha)
        werner = sweep("werner", n_values=n_grid, p_values=EDGE_VALUES)
        points = [(n, a, p) for n in n_grid for a, p in zip(alpha, EDGE_VALUES)]
        for form, table, column, value in (
            (predicted_concurrence_phi, pure, PHI_ZERO_COLUMNS, lambda a, p: a),
            (predicted_concurrence_psi, pure, PSI_ZERO_COLUMNS, lambda a, p: a),
            (predicted_concurrence_werner, werner, PHI_ZERO_COLUMNS, lambda a, p: p),
        ):
            scalars = np.array([form(value(a, p), n) for n, a, p in points])
            assert scalars.tobytes() == table.formula[:, column[0]].tobytes(), form.__name__
        # where an (n + 1)^2 by pow differed from the sweep's square by one ulp
        n_grid = np.logspace(-6, 150, 3000)
        table = sweep("werner", n_values=n_grid, p_values=(0.9,))
        scalars = np.array([predicted_concurrence_werner(0.9, n) for n in n_grid])
        assert scalars.tobytes() == table.formula[:, PHI_ZERO_COLUMNS[0]].tobytes()

    def test_parameter_validation(self):
        with pytest.raises(InvalidInput):
            sweep("pure", n_values=())
        with pytest.raises(InvalidInput):
            sweep("pure", p_values=(0.5,))
        with pytest.raises(InvalidInput):
            sweep("werner", alpha_sq_values=(0.5,))
        with pytest.raises(InvalidInput):
            sweep("nonsense")
        with pytest.raises(InvalidInput):
            sweep("pure", n_values=(1.0,), alpha_sq_values=(-0.5,))

    @pytest.mark.parametrize(
        "grids",
        [
            {"n_values": 2.0},  # a scalar n grid
            {"n_values": [[1.0, 2.0]]},  # a 2-D n grid
            {"n_values": [1.0, 2.0], "values": [[0.5, 0.2]]},  # a 2-D parameter grid
        ],
    )
    @pytest.mark.parametrize("mode, key", [("pure", "alpha_sq_values"), ("werner", "p_values")])
    def test_grids_must_be_one_dimensional(self, grids, mode, key):
        grids = dict(grids)
        values = grids.pop("values", (0.5,))
        with pytest.raises(InvalidInput, match="grids must be 1-D"):
            sweep(mode, **grids, **{key: values})
