"""Channel states, full branch enumeration, branch maps, and the mixed path."""
import numpy as np
import pytest

import wteleport.protocol
from wteleport import (
    BellOutcome,
    BobOutcome,
    InvalidInput,
    NumericalFailure,
    StateVector,
    bell_basis,
    branch_map,
    compose_joint,
    concurrence_pure,
    density_from_pure,
    input_pair,
    measure,
    run_protocol_mixed,
    run_protocol_pure,
    w_normalization,
    w_state,
    werner,
)
from wteleport.analysis import (
    predicted_branch_matrix_phi,
    predicted_branch_matrix_psi,
)

RT2 = 1.0 / np.sqrt(2.0)

N_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)
ALPHA_SQ_GRID = tuple(np.linspace(0.05, 0.95, 19))
P_GRID = tuple(np.linspace(0.0, 1.0, 11))

ZERO_BRANCHES = (
    (BellOutcome.PHI_PLUS, BobOutcome.ZERO),
    (BellOutcome.PHI_MINUS, BobOutcome.ZERO),
    (BellOutcome.PSI_PLUS, BobOutcome.ZERO),
    (BellOutcome.PSI_MINUS, BobOutcome.ZERO),
)


class TestInputPair:
    def test_product_endpoint(self):
        np.testing.assert_allclose(input_pair(1.0).amplitudes, [1, 0, 0, 0])

    def test_symmetric_point_is_bell(self):
        np.testing.assert_allclose(input_pair(RT2).amplitudes, [RT2, 0, 0, RT2])

    def test_concurrence_at_one_third(self):
        state = input_pair(np.sqrt(1.0 / 3.0))
        assert concurrence_pure(state) == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            input_pair(1.5)
        with pytest.raises(InvalidInput):
            input_pair(-0.1)


class TestWState:
    def test_n_equal_one(self):
        state = w_state(1.0)
        expected = np.zeros(8)
        expected[0b100] = 0.5
        expected[0b010] = 0.5
        expected[0b001] = np.sqrt(2.0) / 2.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_n_equal_two(self):
        state = w_state(2.0)
        f = 1.0 / np.sqrt(6.0)
        assert state.amplitudes[0b100] == pytest.approx(f)
        assert state.amplitudes[0b010] == pytest.approx(f * np.sqrt(2.0))
        assert state.amplitudes[0b001] == pytest.approx(f * np.sqrt(3.0))

    def test_unit_norm(self):
        for n in N_GRID:
            assert w_state(n).is_normalized(1e-12)

    def test_normalization_constant(self):
        assert w_normalization(1.0) == pytest.approx(0.5)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidInput):
            w_state(0.0)
        with pytest.raises(InvalidInput):
            w_state(-2.0)


class TestWerner:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(werner(0.0).entries, np.eye(4) / 4.0)

    def test_pure_endpoint(self):
        phi_plus = StateVector((1, 2), np.array([RT2, 0, 0, RT2]))
        np.testing.assert_allclose(
            werner(1.0).entries, density_from_pure(phi_plus).entries, atol=1e-15
        )

    def test_half_mixture_entries(self):
        rho = werner(0.5)
        np.testing.assert_allclose(np.diag(rho.entries).real, [3 / 8, 1 / 8, 1 / 8, 3 / 8])
        assert rho.entries[0, 3] == pytest.approx(0.25)
        assert rho.entries[3, 0] == pytest.approx(0.25)

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            werner(1.01)


def expected_branch_vectors(alpha, n):
    """The four unnormalized (1,4,5) components after Alice's Bell projection."""
    beta = np.sqrt(1.0 - alpha * alpha)
    g = w_normalization(n) / np.sqrt(2.0)
    rn, rn1 = np.sqrt(n), np.sqrt(n + 1.0)
    vectors = {}
    for bell, s in ((BellOutcome.PHI_PLUS, 1.0), (BellOutcome.PHI_MINUS, -1.0)):
        v = np.zeros(8)
        v[0b010] = rn * alpha
        v[0b001] = rn1 * alpha
        v[0b100] = s * beta
        vectors[bell] = g * v
    for bell, s in ((BellOutcome.PSI_PLUS, 1.0), (BellOutcome.PSI_MINUS, -1.0)):
        v = np.zeros(8)
        v[0b000] = alpha
        v[0b110] = s * rn * beta
        v[0b101] = s * rn1 * beta
        vectors[bell] = g * v
    return vectors


class TestComposeJoint:
    def test_unit_norm(self):
        assert compose_joint(input_pair(0.3), w_state(5.0)).is_normalized(1e-12)

    def test_register_mismatch(self):
        with pytest.raises(InvalidInput):
            compose_joint(w_state(1.0), input_pair(0.3))

    @pytest.mark.parametrize("alpha,n", [(1.0, 1.0), (0.0, 3.0), (0.6, 0.25), (RT2, 4.0)])
    def test_bell_regrouping(self, alpha, n):
        joint = compose_joint(input_pair(alpha), w_state(n))
        expected = expected_branch_vectors(alpha, n)
        results = measure(joint, (2, 3), bell_basis((2, 3)))
        for bell, (_, prob, post) in zip(BellOutcome, results):
            reconstructed = np.sqrt(prob) * post.amplitudes
            np.testing.assert_allclose(reconstructed, expected[bell], atol=1e-12)


class TestRunProtocolPure:
    def test_symmetric_point_phi_branch(self):
        result = run_protocol_pure(RT2, 1.0)
        branch = result.branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO)
        assert branch.probability == pytest.approx(0.125, abs=1e-14)
        np.testing.assert_allclose(branch.post_state.amplitudes, [0, RT2, RT2, 0], atol=1e-12)
        assert branch.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_bob_one_branches_dead(self):
        for n in N_GRID:
            for alpha_sq in (0.05, 0.5, 0.95):
                result = run_protocol_pure(np.sqrt(alpha_sq), n)
                for bell in BellOutcome:
                    assert result.branch(bell, BobOutcome.ONE).concurrence < 1e-12

    def test_state_independent_point(self):
        result = run_protocol_pure(np.sqrt(1.0 / 3.0), 4.0)
        branch = result.branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO)
        assert branch.concurrence == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-12)

    def test_phi_zero_post_state_closed_form(self):
        # N (sqrt(n) a |01> +/- b |10>) with N = 1/sqrt(n a^2 + b^2)
        for n in (0.25, 1.0, 3.7):
            for alpha_sq in (0.2, 0.5, 0.8):
                alpha = np.sqrt(alpha_sq)
                beta = np.sqrt(1.0 - alpha_sq)
                norm = 1.0 / np.sqrt(n * alpha_sq + beta**2)
                result = run_protocol_pure(alpha, n)
                for bell, s in ((BellOutcome.PHI_PLUS, 1.0), (BellOutcome.PHI_MINUS, -1.0)):
                    post = result.branch(bell, BobOutcome.ZERO).post_state
                    expected = norm * np.array([0, np.sqrt(n) * alpha, s * beta, 0])
                    overlap = abs(np.vdot(expected, post.amplitudes))
                    assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_psi_zero_post_state_closed_form(self):
        for n in (0.25, 1.0, 3.7):
            for alpha_sq in (0.2, 0.5, 0.8):
                alpha = np.sqrt(alpha_sq)
                beta = np.sqrt(1.0 - alpha_sq)
                norm = 1.0 / np.sqrt(alpha_sq + n * beta**2)
                result = run_protocol_pure(alpha, n)
                for bell, s in ((BellOutcome.PSI_PLUS, 1.0), (BellOutcome.PSI_MINUS, -1.0)):
                    post = result.branch(bell, BobOutcome.ZERO).post_state
                    expected = norm * np.array([alpha, 0, 0, s * np.sqrt(n) * beta])
                    overlap = abs(np.vdot(expected, post.amplitudes))
                    assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_probability_conservation(self):
        for n in N_GRID:
            for alpha_sq in ALPHA_SQ_GRID:
                result = run_protocol_pure(np.sqrt(alpha_sq), n)
                assert result.total_probability == pytest.approx(1.0, abs=1e-12)
                assert len(result.branches) == 8

    def test_sign_partners_have_equal_weight(self):
        for n in (0.5, 2.0):
            result = run_protocol_pure(0.7, n)
            for plus, minus in (
                (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS),
                (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS),
            ):
                for bob in BobOutcome:
                    a = result.branch(plus, bob)
                    b = result.branch(minus, bob)
                    assert a.probability == pytest.approx(b.probability, abs=1e-12)
                    assert a.concurrence == pytest.approx(b.concurrence, abs=1e-12)

    def test_product_input_kills_psi_one_branches(self):
        result = run_protocol_pure(1.0, 2.0)
        for bell in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS):
            branch = result.branch(bell, BobOutcome.ONE)
            assert branch.probability < 1e-14
            assert branch.post_state.is_zero()
            assert branch.concurrence == 0.0
        assert result.total_probability == pytest.approx(1.0, abs=1e-12)


class TestBranchMap:
    def test_phi_plus_zero_action(self):
        n = 3.0
        g = w_normalization(n) / np.sqrt(2.0)
        m = branch_map(n, BellOutcome.PHI_PLUS, BobOutcome.ZERO)
        np.testing.assert_allclose(m @ [1, 0, 0, 0], g * np.sqrt(n) * np.array([0, 1, 0, 0]))
        np.testing.assert_allclose(m @ [0, 0, 0, 1], g * np.array([0, 0, 1, 0]))
        np.testing.assert_allclose(m @ [0, 1, 0, 0], g * np.array([1, 0, 0, 0]))
        np.testing.assert_allclose(m @ [0, 0, 1, 0], g * np.sqrt(n) * np.array([0, 0, 0, 1]))

    def test_phi_one_collapses_entangled_input(self):
        m = branch_map(2.0, BellOutcome.PHI_PLUS, BobOutcome.ONE)
        image = m @ input_pair(0.6).amplitudes
        # image is proportional to |00>
        assert np.count_nonzero(np.abs(image) > 1e-15) == 1
        assert abs(image[0b00]) > 0

    def test_completeness(self):
        for n in N_GRID:
            total = sum(
                branch_map(n, bell, bob).conj().T @ branch_map(n, bell, bob)
                for bell in BellOutcome
                for bob in BobOutcome
            )
            np.testing.assert_allclose(total, np.eye(4), atol=1e-14)

    def test_reproduces_enumeration(self):
        rng = np.random.default_rng(31)
        for n in (0.1, 1.0, 4.0):
            for alpha in rng.uniform(0.05, 0.95, size=4):
                result = run_protocol_pure(alpha, n)
                pair = input_pair(alpha)
                for branch in result.branches:
                    image = branch_map(n, branch.bell, branch.bob) @ pair.amplitudes
                    prob = float(np.vdot(image, image).real)
                    assert prob == pytest.approx(branch.probability, abs=1e-12)
                    if prob > 1e-14:
                        overlap = abs(
                            np.vdot(image / np.sqrt(prob), branch.post_state.amplitudes)
                        )
                        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestRunProtocolMixed:
    def test_pure_limit_matches_symmetric_input(self):
        result = run_protocol_mixed(1.0, 1.0)
        branch = result.branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO)
        psi_plus = StateVector((1, 4), np.array([0, RT2, RT2, 0]))
        np.testing.assert_allclose(
            branch.post_state.entries, density_from_pure(psi_plus).entries, atol=1e-12
        )
        assert branch.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_separable_input_stays_separable(self):
        result = run_protocol_mixed(0.0, 3.0)
        for branch in result.branches:
            assert branch.concurrence == pytest.approx(0.0, abs=1e-12)

    def test_threshold_mixing(self):
        for n in (0.5, 1.0, 4.0):
            result = run_protocol_mixed(1.0 / 3.0, n)
            for branch in result.branches:
                assert branch.concurrence == pytest.approx(0.0, abs=1e-10)

    def test_strong_mixing_concurrence(self):
        result = run_protocol_mixed(0.9, 1.0)
        branch = result.branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO)
        assert branch.concurrence == pytest.approx(0.85, abs=1e-10)

    def test_probability_conservation(self):
        for n in N_GRID:
            for p in P_GRID:
                result = run_protocol_mixed(p, n)
                assert result.total_probability == pytest.approx(1.0, abs=1e-12)

    def test_calls_nothing_the_werner_engine_uses(self, monkeypatch):
        # the Werner run enumerates the Bell states the input mixes, so it
        # stays independent of the engine's branch maps and Werner matrices
        def unused(*args):
            raise AssertionError("run_protocol_mixed must not call the engine's helpers")

        for name in ("branch_map", "branch_maps", "_branch_actions", "werner", "_werner_entries"):
            monkeypatch.setattr(wteleport.protocol, name, unused)
        result = run_protocol_mixed(0.7, 2.0)
        assert result.total_probability == pytest.approx(1.0, abs=1e-12)

    def test_weighted_matrix_trace_is_probability(self):
        result = run_protocol_mixed(0.7, 2.0)
        for branch in result.branches:
            assert branch.weighted_matrix is not None
            assert branch.weighted_matrix.trace().real == pytest.approx(
                branch.probability, abs=1e-14
            )

    def test_linearity_in_the_input(self):
        # Werner run equals p * (run on the Bell projector) plus (1-p)/4 times
        # the sum of runs on the four basis projectors, branch by branch.
        phi_plus = np.array([RT2, 0, 0, RT2])
        components = [np.outer(phi_plus, phi_plus)] + [
            np.diag([1.0 if i == j else 0.0 for i in range(4)]) for j in range(4)
        ]
        for n in (0.25, 1.0, 4.0):
            for p in (0.2, 0.65, 1.0):
                weights = [p] + [(1.0 - p) / 4.0] * 4
                result = run_protocol_mixed(p, n)
                for branch in result.branches:
                    m = branch_map(n, branch.bell, branch.bob)
                    expected = sum(
                        w * (m @ comp @ m.conj().T)
                        for w, comp in zip(weights, components)
                    )
                    np.testing.assert_allclose(
                        branch.weighted_matrix, expected, atol=1e-10
                    )

    def test_psi_family_matches_closed_form_matrix(self):
        # the closed-form Psi matrix equals the oracle one after fixing the
        # global scale 2(n+1)
        for n in (0.5, 1.0, 3.0):
            for p in (0.0, 0.4, 1.0):
                result = run_protocol_mixed(p, n)
                for bell, sign in ((BellOutcome.PSI_PLUS, 1), (BellOutcome.PSI_MINUS, -1)):
                    scaled = (
                        result.branch(bell, BobOutcome.ZERO).weighted_matrix
                        * 2.0
                        * (n + 1.0)
                    )
                    np.testing.assert_allclose(
                        scaled, predicted_branch_matrix_psi(p, n, sign), atol=1e-12
                    )

    def test_phi_family_differs_only_in_one_entry(self):
        # the closed-form Phi matrix carries an extra factor n on the
        # |10><10| diagonal entry; everything else matches the oracle
        for n in (0.5, 3.0):
            for p in (0.4, 0.8):
                result = run_protocol_mixed(p, n)
                scaled = (
                    result.branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO).weighted_matrix
                    * 2.0
                    * (n + 1.0)
                )
                closed = predicted_branch_matrix_phi(p, n, 1)
                diff = np.abs(closed - scaled)
                assert diff[2, 2] == pytest.approx(abs(n - 1.0) * (1.0 + p) / 8.0, abs=1e-12)
                diff[2, 2] = 0.0
                assert diff.max() < 1e-12

    def test_case_families_share_concurrence(self):
        for n in N_GRID:
            for p in P_GRID:
                result = run_protocol_mixed(p, n)
                c_phi = result.branch(BellOutcome.PHI_PLUS, BobOutcome.ZERO).concurrence
                c_psi = result.branch(BellOutcome.PSI_PLUS, BobOutcome.ZERO).concurrence
                assert c_phi == pytest.approx(c_psi, abs=1e-10)


def _bits(arrays, i):
    """Every number row i of ``_mixed_results`` holds, as raw bytes, so equality
    is bit for bit."""
    return b"".join(np.ascontiguousarray(a[i]).tobytes() for a in arrays)


class TestMixedResults:
    P_VALUES = (0.0, 0.2, 1.0 / 3.0, 0.5, 0.9, 1.0)

    @pytest.mark.parametrize("n", [1e-6, 1.0, 4.0, 1e6])
    def test_grid_equals_one_call_per_p(self, n):
        results = wteleport.protocol._mixed_results(self.P_VALUES, n)
        assert [_bits(results, i) for i in range(len(self.P_VALUES))] == [
            _bits(wteleport.protocol._mixed_results((p,), n), 0) for p in self.P_VALUES
        ]

    def test_reversed_grid_reverses_the_results(self):
        forward = wteleport.protocol._mixed_results(self.P_VALUES, 2.0)
        backward = wteleport.protocol._mixed_results(self.P_VALUES[::-1], 2.0)
        rows = range(len(self.P_VALUES))
        assert [_bits(backward, i) for i in rows] == [_bits(forward, i) for i in rows][::-1]

    def test_projectors_are_built_once_and_shared_read_only(self, monkeypatch):
        built = []
        bell_projectors = wteleport.protocol._bell_projectors

        def recorded(n):
            built.append(bell_projectors(n))
            return built[-1]

        monkeypatch.setattr(wteleport.protocol, "_bell_projectors", recorded)
        wteleport.protocol._mixed_results(self.P_VALUES[:1], 2.0)
        wteleport.protocol._mixed_results(self.P_VALUES, 2.0)
        assert len(built) == 2  # once per call, for 1 and for 6 values of p
        for _, projectors in built:
            assert projectors.shape == (4, 8, 4, 4)
            with pytest.raises(ValueError):
                projectors[0, 0, 0, 0] = 0.5


def test_nan_probability_is_a_numerical_failure(monkeypatch):
    # a NaN sum passes `abs(total - 1) > tol`, so the check must fail NaN itself,
    # in the pure enumeration and in the Werner one built on it
    enumerate_branches = wteleport.protocol._enumerate

    def nan_branch(pairs, n):
        probability, post = enumerate_branches(pairs, n)
        probability[-1, -1] = float("nan")
        return probability, post

    monkeypatch.setattr(wteleport.protocol, "_enumerate", nan_branch)
    with pytest.raises(NumericalFailure, match="sum to nan"):
        wteleport.protocol._pure_results([0.6, 0.6], [2.0, 2.0])
    with pytest.raises(NumericalFailure, match="sum to nan"):
        wteleport.protocol._mixed_results([0.7], 2.0)
