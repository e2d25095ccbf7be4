"""Register substrate: construction, tensor composition, measurement."""
import numpy as np
import pytest

from wteleport import (
    DensityMatrix,
    InvalidBasis,
    InvalidInput,
    MeasurementBasis,
    NumericalFailure,
    StateVector,
    bell_basis,
    computational_basis,
    density_from_pure,
    input_pair,
    ket,
    measure,
    tensor,
    w_state,
)
from wteleport.concurrence import concurrence_pure_batch
from wteleport.states import _check_unit_norms, _measure_stack

RT2 = 1.0 / np.sqrt(2.0)


def random_state(rng, labels):
    amps = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return StateVector(labels, amps / np.linalg.norm(amps))


class TestKet:
    def test_single_qubit(self):
        np.testing.assert_allclose(ket([0], [1]).amplitudes, [1, 0])
        np.testing.assert_allclose(ket([1], [1]).amplitudes, [0, 1])

    def test_first_label_is_most_significant(self):
        # |10> on register (1, 2) sits at index 2, not 1
        np.testing.assert_allclose(ket([1, 0], [1, 2]).amplitudes, [0, 0, 1, 0])

    def test_three_qubits(self):
        state = ket([0, 0, 1], [3, 4, 5])
        assert state.amplitudes[0b001] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            ket([0, 1], [1])

    def test_bad_bit(self):
        with pytest.raises(InvalidInput):
            ket([2], [1])

    def test_duplicate_labels(self):
        with pytest.raises(InvalidInput):
            ket([0, 0], [1, 1])

    def test_register_too_large(self):
        with pytest.raises(InvalidInput):
            ket([0] * 6, [1, 2, 3, 4, 5, 6])

    @pytest.mark.parametrize(
        "bits, labels",
        [("01", (1, 2)), ([0.0, 1.0], (1, 2)), ([0, 1], ("a", "b")), ([0], [1.5]), ([0], None),
         (None, (1,)), ([0], [10**400])],
    )
    def test_non_integers_are_invalid_input(self, bits, labels):
        with pytest.raises(InvalidInput, match="must be"):
            ket(bits, labels)


@pytest.mark.parametrize(
    "make",
    [
        lambda: StateVector((1,), "ab"),
        lambda: StateVector((1,), [None, 1.0]),
        lambda: StateVector(("a",), [1.0, 0.0]),
        lambda: DensityMatrix((1,), [["a", 0], [0, 1]]),
        lambda: DensityMatrix(None, np.eye(2) / 2),
        lambda: DensityMatrix((1,), [[1.0], [0.0, 0.0]]),  # ragged
    ],
)
def test_constructor_arguments_that_are_not_numbers_are_invalid_input(make):
    with pytest.raises(InvalidInput, match="must be"):
        make()


class TestStateVector:
    def test_wrong_amplitude_count(self):
        with pytest.raises(InvalidInput):
            StateVector((1, 2), np.zeros(3))

    def test_non_finite(self):
        with pytest.raises(InvalidInput):
            StateVector((1,), np.array([np.nan, 0.0]))

    def test_amplitudes_read_only(self):
        state = ket([0], [1])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0


class TestTensor:
    def test_basis_composition(self):
        joint = tensor(ket([0], [1]), ket([0], [2]))
        assert joint.labels == (1, 2)
        np.testing.assert_allclose(joint.amplitudes, ket([0, 0], [1, 2]).amplitudes)

    def test_distributes_over_superposition(self):
        bell = StateVector((1, 2), np.array([RT2, 0, 0, RT2]))
        joint = tensor(bell, ket([0], [3]))
        expected = np.zeros(8)
        expected[0b000] = RT2
        expected[0b110] = RT2
        np.testing.assert_allclose(joint.amplitudes, expected)

    def test_five_qubit_joint_amplitude(self):
        # alpha = beta = 1/sqrt(2), n = 1: the |00100> amplitude is alpha*f(1)
        joint = tensor(input_pair(RT2), w_state(1.0))
        assert joint.num_qubits == 5
        np.testing.assert_allclose(joint.amplitudes[0b00100], RT2 * 0.5, atol=1e-15)

    def test_norm_multiplies(self):
        rng = np.random.default_rng(7)
        a = random_state(rng, (1, 2))
        b = random_state(rng, (3,))
        assert tensor(a, b).norm() == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_labels_rejected(self):
        with pytest.raises(InvalidInput):
            tensor(ket([0], [1]), ket([0], [1]))

    def test_associative_up_to_nothing(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_state(rng, (1,))
            b = random_state(rng, (2, 3))
            c = random_state(rng, (4,))
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            assert left.labels == right.labels
            np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-12)


class TestMeasure:
    def test_bell_state_in_bell_basis(self):
        phi_plus = StateVector((2, 3), np.array([RT2, 0, 0, RT2]))
        results = measure(phi_plus, (2, 3), bell_basis((2, 3)))
        probs = [p for _, p, _ in results]
        np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-14)
        # all qubits consumed: the post-state register is empty
        assert results[0][2].labels == ()

    def test_equal_superposition(self):
        plus = StateVector((5,), np.array([RT2, RT2]))
        results = measure(plus, (5,), computational_basis((5,)))
        assert [p for _, p, _ in results] == pytest.approx([0.5, 0.5])

    def test_joint_state_bell_probability_oracle(self):
        # independent oracle: explicit projector arithmetic on the raw array
        joint = tensor(input_pair(RT2), w_state(1.0))
        phi_plus = np.array([RT2, 0, 0, RT2])
        projector = np.kron(np.kron(np.eye(2), np.outer(phi_plus, phi_plus)), np.eye(4))
        expected = float(np.real(joint.amplitudes.conj() @ projector @ joint.amplitudes))
        assert expected == pytest.approx(0.25, abs=1e-14)

        results = measure(joint, (2, 3), bell_basis((2, 3)))
        assert results[0][1] == pytest.approx(expected, abs=1e-12)

    def test_post_state_drops_targets_in_register_order(self):
        joint = tensor(input_pair(0.6), w_state(2.0))
        _, prob, post = measure(joint, (2, 3), bell_basis((2, 3)))[0]
        assert prob > 0
        assert post.labels == (1, 4, 5)
        assert post.is_normalized()

    def test_probabilities_sum_to_one_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            state = random_state(rng, (1, 2, 3))
            # random orthonormal single-qubit basis via QR
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            basis = MeasurementBasis(
                "random", (StateVector((2,), q[:, 0]), StateVector((2,), q[:, 1]))
            )
            results = measure(state, (2,), basis)
            probs = [p for _, p, _ in results]
            assert all(0.0 <= p <= 1.0 + 1e-12 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            for _, p, post in results:
                if p > 1e-14:
                    assert post.is_normalized()

    def test_index_convention_self_consistent(self):
        for bits in ([0, 1, 1], [1, 0, 0], [1, 1, 1]):
            state = ket(bits, [1, 2, 3])
            for position, label in enumerate((1, 2, 3)):
                results = measure(state, (label,), computational_basis((label,)))
                assert results[bits[position]][1] == pytest.approx(1.0, abs=1e-14)

    def test_zero_probability_sentinel(self):
        state = ket([0, 0], [1, 2])
        results = measure(state, (2,), computational_basis((2,)))
        _, p_one, post_one = results[1]
        assert p_one < 1e-14
        assert post_one.is_zero()
        assert post_one.labels == (1,)

    def test_tiny_outcome_is_live(self):
        # an outcome is dead only below the smallest normal double, so one of
        # probability 1e-20 keeps its renormalized post-state
        amps = np.array([np.sqrt(1.0 - 1e-20), 1e-10, 0.0, 0.0])
        results = measure(StateVector((1, 2), amps), (2,), computational_basis((2,)))
        _, p_one, post_one = results[1]
        assert p_one == pytest.approx(1e-20, rel=1e-12, abs=0)
        assert not post_one.is_zero()
        np.testing.assert_allclose(post_one.amplitudes, [1.0, 0.0], atol=1e-15)
        assert post_one.labels == (1,)

    @pytest.mark.parametrize("targets", [(2, 3), (5,), (1, 4)])
    def test_stack_equals_one_state_calls(self, targets):
        # the kernel projects every state of a stack as it would project it
        # alone, to the bit, whatever the stack size
        rng = np.random.default_rng(41)
        labels = (1, 2, 3, 4, 5)
        states = [random_state(rng, labels) for _ in range(13)]
        basis = bell_basis(targets) if len(targets) == 2 else computational_basis(targets)
        probabilities, posts = _measure_stack(
            np.array([s.amplitudes for s in states]), labels, targets, basis
        )
        for state, probability, post in zip(states, probabilities, posts):
            results = measure(state, targets, basis)
            assert np.array([p for _, p, _ in results]).tobytes() == probability.tobytes()
            assert np.array([q.amplitudes for _, _, q in results]).tobytes() == post.tobytes()

    def test_target_not_in_register(self):
        with pytest.raises(InvalidInput):
            measure(ket([0], [1]), (2,), computational_basis((2,)))

    def test_basis_register_mismatch(self):
        with pytest.raises(InvalidBasis):
            measure(ket([0, 0], [1, 2]), (2,), computational_basis((3,)))

    def test_non_orthonormal_basis_rejected(self):
        v = StateVector((1,), np.array([1.0, 0.0]))
        with pytest.raises(InvalidBasis):
            MeasurementBasis("broken", (v, v))

    def test_unnormalized_state_rejected(self):
        state = StateVector((1,), np.array([0.5, 0.0]))
        with pytest.raises(InvalidInput):
            measure(state, (1,), computational_basis((1,)))

    @pytest.mark.parametrize("norm", [0.5, np.nan])
    def test_both_kernels_reject_a_norm_off_one(self, norm):
        # one check serves the projection kernel and the pure concurrence
        # kernel; a NaN norm must fail it, not pass `abs(norm - 1) > tol`
        stack = np.array([[1.0, 0.0, 0.0, 0.0], [norm, 0.0, 0.0, 0.0]], dtype=complex)
        message = f"state must be normalized, norm is {norm}"
        with pytest.raises(InvalidInput, match=message):
            _measure_stack(stack, (1, 2), (1,), computational_basis((1,)))
        with pytest.raises(InvalidInput, match=message):
            concurrence_pure_batch(stack)
        _check_unit_norms(stack[:1])  # a unit row passes

    def test_nan_probability_is_a_numerical_failure(self):
        # a NaN sum passes `abs(total - 1) > tol`, so the check must fail NaN
        # itself, before any post-state is built; the NaN comes from a basis
        # vector set past its constructor's checks
        broken = object.__new__(StateVector)
        object.__setattr__(broken, "labels", (1,))
        object.__setattr__(broken, "amplitudes", np.array([np.nan, 0.0]))
        basis = object.__new__(MeasurementBasis)
        object.__setattr__(basis, "name", "broken")
        object.__setattr__(basis, "vectors", (broken, ket([1], [1])))
        with pytest.raises(NumericalFailure, match="sum to nan"):
            measure(ket([0], [1]), (1,), basis)


class TestDensityFromPure:
    def test_ground_state(self):
        rho = density_from_pure(ket([0], [1]))
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]))

    def test_psi_plus_central_block(self):
        psi = StateVector((1, 2), np.array([0, RT2, RT2, 0]))
        rho = density_from_pure(psi)
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 0.5
        np.testing.assert_allclose(rho.entries, expected, atol=1e-15)

    def test_protocol_output_diagonal(self):
        # teleported pair at n=2, alpha^2=1/3: diagonal (0, n a^2, b^2, 0)/(n a^2 + b^2)
        alpha_sq = 1.0 / 3.0
        norm_sq = 2.0 * alpha_sq + (1.0 - alpha_sq)
        amps = np.array([0.0, np.sqrt(2.0 * alpha_sq), np.sqrt(1.0 - alpha_sq), 0.0])
        state = StateVector((1, 4), amps / np.sqrt(norm_sq))
        rho = density_from_pure(state)
        np.testing.assert_allclose(np.diag(rho.entries).real, [0.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidInput):
            density_from_pure(StateVector((1,), np.array([0.5, 0.0])))


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = 0.5
        with pytest.raises(InvalidInput):
            DensityMatrix((1,), mat)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidInput):
            DensityMatrix((1,), np.diag([1.5, -0.5]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidInput):
            DensityMatrix((1,), np.diag([0.7, 0.7]))

    def test_zero_sentinel_allowed(self):
        assert DensityMatrix((1, 4), np.zeros((4, 4))).is_zero()
