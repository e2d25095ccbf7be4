"""Concurrence oracle: spin flips, pure overlap, Wootters eigenvalue formula."""
import tracemalloc

import numpy as np
import pytest

from wteleport import (
    DensityMatrix,
    InvalidInput,
    SIGMA_YY,
    StateVector,
    concurrence_mixed,
    concurrence_pure,
    density_from_pure,
    ket,
    werner,
)
from wteleport.concurrence import concurrence_x_batch
from wteleport.states import NORM_TOL

RT2 = 1.0 / np.sqrt(2.0)


def random_two_qubit_state(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return StateVector((1, 2), amps / np.linalg.norm(amps))


def random_two_qubit_density(rng, rank=3):
    mat = np.zeros((4, 4), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        mat += w * np.outer(v, v.conj())
    return DensityMatrix((1, 2), mat)


class TestSpinFlipOperator:
    def test_exact_entries(self):
        expected = np.zeros((4, 4))
        expected[0b11, 0b00] = 1.0
        expected[0b01, 0b10] = -1.0
        expected[0b10, 0b01] = -1.0
        expected[0b00, 0b11] = 1.0
        assert np.array_equal(SIGMA_YY, expected)

    def test_self_inverse(self):
        assert np.array_equal(SIGMA_YY @ SIGMA_YY, np.eye(4))


class TestSpinFlipPure:
    """The pure-state flip SIGMA_YY conj(eta) that ``concurrence_pure`` overlaps with eta."""

    def test_basis_states(self):
        np.testing.assert_array_equal(
            SIGMA_YY @ ket([0, 0], [1, 2]).amplitudes.conj(), ket([1, 1], [1, 2]).amplitudes
        )
        np.testing.assert_array_equal(
            SIGMA_YY @ ket([0, 1], [1, 2]).amplitudes.conj(), -ket([1, 0], [1, 2]).amplitudes
        )

    def test_symmetric_bell_state(self):
        phi_plus = np.array([RT2, 0, 0, RT2])
        np.testing.assert_allclose(SIGMA_YY @ phi_plus.conj(), phi_plus)

    def test_involution_up_to_global_phase(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            amps = random_two_qubit_state(rng).amplitudes
            twice = SIGMA_YY @ (SIGMA_YY @ amps.conj()).conj()
            assert abs(np.vdot(amps, twice)) == pytest.approx(1.0, abs=1e-12)

    def test_preserves_norm(self):
        rng = np.random.default_rng(6)
        amps = random_two_qubit_state(rng).amplitudes
        assert np.linalg.norm(SIGMA_YY @ amps.conj()) == pytest.approx(1.0, abs=1e-12)


class TestConcurrencePure:
    def test_maximally_entangled(self):
        phi_plus = StateVector((1, 2), np.array([RT2, 0, 0, RT2]))
        assert concurrence_pure(phi_plus) == pytest.approx(1.0, abs=1e-15)

    def test_product_state(self):
        assert concurrence_pure(ket([0, 1], [1, 2])) == 0.0

    def test_one_third_weight(self):
        alpha = np.sqrt(1.0 / 3.0)
        state = StateVector((1, 2), np.array([alpha, 0, 0, np.sqrt(1 - alpha**2)]))
        # equals the closed form 2 alpha sqrt(1 - alpha^2)
        assert concurrence_pure(state) == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-14)

    def test_antidiagonal_pair(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = rng.normal(size=2)
            norm = np.hypot(a, b)
            state = StateVector((1, 2), np.array([0, a, b, 0]) / norm)
            assert concurrence_pure(state) == pytest.approx(
                2.0 * abs(a * b) / norm**2, abs=1e-12
            )

    def test_invariant_under_local_phase(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = random_two_qubit_state(rng)
            base = concurrence_pure(state)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            # phase on qubit 2's |1> component
            amps = state.amplitudes.copy()
            amps[0b01] *= phase
            amps[0b11] *= phase
            assert concurrence_pure(StateVector((1, 2), amps)) == pytest.approx(
                base, abs=1e-10
            )

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidInput):
            concurrence_pure(StateVector((1, 2), np.array([0.5, 0, 0, 0])))

    def test_wrong_register_size(self):
        with pytest.raises(InvalidInput):
            concurrence_pure(ket([0], [1]))


class TestSpinFlipMixed:
    """rho~ = SIGMA_YY conj(rho) SIGMA_YY, as the Wootters formula in
    ``concurrence_mixed`` forms it."""

    def test_basis_projector(self):
        rho = density_from_pure(ket([0, 0], [1, 2])).entries
        np.testing.assert_allclose(
            SIGMA_YY @ rho.conj() @ SIGMA_YY, density_from_pure(ket([1, 1], [1, 2])).entries
        )

    def test_maximally_mixed_fixed_point(self):
        rho = np.eye(4) / 4.0
        np.testing.assert_allclose(SIGMA_YY @ rho.conj() @ SIGMA_YY, rho)

    def test_werner_family_invariant(self):
        for p in np.linspace(0.0, 1.0, 11):
            rho = werner(p).entries
            np.testing.assert_allclose(SIGMA_YY @ rho.conj() @ SIGMA_YY, rho, atol=1e-14)

    def test_preserves_trace(self):
        rng = np.random.default_rng(17)
        rho = random_two_qubit_density(rng).entries
        assert np.trace(SIGMA_YY @ rho.conj() @ SIGMA_YY).real == pytest.approx(1.0, abs=1e-12)


class TestConcurrenceMixed:
    def test_pure_bell_state(self):
        assert concurrence_mixed(werner(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_separability_threshold(self):
        assert concurrence_mixed(werner(1.0 / 3.0)) == 0.0

    def test_werner_mid(self):
        assert concurrence_mixed(werner(0.6)) == pytest.approx(0.4, abs=1e-12)

    def test_werner_grid(self):
        for p in np.linspace(0.0, 1.0, 101):
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert concurrence_mixed(werner(p)) == pytest.approx(expected, abs=1e-10), p

    def test_matches_pure_formula_on_pure_states(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            state = random_two_qubit_state(rng)
            assert concurrence_mixed(density_from_pure(state)) == pytest.approx(
                concurrence_pure(state), abs=1e-9
            )

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            value = concurrence_mixed(random_two_qubit_density(rng))
            assert 0.0 <= value <= 1.0

    def test_wrong_register_size(self):
        with pytest.raises(InvalidInput):
            concurrence_mixed(DensityMatrix((1,), np.eye(2) / 2.0))

    def test_zero_sentinel_rejected(self):
        with pytest.raises(InvalidInput):
            concurrence_mixed(DensityMatrix((1, 2), np.zeros((4, 4))))


def random_x_entries(rng, k=200):
    """Entries (6, k) of k random X-states, one row per entry as the engine
    lays them out: rho11..rho44, then |rho14| and |rho23| at a random fraction
    of the largest each may take, so that separable and entangled ones mix."""
    entries = np.empty((6, k))
    entries[:4] = rng.dirichlet(np.ones(4), size=k).T
    entries[4] = np.sqrt(entries[0] * entries[3]) * rng.uniform(size=k)
    entries[5] = np.sqrt(entries[1] * entries[2]) * rng.uniform(size=k)
    return entries


class TestConcurrenceXBatch:
    def test_arguments_are_left_as_they_were(self):
        # the kernel computes in place on its own temporaries only
        rng = np.random.default_rng(31)
        entries = random_x_entries(rng)
        phases = np.exp(2j * np.pi * rng.uniform(size=(len(entries[0]), 2)))
        for diagonal, coherence in (
            (entries[:4].T, entries[4:].T),  # the engine's transposed views
            (entries[:4].T.astype(complex), entries[4:].T * phases),
        ):
            before = diagonal.copy(), coherence.copy()
            concurrence_x_batch(diagonal, coherence)
            assert diagonal.tobytes() == before[0].tobytes()
            assert coherence.tobytes() == before[1].tobytes()

    def test_kernel_peak_stays_below_five_pairs_of_columns(self):
        # the traced peak is 49.5 B per state: |c| (16 B), one 2x2 block's
        # smallest eigenvalues and half differences (8 B each), and the
        # verdicts and results; a view with a negative stride, which numpy
        # buffers in every ufunc that reads it, would add 16 B
        entries = random_x_entries(np.random.default_rng(43), k=4096)
        concurrence_x_batch(entries[:4].T, entries[4:].T)
        tracemalloc.start()
        try:
            concurrence_x_batch(entries[:4].T, entries[4:].T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 4096, f"{peak / 4096:.1f} B per state"

    def test_real_and_complex_diagonals_give_the_same_bits(self):
        entries = random_x_entries(np.random.default_rng(37))
        diagonal, coherence = entries[:4].T, entries[4:].T
        real = concurrence_x_batch(diagonal, coherence)
        assert real.any() and not real.all()  # entangled and separable states
        complex_ = concurrence_x_batch(diagonal.astype(complex), coherence)
        assert real.tobytes() == complex_.tobytes()

    def test_complex_diagonal_off_hermitian_is_rejected(self):
        entries = random_x_entries(np.random.default_rng(41), k=5)
        diagonal = entries[:4].T.astype(complex)
        diagonal[3, 1] += 2.0 * NORM_TOL * 1j
        with pytest.raises(InvalidInput, match="density matrix must be Hermitian"):
            concurrence_x_batch(diagonal, entries[4:].T)
        # |rho - rho'| within NORM_TOL passes, as in check_density_matrices
        diagonal[3, 1] = diagonal[3, 1].real + 0.25 * NORM_TOL * 1j
        assert len(concurrence_x_batch(diagonal, entries[4:].T)) == 5
