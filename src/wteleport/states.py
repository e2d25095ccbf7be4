"""Dense pure-state and density-matrix substrate for small labelled qubit registers.

A register is an ordered tuple of distinct integer labels (at most five
qubits).  Bit/index convention, fixed once for the whole package: the FIRST
label in a register is the MOST significant bit of the computational-basis
index.  For register (1, 2) the amplitude order is |00>, |01>, |10>, |11>.

All operations are pure functions; values are immutable and safe to share
across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-12
PROBABILITY_SUM_TOL = 1e-12
ZERO_PROBABILITY_CUTOFF = 1e-14
MAX_QUBITS = 5


class InvalidInput(ValueError):
    """An argument violates an operation's preconditions."""


class InvalidBasis(ValueError):
    """A measurement basis is not orthonormal or does not fit its register."""


class NumericalFailure(ArithmeticError):
    """Numerical error larger than double-precision roundoff can explain."""


def _as_labels(labels: Iterable[int], *, allow_empty: bool = False) -> tuple[int, ...]:
    out = tuple(int(q) for q in labels)
    if len(set(out)) != len(out):
        raise InvalidInput(f"register labels must be distinct, got {out}")
    if not allow_empty and len(out) == 0:
        raise InvalidInput("register must hold at least one qubit")
    if len(out) > MAX_QUBITS:
        raise InvalidInput(f"register holds {len(out)} qubits, maximum is {MAX_QUBITS}")
    return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a labelled register.

    Values crossing module boundaries are unit norm, except the all-zero
    "impossible branch" sentinel emitted for measurement outcomes whose
    probability falls below ``ZERO_PROBABILITY_CUTOFF``.  The empty register
    (a bare scalar) can only arise when a measurement consumes every qubit.
    """

    labels: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        labels = _as_labels(self.labels, allow_empty=True)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2 ** len(labels),):
            raise InvalidInput(
                f"expected {2 ** len(labels)} amplitudes for register {labels}, got {amps.shape[0]}"
            )
        if not np.all(np.isfinite(amps)):
            raise InvalidInput("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_zero(self) -> bool:
        """True for the impossible-branch sentinel."""
        return bool(np.all(self.amplitudes == 0))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit, in register order."""
        return self.amplitudes.reshape((2,) * self.num_qubits)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive-semidefinite matrix over a labelled register.

    Trace must be 1 (normalized state) or 0 (the all-zero sentinel used for
    impossible branches); unnormalized intermediates are plain arrays carried
    next to an explicit weight, never instances of this type.
    """

    labels: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        labels = _as_labels(self.labels)
        mat = np.asarray(self.entries, dtype=complex)
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise InvalidInput(f"expected {dim}x{dim} matrix for register {labels}, got {mat.shape}")
        if np.any(mat != 0):  # the all-zero sentinel needs no further check
            check_density_matrices(mat[np.newaxis])
        mat.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", mat)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def is_zero(self) -> bool:
        return bool(np.all(self.entries == 0))


def check_density_matrices(mats: np.ndarray) -> None:
    """Raise ``InvalidInput`` unless every (..., d, d) matrix is a density matrix.

    Each must be finite, Hermitian within ``NORM_TOL``, of trace 1 and
    positive semidefinite (smallest eigenvalue at least ``-NORM_TOL``).
    """
    if not np.all(np.isfinite(mats)):
        raise InvalidInput("matrix entries must be finite")
    if mats.size == 0:
        return
    if np.abs(mats - np.swapaxes(mats, -1, -2).conj()).max() > NORM_TOL:
        raise InvalidInput("density matrix must be Hermitian")
    tr = np.trace(mats, axis1=-2, axis2=-1)
    bad = (np.abs(tr.imag) > NORM_TOL) | (np.abs(tr.real - 1.0) > NORM_TOL)
    if bad.any():
        raise InvalidInput(f"density matrix trace must be 1, got {tr[bad].flat[0]}")
    if np.linalg.eigvalsh(mats).min() < -NORM_TOL:
        raise InvalidInput("density matrix must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal basis over the sub-register it measures.

    ``vectors`` must all live on the same register and span it: the count
    equals the register dimension, and Gram deviations beyond
    ``ORTHONORMALITY_TOL`` are rejected.
    """

    name: str
    vectors: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        vectors = tuple(self.vectors)
        if not vectors:
            raise InvalidBasis("basis needs at least one vector")
        labels = vectors[0].labels
        if any(v.labels != labels for v in vectors):
            raise InvalidBasis("all basis vectors must share one register")
        dim = 2 ** len(labels)
        if len(vectors) != dim:
            raise InvalidBasis(f"basis over {labels} needs {dim} vectors, got {len(vectors)}")
        stacked = np.array([v.amplitudes for v in vectors])
        gram = stacked @ stacked.conj().T
        if np.abs(gram - np.eye(dim)).max() > ORTHONORMALITY_TOL:
            raise InvalidBasis("basis vectors must be orthonormal")
        object.__setattr__(self, "vectors", vectors)

    @property
    def labels(self) -> tuple[int, ...]:
        return self.vectors[0].labels


def ket(bits: Sequence[int], labels: Iterable[int]) -> StateVector:
    """Computational-basis state |bits> on the given register."""
    labels = _as_labels(labels)
    bits = tuple(int(b) for b in bits)
    if len(bits) != len(labels):
        raise InvalidInput(f"{len(bits)} bits for a {len(labels)}-qubit register")
    if any(b not in (0, 1) for b in bits):
        raise InvalidInput(f"bits must be 0 or 1, got {bits}")
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(2 ** len(labels), dtype=complex)
    amps[index] = 1.0
    return StateVector(labels, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the register concatenates a's labels then b's."""
    if set(a.labels) & set(b.labels):
        raise InvalidInput(f"registers overlap: {a.labels} and {b.labels}")
    return StateVector(a.labels + b.labels, np.kron(a.amplitudes, b.amplitudes))


def computational_basis(labels: Iterable[int]) -> MeasurementBasis:
    """The 2^k computational-basis vectors on a register, in index order.

    The basis is immutable and built once per register.
    """
    return _computational_basis(_as_labels(labels))


@lru_cache(maxsize=128)
def _computational_basis(labels: tuple[int, ...]) -> MeasurementBasis:
    k = len(labels)
    vectors = tuple(
        ket([(i >> (k - 1 - pos)) & 1 for pos in range(k)], labels) for i in range(2**k)
    )
    return MeasurementBasis("computational", vectors)


def bell_basis(labels: Iterable[int]) -> MeasurementBasis:
    """The four Bell states on a qubit pair, ordered Phi+, Phi-, Psi+, Psi-.

    The basis is immutable and built once per register.
    """
    return _bell_basis(_as_labels(labels))


@lru_cache(maxsize=128)
def _bell_basis(labels: tuple[int, ...]) -> MeasurementBasis:
    if len(labels) != 2:
        raise InvalidInput(f"Bell basis needs exactly two qubits, got {labels}")
    s = 1.0 / np.sqrt(2.0)
    rows = [
        (s, 0.0, 0.0, s),
        (s, 0.0, 0.0, -s),
        (0.0, s, s, 0.0),
        (0.0, s, -s, 0.0),
    ]
    return MeasurementBasis("bell", tuple(StateVector(labels, np.array(r)) for r in rows))


def measure(
    state: StateVector,
    targets: Iterable[int],
    basis: MeasurementBasis,
) -> list[tuple[int, float, StateVector]]:
    """Projective measurement of ``targets``, enumerating every outcome.

    Returns one ``(outcome_index, probability, post_state)`` triple per basis
    vector, in basis order.  The post-state drops the measured qubits (the
    remaining labels keep their register order) and is renormalized; outcomes
    with probability below ``ZERO_PROBABILITY_CUTOFF`` carry the zero
    sentinel.  This enumerates all branches deterministically rather than
    sampling one.
    """
    if not state.is_normalized():
        raise InvalidInput(f"state must be normalized, norm is {state.norm()}")
    targets = _as_labels(targets)
    missing = [t for t in targets if t not in state.labels]
    if missing:
        raise InvalidInput(f"targets {missing} not in register {state.labels}")
    if basis.labels != targets:
        raise InvalidBasis(f"basis is over {basis.labels}, measurement targets {targets}")

    positions = tuple(state.labels.index(t) for t in targets)
    remaining = tuple(q for q in state.labels if q not in targets)
    st = state.tensor_view()
    m = len(targets)

    results: list[tuple[int, float, StateVector]] = []
    for index, bvec in enumerate(basis.vectors):
        bt = bvec.amplitudes.conj().reshape((2,) * m)
        projected = np.tensordot(bt, st, axes=(tuple(range(m)), positions))
        prob = float(np.vdot(projected, projected).real)
        if prob < ZERO_PROBABILITY_CUTOFF:
            post = StateVector(remaining, np.zeros(2 ** len(remaining), dtype=complex))
        else:
            post = StateVector(remaining, projected.reshape(-1) / np.sqrt(prob))
        results.append((index, prob, post))

    total = sum(p for _, p, _ in results)
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise NumericalFailure(f"outcome probabilities sum to {total}, expected 1")
    return results


def density_from_pure(state: StateVector) -> DensityMatrix:
    """Outer product |s><s| of a normalized pure state."""
    if not state.is_normalized():
        raise InvalidInput(f"state must be normalized, norm is {state.norm()}")
    return DensityMatrix(state.labels, np.outer(state.amplitudes, state.amplitudes.conj()))
