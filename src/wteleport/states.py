"""Dense pure-state and density-matrix substrate for small labelled qubit registers.

A register is an ordered tuple of distinct integer labels (at most five
qubits).  Bit/index convention, fixed once for the whole package: the FIRST
label in a register is the MOST significant bit of the computational-basis
index.  For register (1, 2) the amplitude order is |00>, |01>, |10>, |11>.

All operations are pure functions; values are immutable and safe to share
across threads.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-12
PROBABILITY_SUM_TOL = 1e-12
# A branch is dead exactly when its probability (in the engine, its weight,
# formed at a power-of-two scale that makes every non-zero weight normal) is
# not a normal double: neither has a fixed scale, underflow does.
# ``analysis._bob_zero_form`` also splits its root below it.
ZERO_PROBABILITY_CUTOFF = float(np.finfo(float).tiny)
MAX_QUBITS = 5


class InvalidInput(ValueError):
    """An argument violates an operation's preconditions."""


class InvalidBasis(ValueError):
    """A measurement basis is not orthonormal or does not fit its register."""


class NumericalFailure(ArithmeticError):
    """Numerical error larger than double-precision roundoff can explain."""


def _as_array(values, kinds: str, dtype, message: str) -> np.ndarray:
    """The one guarded conversion of an argument: ``values`` as an array of
    ``dtype``, or ``InvalidInput`` (``message`` formatted with their repr) unless
    they form an array of a numpy dtype kind in ``kinds``, or an empty one."""
    try:
        arr = np.asarray(values)
        if arr.size and arr.dtype.kind not in kinds:
            raise TypeError(arr.dtype)
        return arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(message.format(f"{values!r:.60}")) from None


def _as_labels(labels: Iterable[int], *, allow_empty: bool = False) -> tuple[int, ...]:
    out = tuple(_as_array(labels, "iu", int, "labels must be integers, got {}").ravel().tolist())
    if len(set(out)) != len(out):
        raise InvalidInput(f"register labels must be distinct, got {out}")
    if not allow_empty and len(out) == 0:
        raise InvalidInput("register must hold at least one qubit")
    if len(out) > MAX_QUBITS:
        raise InvalidInput(f"register holds {len(out)} qubits, maximum is {MAX_QUBITS}")
    return out


class _Frozen:
    """Base of the package's immutable values: only ``__init__`` sets their
    fields (slots), through ``_set``; assigning or deleting one afterwards
    raises ``AttributeError``.  Equality is identity."""

    __slots__ = ("__weakref__",)

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class StateVector(_Frozen):
    """Complex amplitudes over a labelled register.

    Values crossing module boundaries are unit norm, except the all-zero
    "impossible branch" sentinel emitted for measurement outcomes whose
    probability is not a normal double (``ZERO_PROBABILITY_CUTOFF``).  The
    empty register (a bare scalar) arises only when a measurement takes every qubit.
    """

    __slots__ = ("labels", "amplitudes")

    def __init__(self, labels: Iterable[int], amplitudes: np.ndarray) -> None:
        self._set(labels=labels, amplitudes=amplitudes)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate and store the fields; ``bench/tracer.py`` wraps this to count constructions."""
        labels = _as_labels(self.labels, allow_empty=True)
        amps = _as_array(self.amplitudes, "biufc", complex, "amplitudes must be numbers, got {}")
        amps = amps.reshape(-1)
        if amps.shape != (2 ** len(labels),):
            raise InvalidInput(
                f"expected {2 ** len(labels)} amplitudes for register {labels}, got {amps.shape[0]}"
            )
        if not np.all(np.isfinite(amps)):
            raise InvalidInput("amplitudes must be finite")
        amps.setflags(write=False)
        self._set(labels=labels, amplitudes=amps)

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


def _labels(value, kind: type = StateVector, error: type = InvalidInput) -> tuple[int, ...]:
    """The register of an object argument, after the one check of its type."""
    if not isinstance(value, kind):
        raise error(f"expected a {kind.__name__}, got {type(value).__name__}")
    return value.labels


class DensityMatrix(_Frozen):
    """Hermitian positive-semidefinite matrix over a labelled register.

    Trace must be 1 (normalized state) or 0 (the all-zero sentinel used for
    impossible branches); unnormalized intermediates are plain arrays carried
    next to an explicit weight, never instances of this type.
    """

    __slots__ = ("labels", "entries")

    def __init__(self, labels: Iterable[int], entries: np.ndarray) -> None:
        self._set(labels=labels, entries=entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate and store the fields; ``bench/tracer.py`` wraps this to count constructions."""
        labels = _as_labels(self.labels)
        mat = _as_array(self.entries, "biufc", complex, "matrix entries must be numbers, got {}")
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise InvalidInput(f"expected {dim}x{dim} matrix for register {labels}, got {mat.shape}")
        if np.any(mat != 0):  # the all-zero sentinel needs no further check
            check_density_matrices(mat[np.newaxis])
        mat.setflags(write=False)
        self._set(labels=labels, entries=mat)

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


class MeasurementBasis(_Frozen):
    """Orthonormal basis over the sub-register it measures.

    ``vectors`` must all live on the same register and span it: the count
    equals the register dimension, and Gram deviations beyond
    ``ORTHONORMALITY_TOL`` are rejected.
    """

    __slots__ = ("name", "vectors")

    def __init__(self, name: str, vectors: Iterable[StateVector]) -> None:
        vectors = tuple(vectors) if isinstance(vectors, Iterable) else (vectors,)
        if not vectors:
            raise InvalidBasis("basis needs at least one vector")
        labels = _labels(vectors[0], error=InvalidBasis)
        if any(_labels(v, error=InvalidBasis) != labels for v in vectors):
            raise InvalidBasis("all basis vectors must share one register")
        dim = 2 ** len(labels)
        if len(vectors) != dim:
            raise InvalidBasis(f"basis over {labels} needs {dim} vectors, got {len(vectors)}")
        stacked = np.array([v.amplitudes for v in vectors])
        gram = stacked @ stacked.conj().T
        if np.abs(gram - np.eye(dim)).max() > ORTHONORMALITY_TOL:
            raise InvalidBasis("basis vectors must be orthonormal")
        self._set(name=name, vectors=vectors)

    @property
    def labels(self) -> tuple[int, ...]:
        return self.vectors[0].labels


def ket(bits: Sequence[int], labels: Iterable[int]) -> StateVector:
    """Computational-basis state |bits> on the given register."""
    labels = _as_labels(labels)
    bits = tuple(_as_array(bits, "biu", int, "bits must be 0 or 1, got {}").ravel().tolist())
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
    if set(_labels(a)) & set(_labels(b)):
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


def _check_probability_sums(totals, noun: str) -> None:
    """``NumericalFailure`` naming the first sum of ``noun`` probabilities in
    ``totals`` that is not 1 within ``PROBABILITY_SUM_TOL``; NaN fails too."""
    totals = np.atleast_1d(totals)
    off = ~(np.abs(totals - 1.0) <= PROBABILITY_SUM_TOL)
    if off.any():
        raise NumericalFailure(f"{noun} probabilities sum to {float(totals[off][0])}, expected 1")


def _check_unit_norms(amplitudes: np.ndarray) -> None:
    """``InvalidInput`` naming the first norm of a row of ``amplitudes`` that
    is not 1 within ``NORM_TOL``; NaN fails too."""
    norms = np.linalg.norm(amplitudes, axis=-1)
    off = ~(np.abs(norms - 1.0) <= NORM_TOL)
    if off.any():
        raise InvalidInput(f"state must be normalized, norm is {norms[off][0]}")


def measure(
    state: StateVector,
    targets: Iterable[int],
    basis: MeasurementBasis,
) -> list[tuple[int, float, StateVector]]:
    """Projective measurement of ``targets``, enumerating every outcome: one
    ``(outcome_index, probability, post_state)`` triple per basis vector, in
    basis order.  This is ``_measure_stack`` on a stack of one state."""
    targets = _as_labels(targets)
    remaining = tuple(q for q in _labels(state) if q not in targets)
    (probs,), (posts,) = _measure_stack(state.amplitudes[np.newaxis], state.labels, targets, basis)
    return [(i, float(p), StateVector(remaining, v)) for i, (p, v) in enumerate(zip(probs, posts))]


def _measure_stack(
    amplitudes: np.ndarray,
    labels: tuple[int, ...],
    targets: tuple[int, ...],
    basis: MeasurementBasis,
) -> tuple[np.ndarray, np.ndarray]:
    """Projective measurement of ``targets`` on a stack of states, one per row
    of ``amplitudes`` (k, 2^len(labels)).

    Returns the probabilities (k, outcomes), in basis order, and the
    post-state amplitudes (k, outcomes, 2^remaining), which drop the measured
    qubits (the remaining labels keep their register order) and are
    renormalized; only an outcome below ``ZERO_PROBABILITY_CUTOFF``, zero or
    underflowed, carries the zero sentinel.  Each state is projected as on its
    own: one ``tensordot`` per basis vector, one ``vdot`` per probability.  An
    unnormalized state raises ``InvalidInput``; outcome probabilities that do
    not sum to 1 within ``PROBABILITY_SUM_TOL``, or sum to NaN, raise
    ``NumericalFailure``.
    """
    _check_unit_norms(amplitudes)
    missing = [t for t in targets if t not in labels]
    if missing:
        raise InvalidInput(f"targets {missing} not in register {labels}")
    if _labels(basis, MeasurementBasis) != targets:
        raise InvalidBasis(f"basis is over {basis.labels}, measurement targets {targets}")

    m, k = len(targets), len(amplitudes)
    stack = amplitudes.reshape((k,) + (2,) * len(labels))
    axes = (tuple(range(m)), tuple(1 + labels.index(t) for t in targets))
    kets = [v.amplitudes.conj().reshape((2,) * m) for v in basis.vectors]
    projections = np.stack([np.tensordot(ket, stack, axes=axes) for ket in kets], axis=1)
    projections = projections.reshape(k, len(kets), 2 ** (len(labels) - m))
    probabilities = np.array([[np.vdot(x, x).real for x in s] for s in projections])
    probabilities = probabilities.reshape(k, len(kets))
    _check_probability_sums(sum(probabilities.T), "outcome")

    alive = probabilities >= ZERO_PROBABILITY_CUTOFF
    posts = np.zeros_like(projections)
    posts[alive] = projections[alive] / np.sqrt(probabilities[alive])[:, np.newaxis]
    return probabilities, posts


def density_from_pure(state: StateVector) -> DensityMatrix:
    """Outer product |s><s| of a normalized pure state."""
    labels = _labels(state)
    if not state.is_normalized():
        raise InvalidInput(f"state must be normalized, norm is {state.norm()}")
    return DensityMatrix(labels, np.outer(state.amplitudes, state.amplitudes.conj()))
