"""Two-qubit concurrence, the entanglement oracle for the whole package.

Pure states use the spin-flip overlap C = |<eta|eta~>| with
eta~ = (sigma_y x sigma_y) conj(eta).  Mixed states use the Wootters
formula C = max(0, l1 - l2 - l3 - l4), the l_i being the decreasingly
sorted square roots of the eigenvalues of rho * rho~.  X-states, whose
entries off the diagonal and anti-diagonal vanish, have a closed form; the
sweep engine uses it for both input families, and the spin-flip and
Wootters formulas stay with the scalar oracle.
"""
from __future__ import annotations

import numpy as np

from .states import (
    NORM_TOL, DensityMatrix, InvalidInput, NumericalFailure, StateVector, _check_unit_norms, _labels
)

# |11><00| - |01><10| - |10><01| + |00><11| in the computational basis.
SIGMA_YY = np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
)
SIGMA_YY.setflags(write=False)

# Eigenvalues of rho * rho~ in [-EIGENVALUE_CLIP, 0) count as roundoff and
# clip to zero; anything below -EIGENVALUE_HARD_FLOOR is a logic bug.
EIGENVALUE_CLIP = 1e-10
EIGENVALUE_HARD_FLOOR = 1e-8
IMAG_TOL = 1e-9
# Mixed states this close to pure are routed through the pure-state formula:
# the sqrt of a near-zero eigenvalue amplifies roundoff to ~1e-8, while the
# dominant-eigenvector overlap stays exact.
PURITY_SHORTCUT = 1e-10


def _require_two_qubits(labels: tuple[int, ...]) -> None:
    if len(labels) != 2:
        raise InvalidInput(f"concurrence is defined for two qubits, register is {labels}")


def concurrence_pure(state: StateVector) -> float:
    """Spin-flip overlap |<eta|eta~>|, in [0, 1]."""
    _require_two_qubits(_labels(state))
    return float(concurrence_pure_batch(state.amplitudes[np.newaxis])[0])


def concurrence_pure_batch(amplitudes: np.ndarray) -> np.ndarray:
    """Spin-flip overlaps of a stack of normalized two-qubit states, shape (k, 4)."""
    _check_unit_norms(amplitudes)
    flipped = amplitudes.conj() @ SIGMA_YY.T
    value = np.abs(np.sum(amplitudes.conj() * flipped, axis=-1))
    return _clip_to_unit(value)


def _clip_to_unit(value: np.ndarray) -> np.ndarray:
    if value.size and value.max() > 1.0 + EIGENVALUE_CLIP:
        raise NumericalFailure(f"concurrence {value.max()} exceeds 1")
    return np.clip(value, 0.0, 1.0)


def concurrence_mixed(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix; see ``concurrence_mixed_batch``."""
    _require_two_qubits(_labels(rho, DensityMatrix))
    if rho.is_zero():
        raise InvalidInput("concurrence of the zero sentinel is undefined")
    return float(concurrence_mixed_batch(rho.entries[np.newaxis])[0])


def concurrence_mixed_batch(matrices: np.ndarray) -> np.ndarray:
    """Wootters concurrences of a stack of two-qubit density matrices, shape (k, 4, 4).

    The eigenvalues of rho * rho~ come from a general (non-Hermitian)
    eigenvalue routine; imaginary parts above ``IMAG_TOL`` or real parts
    below ``-EIGENVALUE_HARD_FLOOR`` raise ``NumericalFailure``.  Inputs
    within ``PURITY_SHORTCUT`` of a pure state are evaluated through the
    pure-state overlap on the dominant eigenvector instead.
    """
    out = np.empty(len(matrices))
    purity = np.einsum("kij,kji->k", matrices, matrices).real
    pure = purity >= 1.0 - PURITY_SHORTCUT
    if pure.any():
        w, v = np.linalg.eigh(matrices[pure])
        dominant = np.take_along_axis(v, np.argmax(w, axis=-1)[:, None, None], axis=-1)
        out[pure] = concurrence_pure_batch(dominant[..., 0])

    m = matrices[~pure]
    if len(m):
        product = m @ (SIGMA_YY @ m.conj() @ SIGMA_YY)
        eigenvalues = np.linalg.eigvals(product)
        worst_imag = np.abs(eigenvalues.imag).max()
        if worst_imag > IMAG_TOL:
            raise NumericalFailure(
                f"eigenvalues of rho*rho~ should be real, worst imaginary part {worst_imag:.3e}"
            )
        real = eigenvalues.real
        if real.min() < -EIGENVALUE_HARD_FLOOR:
            raise NumericalFailure(
                f"eigenvalue of rho*rho~ is {real.min():.3e}, below roundoff range"
            )
        lam = np.sort(np.sqrt(np.clip(real, 0.0, None)), axis=-1)[:, ::-1]
        out[~pure] = _clip_to_unit(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return out


def concurrence_x_batch(diagonal: np.ndarray, coherence: np.ndarray) -> np.ndarray:
    """Concurrences of a stack of two-qubit X-states, given by their six entries:
    ``diagonal`` (k, 4) holds rho11..rho44 and ``coherence`` (k, 2) holds rho14
    and rho23; rho41 and rho32 are their conjugates, and every other entry is 0.

    C = 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44))
    (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007)).  Each state is
    checked as ``check_density_matrices`` checks its matrix, with the same
    ``InvalidInput`` messages, its eigenvalues being those of the 2x2 blocks
    on {1, 4} and {2, 3}.  The caller vouches for the X shape.
    """
    if not (np.isfinite(diagonal).all() and np.isfinite(coherence).all()):
        raise InvalidInput("matrix entries must be finite")
    # a finite real diagonal equals its conjugate, so only a complex one can fail
    if diagonal.dtype.kind == "c" and (np.abs(diagonal - diagonal.conj()) > NORM_TOL).any():
        raise InvalidInput("density matrix must be Hermitian")
    tr = diagonal.sum(axis=-1)
    bad = np.abs(tr.real - 1.0) > NORM_TOL
    if tr.dtype.kind == "c":
        bad |= np.abs(tr.imag) > NORM_TOL
    if bad.any():
        raise InvalidInput(f"density matrix trace must be 1, got {tr[bad].flat[0]}")
    # the {1, 4} and {2, 3} blocks [[a, c], [c*, b]], one at a time on 1-D
    # columns (a view with a negative stride is buffered by every ufunc that
    # reads it): the smallest eigenvalue (a + b)/2 - hypot((a - b)/2, |c|) is
    # formed in place, and its buffer then takes the products a b
    r11, r22, r33, r44 = (diagonal[:, j].real for j in range(4))
    magnitude = np.abs(coherence)
    for a, b, c in ((r11, r44, magnitude[:, 0]), (r22, r33, magnitude[:, 1])):
        least = a + b
        least /= 2.0
        half = a - b
        half /= 2.0
        least -= np.hypot(half, c, out=half)
        if (least < -NORM_TOL).any():
            raise InvalidInput("density matrix must be positive semidefinite")
        del half
    # |rho14| pairs with sqrt(rho22 rho33), |rho23| with sqrt(rho11 rho44)
    for c, a, b in ((magnitude[:, 0], r22, r33), (magnitude[:, 1], r11, r44)):
        geometric = np.multiply(a, b, out=least)
        np.sqrt(np.clip(geometric, 0.0, None, out=geometric), out=geometric)
        c -= geometric
    return _clip_to_unit(2.0 * magnitude.max(axis=-1, initial=0.0))
