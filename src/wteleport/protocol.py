"""Teleporting half of an entangled pair through the |W_n> channel family.

Setup: Alice holds the input pair on qubits (1, 2) and channel qubit 3; Bob
holds channel qubits 4 and 5.  Alice measures (2, 3) in the Bell basis, Bob
then measures qubit 5 in the computational basis, and the surviving pair
lives on (1, 4).  Every one of the 4 x 2 = 8 outcome branches is enumerated
exactly, with its probability, renormalized post-state and concurrence;
nothing is sampled.

There is one scalar execution and one batched engine.  The scalar runs
enumerate the full five-qubit state vector; a Werner input is the mixture
of the four Bell states it is made of, each enumerated on its own.  The
batched engines ``pure_branches`` and ``werner_branches`` apply all eight
per-branch linear maps to whole parameter grids at once; sweeps use them,
and the scalar runs stay as the independent oracle that cross-checks them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt
from typing import Union

import numpy as np

from .concurrence import (
    concurrence_mixed,
    concurrence_pure,
    concurrence_pure_batch,
    concurrence_x_batch,
)
from .states import (
    DensityMatrix,
    InvalidInput,
    NumericalFailure,
    PROBABILITY_SUM_TOL,
    StateVector,
    ZERO_PROBABILITY_CUTOFF,
    bell_basis,
    computational_basis,
    density_from_pure,
    measure,
    tensor,
)

INPUT_LABELS = (1, 2)
CHANNEL_LABELS = (3, 4, 5)
OUTPUT_LABELS = (1, 4)


class BellOutcome(Enum):
    """Alice's Bell-measurement result on qubits (2, 3)."""

    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"
    PSI_PLUS = "PsiPlus"
    PSI_MINUS = "PsiMinus"


class BobOutcome(Enum):
    """Bob's computational-basis result on qubit 5."""

    ZERO = "Zero"
    ONE = "One"


BRANCH_ORDER: tuple[tuple[BellOutcome, BobOutcome], ...] = tuple(
    (bell, bob) for bell in BellOutcome for bob in BobOutcome
)

PostState = Union[StateVector, DensityMatrix]


@dataclass(frozen=True, eq=False)
class Branch:
    """One measurement branch: outcome pair, probability, post-state, concurrence.

    ``weighted_matrix`` is only set for mixed runs; it is the unnormalized
    M rho M' object whose trace is the branch probability.
    """

    bell: BellOutcome
    bob: BobOutcome
    probability: float
    post_state: PostState
    concurrence: float
    weighted_matrix: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """All eight branches for one (input, channel) parameter point."""

    channel_n: float
    input_alpha: float | None
    input_p: float | None
    branches: tuple[Branch, ...]
    total_probability: float

    def branch(self, bell: BellOutcome, bob: BobOutcome) -> Branch:
        for b in self.branches:
            if b.bell is bell and b.bob is bob:
                return b
        raise KeyError((bell, bob))


# Grid points per block of the batched engines and of a CLI sweep, which
# computes and writes one block at a time; bounds their working memory, so a
# sweep's peak memory does not grow with its grid.  Blocks of 512 to 4096
# points ran equally fast, and peak memory grows with the block size.
BLOCK_POINTS = 1024


def _validated(values, ok, message: str):
    """``values`` as floats (a float for a scalar), or ``InvalidInput`` naming the first bad one."""
    arr = np.asarray(values, dtype=float)
    bad = ~ok(arr)
    if bad.any():
        raise InvalidInput(message.format(float(arr[bad].flat[0])))
    return arr if arr.ndim else float(arr)


def _unit_interval(arr: np.ndarray) -> np.ndarray:
    return (arr >= 0.0) & (arr <= 1.0)


def _check_alpha(alpha):
    return _validated(alpha, _unit_interval, "alpha must lie in [0, 1], got {}")


def _check_alpha_sq(alpha_sq):
    return _validated(alpha_sq, _unit_interval, "alpha^2 must lie in [0, 1], got {}")


def _check_p(p):
    return _validated(p, _unit_interval, "mixing weight p must lie in [0, 1], got {}")


def _check_n(n):
    return _validated(
        n,
        lambda a: np.isfinite(a) & (a > 0.0),
        "channel parameter n must be positive and finite, got {}",
    )


def input_pair(alpha: float) -> StateVector:
    """The input pair alpha|00> + sqrt(1-alpha^2)|11> on qubits (1, 2)."""
    alpha = _check_alpha(alpha)
    beta = sqrt(1.0 - alpha * alpha)
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = alpha
    amps[0b11] = beta
    return StateVector(INPUT_LABELS, amps)


def w_normalization(n):
    """Normalization constant 1/sqrt(2 + 2n) of the |W_n> family, elementwise."""
    return 1.0 / np.sqrt(2.0 + 2.0 * n)


def w_state(n: float) -> StateVector:
    """|W_n> = f(n) (|100> + sqrt(n)|010> + sqrt(n+1)|001>) on qubits (3, 4, 5)."""
    n = _check_n(n)
    f = w_normalization(n)
    amps = np.zeros(8, dtype=complex)
    amps[0b100] = f
    amps[0b010] = f * sqrt(n)
    amps[0b001] = f * sqrt(n + 1.0)
    state = StateVector(CHANNEL_LABELS, amps)
    if not state.is_normalized():
        # 2 + 2n overflows to inf, which zeroes every amplitude
        raise NumericalFailure(f"|W_n> does not normalize at n={n}, norm is {state.norm()}")
    return state


def werner(p: float) -> DensityMatrix:
    """Werner family p |Phi+><Phi+| + (1-p)/4 I on qubits (1, 2)."""
    return DensityMatrix(INPUT_LABELS, _werner_entries(np.asarray(_check_p(p))))


def _werner_entries(p: np.ndarray) -> np.ndarray:
    """Werner matrices, shape p.shape + (4, 4)."""
    phi_plus = np.zeros(4)
    phi_plus[0b00] = phi_plus[0b11] = 1.0 / sqrt(2.0)
    p = p[..., np.newaxis, np.newaxis]
    return p * np.outer(phi_plus, phi_plus) + (1.0 - p) / 4.0 * np.eye(4)


def compose_joint(pair: StateVector, channel: StateVector) -> StateVector:
    """Five-qubit joint state of the input pair and the channel."""
    if pair.labels != INPUT_LABELS:
        raise InvalidInput(f"input pair must live on {INPUT_LABELS}, got {pair.labels}")
    if channel.labels != CHANNEL_LABELS:
        raise InvalidInput(f"channel must live on {CHANNEL_LABELS}, got {channel.labels}")
    return tensor(pair, channel)


def _enumerate(pair: StateVector, n: float) -> list[tuple[float, StateVector | None]]:
    """Probability and post-state of every branch, in ``BRANCH_ORDER``, of one
    pure input pair, by full five-qubit enumeration.

    Alice's four Bell outcomes and Bob's two computational outcomes yield
    exactly eight branches; joint probabilities multiply along the chain.  A
    Bell outcome below the zero-probability cutoff gives both of its
    branches probability 0 and no post-state.
    """
    joint = compose_joint(pair, w_state(n))
    branches: list[tuple[float, StateVector | None]] = []
    for _, p_bell, mid_state in measure(joint, (2, 3), bell_basis((2, 3))):
        if p_bell < ZERO_PROBABILITY_CUTOFF:
            branches += [(0.0, None)] * len(BobOutcome)
            continue
        bob_results = measure(mid_state, (5,), computational_basis((5,)))
        branches += [(p_bell * p_bob, post) for _, p_bob, post in bob_results]
    return branches


def _result(
    n, alpha, p, probabilities, post_state, concurrence, sentinel, weighted=None
) -> ProtocolResult:
    """The eight branches of one run, in ``BRANCH_ORDER``.

    A branch below the zero-probability cutoff carries ``sentinel`` and
    concurrence 0; a live branch k carries ``post_state(k)`` and its
    ``concurrence``.  The probabilities must sum to 1.
    """
    branches = []
    for k, (bell, bob) in enumerate(BRANCH_ORDER):
        matrix = None if weighted is None else weighted[k]
        if probabilities[k] < ZERO_PROBABILITY_CUTOFF:
            branches.append(Branch(bell, bob, probabilities[k], sentinel, 0.0, matrix))
        else:
            post = post_state(k)
            branches.append(Branch(bell, bob, probabilities[k], post, concurrence(post), matrix))
    total = sum(probabilities)
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise NumericalFailure(f"branch probabilities sum to {total}, expected 1")
    return ProtocolResult(n, alpha, p, tuple(branches), total)


def run_protocol_pure(alpha: float, n: float) -> ProtocolResult:
    """Run the protocol on the pure input pair by full five-qubit enumeration.

    Branches below the zero-probability cutoff carry the zero sentinel and
    concurrence 0.
    """
    alpha = _check_alpha(alpha)
    n = _check_n(n)
    probabilities, posts = zip(*_enumerate(input_pair(alpha), n))
    sentinel = StateVector(OUTPUT_LABELS, np.zeros(4, dtype=complex))
    return _result(n, alpha, None, probabilities, posts.__getitem__, concurrence_pure, sentinel)


def branch_map(n: float, bell: BellOutcome, bob: BobOutcome) -> np.ndarray:
    """Post-selected linear map of one branch, as a 4x4 matrix on (1, 2) -> (1, 4).

    Applying it to any input pair and renormalizing reproduces the branch
    post-state of the full enumeration, and the squared norm of the image is
    the branch probability.  Summing M'M over all eight branches gives the
    identity (the eight maps form a complete measurement).
    """
    maps = branch_maps(np.array([_check_n(n)]))
    return maps[0, BRANCH_ORDER.index((bell, bob))]


def branch_maps(n: np.ndarray) -> np.ndarray:
    """All eight branch maps for every n, shape (len(n), 8, 4, 4), in ``BRANCH_ORDER``.

    Every map factors as identity on qubit 1 times a 2x2 action taking
    qubit 2 to qubit 4, scaled by f(n)/sqrt(2).
    """
    n = _check_n(n)
    g = w_normalization(n) / sqrt(2.0)
    rn = np.sqrt(n)
    rn1 = np.sqrt(n + 1.0)
    one = np.ones_like(n)
    zero = np.zeros_like(n)
    actions = np.array(
        [
            [[zero, one], [rn, zero]],  # Phi+, Bob 0
            [[rn1, zero], [zero, zero]],  # Phi+, Bob 1
            [[zero, -one], [rn, zero]],  # Phi-, Bob 0
            [[rn1, zero], [zero, zero]],  # Phi-, Bob 1
            [[one, zero], [zero, rn]],  # Psi+, Bob 0
            [[zero, rn1], [zero, zero]],  # Psi+, Bob 1
            [[one, zero], [zero, -rn]],  # Psi-, Bob 0
            [[zero, -rn1], [zero, zero]],  # Psi-, Bob 1
        ]
    )
    actions = np.moveaxis(actions, -1, 0) * g[:, None, None, None]
    maps = np.zeros((len(n), len(BRANCH_ORDER), 4, 4))
    maps[..., :2, :2] = actions
    maps[..., 2:, 2:] = actions
    return maps


def _in_blocks(branch_block, value: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run ``branch_block`` over blocks of at most ``BLOCK_POINTS`` points and
    check that every point's branch probabilities sum to 1."""
    value, n = np.atleast_1d(value), np.atleast_1d(n)
    probability = np.empty((len(n), len(BRANCH_ORDER)))
    concurrence = np.empty_like(probability)
    for start in range(0, len(n), BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        probability[block], concurrence[block] = branch_block(value[block], n[block])
    total = probability.sum(axis=-1)
    off = ~(np.abs(total - 1.0) <= PROBABILITY_SUM_TOL)  # NaN fails too
    if off.any():
        raise NumericalFailure(f"branch probabilities sum to {total[off][0]}, expected 1")
    return probability, concurrence


# Overflow at extreme n (2 + 2n beyond the float range) zeroes the maps; the
# probability-sum check then raises NumericalFailure instead of a warning.
@np.errstate(all="ignore")
def pure_branches(alpha: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch probabilities and concurrences for pure inputs, batched over points.

    ``alpha`` and ``n`` hold one value per point; both results have shape
    (points, 8), branches in ``BRANCH_ORDER``.  The image w = M v of the
    input v = (alpha, 0, 0, beta) has probability |w|^2, and the post-state
    w/|w| gives the concurrence.  Dead branches follow ``run_protocol_pure``:
    a Bell outcome below the cutoff zeroes both of its branches, and any
    branch below the cutoff has concurrence 0.
    """
    return _in_blocks(_pure_block, _check_alpha(alpha), _check_n(n))


def _pure_block(alpha: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = np.zeros((len(alpha), 4))
    v[:, 0b00] = alpha
    v[:, 0b11] = np.sqrt(1.0 - alpha * alpha)
    w = np.einsum("bkij,bj->bki", branch_maps(n), v)
    probability = np.einsum("bki,bki->bk", w, w)
    bell = probability[:, 0::2] + probability[:, 1::2]
    probability[np.repeat(bell < ZERO_PROBABILITY_CUTOFF, 2, axis=1)] = 0.0
    alive = probability >= ZERO_PROBABILITY_CUTOFF
    concurrence = np.zeros_like(probability)
    concurrence[alive] = concurrence_pure_batch(w[alive] / np.sqrt(probability[alive])[:, None])
    return probability, concurrence


@np.errstate(all="ignore")
def werner_branches(p: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch probabilities and concurrences for Werner inputs, batched over points.

    Same shapes and dead-branch rule as ``pure_branches``.  Each live branch
    post-state M rho M' / tr(M rho M') is an X-state, so
    ``concurrence_x_batch`` validates it and gives its concurrence in closed
    form; Wootters' eigenvalue formula is left to the scalar oracle.  Maps
    and Werner matrices are real, so the whole computation is too.
    """
    return _in_blocks(_werner_block, _check_p(p), _check_n(n))


def _werner_block(p: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    maps = branch_maps(n)
    weighted = maps @ _werner_entries(p)[:, np.newaxis] @ np.swapaxes(maps, -1, -2)
    probability = np.trace(weighted, axis1=-2, axis2=-1)
    alive = probability >= ZERO_PROBABILITY_CUTOFF
    post = weighted[alive] / probability[alive][:, None, None]
    concurrence = np.zeros_like(probability)
    concurrence[alive] = concurrence_x_batch(post)
    return probability, concurrence


def run_protocol_mixed(p: float, n: float) -> ProtocolResult:
    """Run the protocol on a Werner input by five-qubit enumeration.

    The Werner state is the Bell-state mixture (1+3p)/4 |Phi+><Phi+| +
    (1-p)/4 (|Phi-><Phi-| + |Psi+><Psi+| + |Psi-><Psi-|).  Each Bell state is
    enumerated as a pure input, so each branch's unnormalized M rho M'
    (``weighted_matrix``) is the weighted sum of the Bell states' branch
    probabilities times their post-state projectors; its trace is the branch
    probability.  Each branch also reports the renormalized post-state
    density matrix and its Wootters concurrence.
    """
    p = _check_p(p)
    n = _check_n(n)
    weights = ((1.0 + 3.0 * p) / 4.0,) + ((1.0 - p) / 4.0,) * 3
    weighted = [np.zeros((4, 4), dtype=complex) for _ in BRANCH_ORDER]
    probabilities = [0.0] * len(BRANCH_ORDER)
    for weight, bell_state in zip(weights, bell_basis(INPUT_LABELS).vectors):
        for k, (q, post) in enumerate(_enumerate(bell_state, n)):
            probabilities[k] += weight * q
            if q >= ZERO_PROBABILITY_CUTOFF:
                weighted[k] += weight * q * density_from_pure(post).entries

    def post_state(k: int) -> DensityMatrix:
        return DensityMatrix(OUTPUT_LABELS, weighted[k] / probabilities[k])

    sentinel = DensityMatrix(OUTPUT_LABELS, np.zeros((4, 4), dtype=complex))
    return _result(n, None, p, probabilities, post_state, concurrence_mixed, sentinel, weighted)
