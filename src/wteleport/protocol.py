"""Teleporting half of an entangled pair through the |W_n> channel family.

Setup: Alice holds the input pair on qubits (1, 2) and channel qubit 3; Bob
holds channel qubits 4 and 5.  Alice measures (2, 3) in the Bell basis, Bob
then measures qubit 5 in the computational basis, and the surviving pair
lives on (1, 4).  Every one of the 4 x 2 = 8 outcome branches is enumerated
exactly, with its probability, renormalized post-state and concurrence;
nothing is sampled.

There is one enumeration and one engine.  The enumeration projects full
five-qubit state vectors, a whole stack of inputs in one pass, with one
concurrence kernel call for all live branches; a Werner input is the mixture
of the four Bell states, enumerated as one stack once per n for any number
of p.  The scalar runs are one-point views of it.  The engine computes all
eight branches of whole parameter grids at once, straight from the entries
of each branch's 2x2 action, for pure and Werner inputs alike through
``pure_branches`` and ``werner_branches``; sweeps use it, and the
enumeration stays as the independent oracle that checks it.
"""
from __future__ import annotations

from enum import Enum
from math import sqrt
from typing import NamedTuple, Union

import numpy as np

from .concurrence import concurrence_mixed_batch, concurrence_pure_batch, concurrence_x_batch
from .states import (
    NORM_TOL,
    DensityMatrix,
    InvalidInput,
    NumericalFailure,
    StateVector,
    ZERO_PROBABILITY_CUTOFF,
    _as_array,
    _check_probability_sums,
    _labels,
    _measure_stack,
    bell_basis,
    check_density_matrices,
    computational_basis,
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


class Branch(NamedTuple):
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


class ProtocolResult(NamedTuple):
    """All eight branches for one (input, channel) parameter point."""

    branches: tuple[Branch, ...]
    total_probability: float

    def branch(self, bell: BellOutcome, bob: BobOutcome) -> Branch:
        for b in self.branches:
            if b.bell is bell and b.bob is bob:
                return b
        raise KeyError((bell, bob))


# Grid points per block of the batched engine and of a CLI sweep, which
# computes and writes one block at a time; bounds their working memory, so a
# sweep's peak memory does not grow with its grid.  That peak is set by one
# block and the rendering of its rows, which grow with the block: 128-point
# blocks peak about 0.25 MiB lower than 256-point ones on the benchmark's pure
# CSV sweep (fresh processes, warm bytecode caches), and now that a block's
# fixed cost is lower they take no longer on the 10^5-point grids of the
# README (BENCH_33.json).
BLOCK_POINTS = 128


def _validated(values, ok, message: str):
    """``values`` as float64 (a numpy float64 for a scalar), or ``InvalidInput``
    naming them if they are not real numbers, else the first that fails ``ok``."""
    arr = _as_array(values, "biufO", float, message)
    bad = ~ok(arr)
    if bad.any():
        raise InvalidInput(message.format(float(arr[bad].flat[0])))
    return arr if arr.ndim else arr[()]


def _scalar(value):
    """A validated ``value`` that must be one number, not an array."""
    if np.ndim(value):
        raise InvalidInput(f"expected one number, got an array of shape {np.shape(value)}")
    return value


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
    alpha = _scalar(_check_alpha(alpha))
    return StateVector(INPUT_LABELS, _input_pairs(np.array([alpha]) ** 2)[0])


def _input_pairs(alpha_sq: np.ndarray) -> np.ndarray:
    """Amplitudes (k, 4) of the input pairs of a stack of validated alpha^2."""
    pairs = np.zeros((len(alpha_sq), 4), dtype=complex)
    pairs[:, 0b00] = np.sqrt(alpha_sq)
    pairs[:, 0b11] = np.sqrt(1.0 - alpha_sq)
    return pairs


@np.errstate(over="ignore")
def w_normalization(n):
    """Normalization constant 1/sqrt(2 + 2n) of the |W_n> family, elementwise;
    0 where 2 + 2n overflows."""
    return 1.0 / np.sqrt(2.0 + 2.0 * _check_n(n))


def w_state(n: float) -> StateVector:
    """|W_n> = f(n) (|100> + sqrt(n)|010> + sqrt(n+1)|001>) on qubits (3, 4, 5)."""
    return StateVector(CHANNEL_LABELS, _w_amplitudes(np.array([_scalar(_check_n(n))]))[0])


@np.errstate(over="ignore")
def _w_amplitudes(n: np.ndarray) -> np.ndarray:
    """Amplitudes (k, 8) of |W_n> for a stack of validated n."""
    f = w_normalization(n)
    amps = np.zeros((len(n), 8), dtype=complex)
    amps[:, 0b100] = f
    amps[:, 0b010] = f * np.sqrt(n)
    amps[:, 0b001] = f * np.sqrt(n + 1.0)
    norms = np.linalg.norm(amps, axis=-1)
    off = ~(np.abs(norms - 1.0) <= NORM_TOL)
    if off.any():  # 2 + 2n overflows to inf, which zeroes every amplitude
        n, norm = n[off][0], norms[off][0]
        raise NumericalFailure(f"|W_n> does not normalize at n={n}, norm is {norm}")
    return amps


def werner(p: float) -> DensityMatrix:
    """Werner family p |Phi+><Phi+| + (1-p)/4 I on qubits (1, 2)."""
    r11, r22, r33, r44, r14 = _werner_entries(np.array([_scalar(_check_p(p))]))[:, 0]
    entries = np.diag([r11, r22, r33, r44])
    entries[0, 3] = entries[3, 0] = r14
    return DensityMatrix(INPUT_LABELS, entries)


def _werner_entries(p: np.ndarray) -> np.ndarray:
    """The entries rho11, rho22, rho33, rho44 and rho14 (5, len(p)) of the
    Werner matrices p P + (1-p)/4 I, P = |Phi+><Phi+|; every other entry is 0.
    Each is formed as that sum forms it, to the bit: p h + (1-p)/4 where P's
    entry is h = (1/sqrt(2))^2, (1-p)/4 on the rest of the diagonal, and
    p h + 0.0 at rho14 (so p = -0.0 gives +0.0 there, as the sum does)."""
    amplitude = 1.0 / sqrt(2.0)
    mixed = (1.0 - p) / 4.0
    rho = np.empty((5, len(p)))
    np.add(p * (amplitude * amplitude), 0.0, out=rho[4])
    rho[0] = rho[3] = rho[4] + mixed
    rho[1] = rho[2] = mixed
    return rho


def compose_joint(pair: StateVector, channel: StateVector) -> StateVector:
    """Five-qubit joint state of the input pair and the channel."""
    if _labels(pair) != INPUT_LABELS:
        raise InvalidInput(f"input pair must live on {INPUT_LABELS}, got {pair.labels}")
    if _labels(channel) != CHANNEL_LABELS:
        raise InvalidInput(f"channel must live on {CHANNEL_LABELS}, got {channel.labels}")
    return tensor(pair, channel)


def _enumerate(pairs: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (k, 8) and post-state amplitudes (k, 8, 4) of every branch,
    in ``BRANCH_ORDER``, of a stack of pure input pairs (k, 4) at channel
    parameters n (k,), by full five-qubit enumeration.

    Each joint state is ``compose_joint``'s product of its pair and |W_n>.
    Alice's four Bell outcomes and Bob's two computational outcomes yield
    exactly eight branches; joint probabilities multiply along the chain.  A
    Bell outcome below ``ZERO_PROBABILITY_CUTOFF`` gives both of its branches
    probability 0, and a branch below it carries the all-zero sentinel.
    """
    k = len(pairs)
    joint = (pairs[:, :, np.newaxis] * _w_amplitudes(n)[:, np.newaxis, :]).reshape(k, 32)
    p_bell, mid = _measure_stack(joint, (1, 2, 3, 4, 5), (2, 3), bell_basis((2, 3)))
    alive = p_bell >= ZERO_PROBABILITY_CUTOFF
    p_bob, post = np.zeros((k, 4, 2)), np.zeros((k, 4, 2, 4), dtype=complex)
    bob = computational_basis((5,))
    p_bob[alive], post[alive] = _measure_stack(mid[alive], (1, 4, 5), (5,), bob)
    probability = (p_bell[..., np.newaxis] * p_bob).reshape(k, 8)
    post = post.reshape(k, 8, 4)
    post[probability < ZERO_PROBABILITY_CUTOFF] = 0.0
    return probability, post


def _protocol_result(probability, post, concurrence, weighted=(None,) * 8):
    """One point's ``ProtocolResult`` from its rows of the enumeration's arrays;
    each post-state is validated as a ``StateVector``, or a ``DensityMatrix``
    for 4x4 rows."""
    kind = StateVector if post.ndim == 2 else DensityMatrix
    rows = zip(BRANCH_ORDER, probability.tolist(), post, concurrence.tolist(), weighted)
    branches = tuple(
        Branch(bell, bob, q, kind(OUTPUT_LABELS, v), c, m) for (bell, bob), q, v, c, m in rows
    )
    return ProtocolResult(branches, float(sum(probability)))


def run_protocol_pure(alpha: float, n: float) -> ProtocolResult:
    """Run the protocol on the pure input pair by full five-qubit enumeration.

    Branches whose probability is not a normal double carry the zero
    sentinel and concurrence 0; all others, however unlikely, are live.
    This is ``_pure_results`` at one point, alpha^2 = alpha * alpha.
    """
    alpha, n = _scalar(_check_alpha(alpha)), _scalar(_check_n(n))
    return _protocol_result(*(a[0] for a in _pure_results(alpha * alpha, n)))


def _pure_results(alpha_sq, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pure runs of a stack of points, one per entry of ``alpha_sq`` and
    ``n``: probabilities (k, 8), post-state amplitudes (k, 8, 4) and
    concurrences (k, 8), those of all live branches from one kernel call.
    Each point's branch probabilities, summed in ``BRANCH_ORDER``, must be 1
    (NaN fails)."""
    pairs = _input_pairs(np.atleast_1d(_check_alpha_sq(alpha_sq)))
    probability, post = _enumerate(pairs, np.atleast_1d(_check_n(n)))
    _check_probability_sums(sum(probability.T), "branch")
    live = probability >= ZERO_PROBABILITY_CUTOFF
    concurrence = np.zeros_like(probability)
    concurrence[live] = concurrence_pure_batch(post[live])
    return probability, post, concurrence


def branch_map(n: float, bell: BellOutcome, bob: BobOutcome) -> np.ndarray:
    """Post-selected linear map of one branch, as a 4x4 matrix on (1, 2) -> (1, 4).

    Applying it to any input pair and renormalizing reproduces the branch
    post-state of the full enumeration, and the squared norm of the image is
    the branch probability.  Summing M'M over all eight branches gives the
    identity (the eight maps form a complete measurement).
    """
    if not (isinstance(bell, BellOutcome) and isinstance(bob, BobOutcome)):
        raise InvalidInput(f"expected a BellOutcome and a BobOutcome, got {bell!r}, {bob!r}")
    return branch_maps(np.array([_scalar(_check_n(n))]))[0, BRANCH_ORDER.index((bell, bob))]


def branch_maps(n: np.ndarray) -> np.ndarray:
    """All eight branch maps for every n, shape (len(n), 8, 4, 4), in ``BRANCH_ORDER``:
    identity on qubit 1 times f(n)/sqrt(2) times each action of ``_branch_actions``;
    ``NumericalFailure`` where 2 + 2n overflows."""
    n = _check_n(n)
    scale = w_normalization(n)[:, np.newaxis] / sqrt(2.0)
    if not scale.all():
        raise NumericalFailure(f"2 + 2n overflows at n={n.max()}")
    actions = np.moveaxis(_branch_actions(n) * scale, 0, -1)
    maps = np.zeros(actions.shape[:-1] + (4, 4))
    maps[..., :2, :2] = maps[..., 2:, 2:] = actions.reshape(actions.shape[:-1] + (2, 2))
    return maps


# Each branch's 2x2 action [[a, b], [c, d]] from qubit 2 to qubit 4, as indices
# into (0, 1, sqrt(n), sqrt(n + 1), -1, -sqrt(n), -sqrt(n + 1)): one row per
# entry a, b, c, d, one column per branch in ``BRANCH_ORDER``.
_ACTION_PATTERN = np.array(
    [  # Phi+ 0, Phi+ 1, Phi- 0, Phi- 1, Psi+ 0, Psi+ 1, Psi- 0, Psi- 1
        [0, 3, 0, 3, 1, 0, 1, 0],  # a
        [1, 0, 4, 0, 0, 3, 0, 6],  # b
        [2, 0, 2, 0, 0, 0, 0, 0],  # c
        [0, 0, 0, 0, 2, 0, 5, 0],  # d
    ]
)
_ACTION_PATTERN.setflags(write=False)


def _branch_actions(n: np.ndarray) -> np.ndarray:
    """The one definition of the branch maps: a, b, c, d = ``_branch_actions(n)``,
    each (len(n), 8), are the entries of every branch's 2x2 action [[a, b], [c, d]]
    from qubit 2 to qubit 4, built from the channel's amplitudes without f(n)
    and gathered from ``_ACTION_PATTERN``.  No action has two non-zero entries
    in a row or column, which the engine relies on."""
    values = np.empty((len(n), 7))
    values[:, 0], values[:, 1] = 0.0, 1.0
    np.sqrt(n, out=values[:, 2])
    np.sqrt(n + 1.0, out=values[:, 3])
    np.negative(values[:, 1:4], out=values[:, 4:])
    return values[:, _ACTION_PATTERN].transpose(1, 0, 2)


def _in_blocks(rho: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run ``_x_block`` over blocks of at most ``BLOCK_POINTS`` points, the
    results of one block as it returns them, and check that every point's
    branch probabilities sum to 1.  Its callers ignore numpy's floating-point
    warnings: where 2 + 2n overflows f(n)^2 is 0, and the check then raises
    ``NumericalFailure`` instead."""
    if len(n) <= BLOCK_POINTS:
        probability, concurrence = _x_block(rho, n)
    else:
        probability = np.empty((len(n), len(BRANCH_ORDER)))
        concurrence = np.empty_like(probability)
        for start in range(0, len(n), BLOCK_POINTS):
            block = slice(start, start + BLOCK_POINTS)
            probability[block], concurrence[block] = _x_block(rho[:, block], n[block])
    _check_probability_sums(probability.sum(axis=-1), "branch")
    return probability, concurrence


@np.errstate(all="ignore")
def pure_branches(alpha_sq: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch probabilities and concurrences for pure inputs, batched over points.

    ``alpha_sq`` and ``n`` hold one value per point; both results have shape
    (points, 8), branches in ``BRANCH_ORDER``.  The input alpha|00> +
    beta|11> is the X-state with rho11 = alpha^2, rho44 = 1 - alpha^2 and
    rho14 = sqrt(alpha^2 (1 - alpha^2)), evaluated at alpha^2 as given; see
    ``_x_block``.
    """
    return _pure_branches(np.atleast_1d(_check_alpha_sq(alpha_sq)), np.atleast_1d(_check_n(n)))


def _pure_branches(x: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pure_branches`` of validated 1-D alpha^2 ``x`` and ``n`` (see ``_in_blocks``)."""
    rho = np.zeros((5, len(x)))
    rho[0], rho[3] = x, 1.0 - x
    rho[4] = np.sqrt(rho[0] * rho[3])
    return _in_blocks(rho, n)


@np.errstate(all="ignore")
def werner_branches(p: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch probabilities and concurrences for Werner inputs, batched over
    points; same shapes as ``pure_branches``, see ``_x_block``."""
    return _werner_branches(np.atleast_1d(_check_p(p)), np.atleast_1d(_check_n(n)))


def _werner_branches(p: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``werner_branches`` of validated 1-D ``p`` and ``n`` (see ``_in_blocks``)."""
    return _in_blocks(_werner_entries(p), n)


def _x_block(rho: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eight branches of real X-state inputs with rho23 = 0, given by
    ``rho`` (5, points): rho11, rho22, rho33, rho44 and rho14 of each point.

    Each A rho A', A an action of ``_branch_actions``, is then an X-state as
    long as no action has two non-zero entries in a row or column, or
    ``NumericalFailure`` is raised.  Its six entries are formed once, straight
    from rho's and those of A times a power-of-two scale s chosen from n alone:
    s = 2**40 where n < 2**900, so that the entries and the trace, the branch
    weight, gain s^2 = 2**80 exactly but for underflow, which makes even a
    weight of 2**-1074 normal, while (n + 1) 2**80 stays finite; s = 1 above,
    where no weight but 0 is subnormal.  A branch whose weight is not a normal
    double, which leaves 0, is dead, with concurrence 0; the weight / s^2
    times f(n)^2 / 2 is the branch probability, and a live branch stays live
    where it underflows.  ``concurrence_x_batch`` validates each live
    post-state A rho A' / weight and gives its concurrence in closed form,
    leaving the spin-flip and Wootters formulas to the scalar oracle.

    The block holds only the arrays it still needs: it scales the action
    table in place, gathers the live entries row by row into one (6, live)
    array, and lets go of the table and the six full entries before the
    kernel runs.  One 128-point block traces 140 KiB at its peak for pure and
    for Werner inputs, less than the rendering of its rows (see ``cli._grid``).
    """
    scale = np.where(n < 2.0**900, 2.0**40, 1.0)[:, np.newaxis]
    actions = _branch_actions(n)
    actions *= scale
    # a b and c d share a row, a c and b d a column
    if (actions[::2] * actions[1::2]).any() or (actions[:2] * actions[2:]).any():
        raise NumericalFailure("post-state has a non-zero entry off the X shape")
    x = _x_entries(actions, rho[:, :, np.newaxis])  # rho's entries each (points, 1)
    del actions
    weight = ((x[0] + x[1]) + x[2]) + x[3]
    probability = weight / scale**2 * (0.5 / (2.0 + 2.0 * n))[:, np.newaxis]
    alive = weight >= ZERO_PROBABILITY_CUTOFF
    live_weight = weight[alive]
    # rho11..rho44, rho14 and rho23 of each live post-state, one row per entry,
    # so that each column the kernel reads is contiguous: with one row per
    # post-state instead, the kernel ran about 3x slower
    entries = np.empty((len(x), len(live_weight)))
    for row, entry in zip(entries, x):
        row[...] = entry[alive]
    del x, entry
    entries /= live_weight
    concurrence = np.zeros_like(weight)
    concurrence[alive] = concurrence_x_batch(entries[:4].T, entries[4:].T)
    return probability, concurrence


def _x_entries(actions, rho) -> tuple[np.ndarray, ...]:
    """The X of A rho A' for actions A = [[a, b], [c, d]] given by ``actions``
    and inputs by ``rho`` (see ``_x_block``): rho11..rho44, rho14 and rho23,
    each entry the one product its matrix product would sum."""
    a, b, c, d = actions
    r11, r22, r33, r44, r14 = rho
    return (
        (a * r11) * a + (b * r22) * b,
        (c * r11) * c + (d * r22) * d,
        (a * r33) * a + (b * r44) * b,
        (c * r33) * c + (d * r44) * d,
        (a * r14) * d,
        (c * r14) * b,
    )


def run_protocol_mixed(p: float, n: float) -> ProtocolResult:
    """Run the protocol on a Werner input by five-qubit enumeration.

    The Werner state is the Bell-state mixture (1+3p)/4 |Phi+><Phi+| +
    (1-p)/4 (|Phi-><Phi-| + |Psi+><Psi+| + |Psi-><Psi-|).  Each Bell state is
    enumerated as a pure input, so each branch's unnormalized M rho M'
    (``weighted_matrix``) is the weighted sum of the Bell states' branch
    probabilities times their post-state projectors; its trace is the branch
    probability.  Each branch also reports the renormalized post-state and
    its Wootters concurrence.  This is ``_mixed_results`` at one p.
    """
    p, n = _scalar(_check_p(p)), _scalar(_check_n(n))
    probability, weighted, post, concurrence = (a[0] for a in _mixed_results((p,), n))
    return _protocol_result(probability, post, concurrence, weighted)


def _mixed_results(p_values, n: float) -> tuple[np.ndarray, ...]:
    """``run_protocol_mixed(p, n)`` for every p in ``p_values``, in order, as
    arrays: probabilities (P, 8), weighted matrices M rho M' (P, 8, 4, 4),
    post-states (P, 8, 4, 4) and concurrences (P, 8).

    Only the mixing weights depend on p, so ``_bell_projectors`` runs once per
    call.  Every p sums the Bell states' weights in the same order as a call
    of its own, so its result is the same to the bit.  The branch sums are
    checked as in ``_pure_results``; all live post-states are validated
    together and take one Wootters kernel call.
    """
    p = np.atleast_1d(_check_p(p_values))
    q, projectors = _bell_projectors(_check_n(n))
    weights = ((1.0 + 3.0 * p) / 4.0,) + ((1.0 - p) / 4.0,) * 3
    probability, weighted = np.zeros((len(p), 8)), np.zeros((len(p), 8, 4, 4), dtype=complex)
    for weight, q_bell, projector in zip(weights, q, projectors):
        contribution = weight[:, np.newaxis] * q_bell
        probability += contribution
        weighted += contribution[..., np.newaxis, np.newaxis] * projector
    _check_probability_sums(sum(probability.T), "branch")
    live = probability >= ZERO_PROBABILITY_CUTOFF
    post = np.zeros_like(weighted)
    post[live] = weighted[live] / probability[live][:, np.newaxis, np.newaxis]
    check_density_matrices(post[live])
    concurrence = np.zeros_like(probability)
    concurrence[live] = concurrence_mixed_batch(post[live])
    return probability, weighted, post, concurrence


def _bell_projectors(n: float) -> tuple[np.ndarray, np.ndarray]:
    """Branch probabilities (4, 8) and read-only post-state projectors
    (4, 8, 4, 4) of the four Bell states as pure inputs at one n, enumerated as
    one stack; a dead branch's projector is 0, the live ones are validated."""
    bells = np.array([v.amplitudes for v in bell_basis(INPUT_LABELS).vectors])
    q, post = _enumerate(bells, np.full(len(bells), n))
    projectors = post[..., :, np.newaxis] * post[..., np.newaxis, :].conj()
    check_density_matrices(projectors[q >= ZERO_PROBABILITY_CUTOFF])
    projectors.setflags(write=False)
    return q, projectors
