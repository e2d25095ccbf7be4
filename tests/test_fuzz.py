"""The library and the CLI under odd arguments, drawn by hypothesis.

Every public function, and the two state constructors, is called with odd
numbers, labels and outcomes; object parameters get valid objects, None, a
string or the other state type.  Each call returns a finite result of its
documented type or raises one of the package's typed errors; explicit
examples add the corners where both arguments sit at an edge.  The CLI is
driven in process over argv built from odd spellings, some runs with a
stderr that cannot be written; it exits 0, 2 or 3, and an exit 2 writes
nothing.  A numpy warning fails the run (see ``filterwarnings`` in
pyproject.toml).

The runs are derandomized and keep no example database, so every run draws
the same cases and writes no files.
"""
import contextlib
import errno
import io
import math
import os
import tempfile
from enum import Enum

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import wteleport
from wteleport import (
    BellOutcome,
    BobOutcome,
    DensityMatrix,
    InvalidBasis,
    InvalidInput,
    MeasurementBasis,
    NumericalFailure,
    ProtocolResult,
    QuarticReport,
    Region,
    StateIndependentPoint,
    StateVector,
    SweepTable,
    bell_basis,
    computational_basis,
    input_pair,
    ket,
    w_state,
    werner,
)
from wteleport.cli import main

REPEATABLE = settings(derandomize=True, database=None, deadline=None)
TYPED_ERRORS = (InvalidInput, InvalidBasis, NumericalFailure)

VALID = [0.0, 1e-300, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 8.9e307]
ODD = [None, "x", "0.5", "", math.nan, math.inf, -math.inf, 5e-324, 1e200, 1e308, -1.0,
       -1e-300, 10**400]
NUMBER = (
    st.sampled_from(ODD + VALID)
    | st.floats()
    | st.lists(st.sampled_from(ODD[5:] + VALID), max_size=3)  # 1-D
    | st.lists(st.lists(st.sampled_from(VALID), min_size=1, max_size=2), min_size=1, max_size=2)
)
LABELS = st.sampled_from(
    [(1, 2), (2, 3), (1, 4), (5,), (3, 4, 5), (0, 1), (), (1, 1), (1, 2, 3, 4, 5, 6), "ab", None,
     [1.5, 2.0], [[1, 2]], [2], 1, 10**400, [True, False]]
) | st.lists(st.integers(-2, 6), max_size=6)
OUTCOME = st.sampled_from(list(BellOutcome) + list(BobOutcome) + ["PhiPlus", "Zero", 0, None])
MODE = st.sampled_from(["pure", "werner", "WERNER", "mixed", "", None, 1.0])
# valid objects: normalized states on the input, channel, output and other
# registers, density matrices (the zero sentinel among them) and bases; and
# wrong ones: None, a string and the other state type
WRONG = [None, "x"]
STATE = st.sampled_from(
    [ket([0, 0], [1, 2]), ket([1], [1]), input_pair(0.6), w_state(2.0), ket([0, 1], [1, 4]),
     ket([0, 0, 0, 0, 0], [1, 2, 3, 4, 5]), werner(0.5)] + WRONG
)
DENSITY = st.sampled_from(
    [werner(0.5), werner(1.0), DensityMatrix((1, 2), np.zeros((4, 4))),
     DensityMatrix((1,), np.eye(2) / 2.0), ket([0, 0], [1, 2])] + WRONG
)
BASIS = st.sampled_from(
    [bell_basis((2, 3)), computational_basis((5,)), computational_basis((1, 2)), ket([0], [5])]
    + WRONG
)
VECTORS = st.sampled_from(
    [bell_basis((1, 2)).vectors, (ket([0], [1]), ket([0], [1])), (), (werner(0.5),)] + WRONG
)

# Each callable's parameters, and the type it returns.
SIGNATURES = {
    "DensityMatrix": ((LABELS, NUMBER), DensityMatrix),
    "MeasurementBasis": ((st.just("basis"), VECTORS), MeasurementBasis),
    "StateVector": ((LABELS, NUMBER), StateVector),
    "bell_basis": ((LABELS,), MeasurementBasis),
    "branch_map": ((NUMBER, OUTCOME, OUTCOME), np.ndarray),
    "classify_region": ((NUMBER, NUMBER), Region),
    "compose_joint": ((STATE, STATE), StateVector),
    "computational_basis": ((LABELS,), MeasurementBasis),
    "concurrence_mixed": ((DENSITY,), float),
    "concurrence_pure": ((STATE,), float),
    "density_from_pure": ((STATE,), DensityMatrix),
    "efficiency_ratio": ((NUMBER, NUMBER), float),
    "input_concurrence": ((NUMBER,), float),
    "input_pair": ((NUMBER,), StateVector),
    "ket": ((LABELS, LABELS), StateVector),
    "measure": ((STATE, LABELS, BASIS), list),
    "predicted_branch_matrix_phi": ((NUMBER, NUMBER, NUMBER), np.ndarray),
    "predicted_branch_matrix_psi": ((NUMBER, NUMBER, NUMBER), np.ndarray),
    "predicted_concurrence_phi": ((NUMBER, NUMBER), float),
    "predicted_concurrence_psi": ((NUMBER, NUMBER), float),
    "predicted_concurrence_werner": ((NUMBER, NUMBER), float),
    "quartic": ((NUMBER,), float),
    "quartic_roots": ((), QuarticReport),
    "run_protocol_mixed": ((NUMBER, NUMBER), ProtocolResult),
    "run_protocol_pure": ((NUMBER, NUMBER), ProtocolResult),
    "state_independent_alpha_sq": ((NUMBER,), StateIndependentPoint),
    "sweep": ((MODE, NUMBER, NUMBER, NUMBER), SweepTable),
    "tensor": ((STATE, STATE), StateVector),
    "w_normalization": ((NUMBER,), (float, np.ndarray)),
    "w_state": ((NUMBER,), StateVector),
    "werner": ((NUMBER,), DensityMatrix),
}


def _record(obj) -> bool:
    """Enums, errors and result records: their constructors check nothing."""
    return isinstance(obj, type) and issubclass(obj, (Enum, Exception, tuple, SweepTable))


def _finite(value) -> bool:
    """Whether every number ``value`` holds is finite."""
    if isinstance(value, StateVector):
        value = value.amplitudes
    elif isinstance(value, DensityMatrix):
        value = value.entries
    elif isinstance(value, MeasurementBasis):
        value = value.vectors
    elif isinstance(value, SweepTable):
        value = [getattr(value, name) for name in SweepTable.__slots__ if name != "mode"]
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return value is None or isinstance(value, (str, Enum)) or bool(np.isfinite(value).all())


def test_every_public_callable_is_fuzzed():
    public = {name for name in wteleport.__all__ if callable(getattr(wteleport, name))}
    assert set(SIGNATURES) == {name for name in public if not _record(getattr(wteleport, name))}


def assert_finite_or_typed(name, args):
    """``name(*args)`` returns a finite result of its documented type or raises a typed error."""
    try:
        result = getattr(wteleport, name)(*args)
    except TYPED_ERRORS:
        return
    assert isinstance(result, SIGNATURES[name][1]), (args, type(result))
    assert _finite(result), args


@pytest.mark.parametrize("name", sorted(SIGNATURES))
@settings(REPEATABLE, max_examples=40)
@given(data=st.data())
def test_public_api_returns_finite_or_raises_typed(name, data):
    assert_finite_or_typed(name, [data.draw(parameter) for parameter in SIGNATURES[name][0]])


# p near 1 with n where 2 + 2n is about to overflow, or subnormal: corners
# that need both arguments at an edge, which random draws rarely reach
@pytest.mark.parametrize(
    "name",
    ["predicted_branch_matrix_phi", "predicted_branch_matrix_psi", "predicted_concurrence_werner"],
)
@settings(REPEATABLE, phases=[Phase.explicit])
@example(p=0.9, n=1e308)
@example(p=0.9, n=8.98e307)
@example(p=0.9, n=5e-324)
@example(p=1.0, n=1e308)
@example(p=1.0, n=8.98e307)
@example(p=1.0, n=5e-324)
@given(p=NUMBER, n=NUMBER)
def test_two_argument_corners_return_finite_or_raise_typed(name, p, n):
    assert_finite_or_typed(name, [p, n])


class FullStream(io.StringIO):
    """A stderr on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# The odd spellings of the CLI's numbers and grids, and a few ordinary ones
# (Arabic-Indic 0.5 among them) so that some runs succeed.
SPELLINGS = ["nan", "1e309", "0x10", "\u0663", "\u0660.\u0665", "1:2:1.5", "1e308:1e308:600",
             "a:b:c", "1::2", "", "0.5", "0.5:1:3"]


@settings(REPEATABLE, max_examples=150)
@given(
    command=st.sampled_from(["run", "sweep"]),
    mode=st.sampled_from([("pure", "--alpha-sq"), ("werner", "--p")]),
    n=st.sampled_from(SPELLINGS),
    value=st.sampled_from(SPELLINGS),
    fmt=st.sampled_from(["csv", "json", "table"]),
    to_file=st.booleans(),
    full_stderr=st.booleans(),
)
def test_cli_exits_0_2_or_3_and_a_usage_error_writes_nothing(
    command, mode, n, value, fmt, to_file, full_stderr
):
    # a stderr that cannot be written loses the message, not the exit code
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "out")
        argv = [command, "--mode", mode[0], f"--n={n}", f"{mode[1]}={value}", "--format", fmt]
        argv += ["--output", path] if to_file else []
        out, err = io.StringIO(), FullStream() if full_stderr else io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == "", argv
            assert not os.path.exists(path), argv
