"""The library's contract over its documented domain, in four regions.

Any (kind, band, k, lambda, prediction) gives one of two results: a
schedule or frontier that passes a check written outside the library, or a
typed ``KSearchError``; through the CLI, one of the documented exit codes
with no traceback.  The first region draws p_min = 10^U(-2, 2), theta =
10^U(0, 4) for max-search and 10^U(0, 3) for min-search, k log-uniform in
[1, 1000], lambda in [0, 1] (0 and 1 drawn explicitly) and the prediction
log-uniform in the band.  Min-search bands wider than theta = 10^3 are left
out: there a worst-case schedule can exceed its own cr past the design
tolerance.  The second region passes one argument of the wrong type (a
lambda, gamma, price or prediction that is not a real number, a k or point
count that is not an integer, a kind that is not a ``ProblemKind``, a band
that is not a ``PriceBounds``, a series, stream, schedule or instance that
is not one, or a sequence of prices or thresholds with an entry that is
not a real number) to a public entry, which must raise
``InvalidInputError``.  The third passes one number of another type (a
numpy float or integer scalar, a 0-d array, a ``Fraction``) to a public
entry, which must give, bit for bit and type for type, what the
Python number of the same value gives.  The fourth passes a confidence,
error level or rho outside [0, 1], or NaN, which must raise
``DomainError`` before any design cache is read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fractions
import io
import math
import shlex

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import ksearch
from ksearch import (
    DomainError,
    FrontierSpec,
    InvalidInputError,
    KSearchError,
    ParetoPoint,
    PriceBounds,
    PriceSeries,
    ProblemKind,
    SearchInstance,
    SweepCell,
    ThresholdSchedule,
    WindowStream,
    adjust_error,
    design,
    evaluate_windows,
    frontier_curve,
    gen_synthetic_series,
    lower_bound,
    offline_opt,
    prediction_ratio,
    run_learning,
    run_ota,
    run_sweep,
    scale_theta,
    sliding_windows,
    solve_cr,
    target_point,
    worst_case_thresholds,
)
from ksearch import augmented
from ksearch.cli import main
from oracle import interval_ratios_reference

# the library's guarantee tolerance, with its ulp-scale cushion for sums
_TOL = 1e-9
_CUSHION = 1e-11


@st.composite
def domain_points(draw):
    """(kind, bounds, k, lam, prediction) of the region."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    p_min = 10.0 ** draw(st.floats(-2.0, 2.0))
    theta = 10.0 ** draw(st.floats(0.0, 4.0 if kind is ProblemKind.MAX else 3.0))
    k = round(10.0 ** draw(st.floats(0.0, 3.0)))
    lam = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    bounds = PriceBounds(p_min, p_min * theta)
    prediction = min(max(p_min * bounds.theta ** draw(st.floats(0.0, 1.0)), bounds.p_min),
                     bounds.p_max)
    return kind, bounds, k, lam, prediction


def within(value: float, bound: float) -> bool:
    return value <= bound + _TOL + _CUSHION * bound


@settings(max_examples=500, deadline=None)
@given(domain_points())
def test_library_returns_a_checked_result_or_a_typed_error(point):
    kind, bounds, k, lam, prediction = point
    theta = bounds.theta
    try:
        solution = worst_case_thresholds(bounds, k, kind)
    except KSearchError:
        pass
    else:
        assert 1.0 <= solution.cr and within(solution.cr, theta)
        assert all(within(r, solution.cr) for r in interval_ratios_reference(solution.schedule))
    try:
        spec = FrontierSpec(bounds, k, kind)
        curve = frontier_curve(spec, 3)
    except KSearchError:
        pass
    else:
        assert [p.lam for p in curve] == [1.0, 0.5, 0.0]
        for p in curve:
            assert within(spec.cr_star, p.gamma) and within(p.gamma, theta)
            assert within(1.0, p.eta) and within(p.eta, p.gamma)
    try:
        found = design(prediction, lam, bounds, k, kind)
    except KSearchError:
        pass
    else:
        gamma = found.target.gamma
        assert found.target.lam == lam and found.schedule.k == k
        assert within(gamma, theta)
        assert all(within(r, gamma) for r in interval_ratios_reference(found.schedule))


def run(argv: list[str]) -> tuple[int, str]:
    """``ksearch argv`` in this process: the exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_exit(argv: list[str]) -> None:
    code, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if code == 4:
        line = next(line for line in err.splitlines() if "reproduce with: " in line)
        again = shlex.split(line.split("reproduce with: ", 1)[1])
        assert again[0] == "ksearch"
        code_again, err_again = run(again[1:])
        assert code_again == 4
        assert err_again.splitlines()[0] == err.splitlines()[0]


@settings(max_examples=250, deadline=None)
@given(domain_points())
# a min-search lambda = 1 design that fails its verification (exit 4), so the
# reproduce command is checked on every run
@example((ProblemKind.MIN, PriceBounds(1.0, 177.82794100389228), 1000, 1.0, 1.0))
def test_cli_exits_with_a_documented_code(point):
    kind, bounds, k, lam, prediction = point
    band = ["--kind", kind.value, "--pmin", repr(bounds.p_min), "--pmax", repr(bounds.p_max),
            "--k", str(k)]
    check_exit(["thresholds", *band, "--lambda", repr(lam), "--prediction", repr(prediction)])
    check_exit(["pareto", *band, "--points", "3"])


# --------------------------------------------------------------------------
# second region: arguments of the wrong type

BAND = PriceBounds(5.0, 50.0)
SPEC = FrontierSpec(BAND, 10, ProblemKind.MAX)
MAX, MIN = ProblemKind.MAX, ProblemKind.MIN

# each public entry with one argument left open, and what that argument is
ENTRIES = {
    "design confidence": ("real", lambda x: design(20.0, x, BAND, 10, MAX)),
    "design prediction": ("real", lambda x: design(x, 0.5, BAND, 10, MAX)),
    "design k": ("integer", lambda x: design(20.0, 0.5, BAND, x, MAX)),
    "design kind": ("kind", lambda x: design(20.0, 0.5, BAND, 10, x)),
    "design band": ("band", lambda x: design(20.0, 0.5, x, 10, MAX)),
    "target_point confidence": ("real", lambda x: target_point(x, SPEC)),
    "lower_bound gamma": ("real", lambda x: lower_bound(x, SPEC)),
    "frontier_curve points": ("integer", lambda x: frontier_curve(SPEC, x)),
    "FrontierSpec k": ("integer", lambda x: FrontierSpec(BAND, x, MAX)),
    "FrontierSpec kind": ("kind", lambda x: FrontierSpec(BAND, 10, x)),
    "FrontierSpec band": ("band", lambda x: FrontierSpec(x, 10, MAX)),
    "solve_cr band": ("band", lambda x: solve_cr(x, 3, MIN)),
    "worst_case_thresholds band": ("band", lambda x: worst_case_thresholds(x, 3, MIN)),
    "ThresholdSchedule band": ("band", lambda x: ThresholdSchedule(MAX, (6.0, 7.0), x)),
    "SearchInstance band": ("band", lambda x: SearchInstance((6.0, 7.0), 1, x)),
    "WindowStream band": ("band", lambda x: WindowStream(
        np.array([6.0, 7.0]), np.array([0]), 2, 1, x, np.array([6.0]), MAX)),
    "PriceBounds p_min": ("real", lambda x: PriceBounds(x, 50.0)),
    "PriceBounds p_max": ("real", lambda x: PriceBounds(5.0, x)),
    "ParetoPoint confidence": ("real", lambda x: ParetoPoint(x, 1.0, 2.0)),
    "gen_synthetic_series band": ("band", lambda x: gen_synthetic_series(10, 1, x)),
    "ThresholdSchedule values": ("contents", lambda x: ThresholdSchedule(MAX, (6.0, x), BAND)),
    "SearchInstance prices": ("contents", lambda x: SearchInstance((6.0, x), 1, BAND)),
    "PriceSeries prices": ("contents", lambda x: PriceSeries((6.0, x))),
    "sliding_windows series": ("object", lambda x: sliding_windows(x, 2, 1, 1, MAX)),
    "scale_theta series": ("object", lambda x: scale_theta(x, 2.0)),
    "run_sweep series": ("object", lambda x: run_sweep(
        x, (SweepCell(0.0, 1.0, 1, 1.0),), MAX, 1, 2, 1)),
    "adjust_error stream": ("object", lambda x: adjust_error(x, 0.5)),
    "evaluate_windows stream": ("object", lambda x: evaluate_windows(x, 1)),
    "run_learning stream": ("object", lambda x: run_learning(x, 1)),
    "interval_ratios schedule": ("object", ksearch.interval_ratios),
    "prediction_ratio schedule": ("object", lambda x: prediction_ratio(x, 20.0)),
    "run_ota schedule": ("object", lambda x: run_ota(x, SearchInstance((6.0,), 1, BAND))),
    "run_ota instance": ("object", lambda x: run_ota(ThresholdSchedule(MAX, (6.0,), BAND), x)),
    "offline_opt instance": ("object", lambda x: offline_opt(x, MAX)),
}

not_a_number = st.one_of(
    st.text(max_size=4), st.none(), st.lists(st.floats(0.0, 1.0), max_size=2),
    st.complex_numbers(max_magnitude=1e3), st.decimals(0, 100, allow_nan=False),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1), st.just(object()),
)
WRONG = {
    "real": not_a_number,
    "integer": not_a_number | st.floats(allow_nan=True),
    "kind": not_a_number | st.sampled_from(["max", "min", 1, 0.5]),
    "band": st.one_of(st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0)),
                      st.lists(st.floats(0.1, 100.0), max_size=2), st.none(),
                      st.text(max_size=4)),
    # one entry of a sequence of prices or thresholds
    "contents": not_a_number,
    # a series, stream, schedule or instance
    "object": not_a_number | st.lists(st.floats(5.0, 50.0), max_size=4)
    | st.tuples(st.floats(5.0, 50.0)),
}


@st.composite
def wrong_calls(draw):
    """(entry, value): a public entry and a value of the wrong type for its open argument."""
    name = draw(st.sampled_from(sorted(ENTRIES)))
    return name, draw(WRONG[ENTRIES[name][0]])


@settings(max_examples=300, deadline=None)
@given(wrong_calls())
@example(("design confidence", [0.5]))
@example(("design confidence", "0.5"))
@example(("design kind", ["max"]))
@example(("design prediction", "20"))
@example(("design k", 10.0))
@example(("lower_bound gamma", "2"))
@example(("target_point confidence", None))
@example(("frontier_curve points", 2.5))
@example(("PriceBounds p_min", "1"))
@example(("design band", (5.0, 50.0)))
@example(("design band", None))
@example(("FrontierSpec band", (5.0, 50.0)))
@example(("solve_cr band", (5.0, 50.0)))
@example(("worst_case_thresholds band", None))
@example(("ThresholdSchedule band", (5.0, 50.0)))
@example(("ThresholdSchedule band", [5.0, 50.0]))
@example(("design band", "5,50"))
@example(("SearchInstance band", (5.0, 50.0)))
@example(("SearchInstance band", None))
@example(("WindowStream band", (5.0, 50.0)))
@example(("WindowStream band", None))
@example(("ParetoPoint confidence", "a"))
@example(("gen_synthetic_series band", (5.0, 50.0)))
@example(("ThresholdSchedule values", "7"))
@example(("ThresholdSchedule values", None))
@example(("SearchInstance prices", "a"))
@example(("SearchInstance prices", [7.0]))
@example(("PriceSeries prices", "1.5"))
@example(("PriceSeries prices", None))
@example(("sliding_windows series", [6.0, 7.0]))
@example(("scale_theta series", [6.0, 7.0]))
@example(("run_sweep series", [6.0, 7.0]))
@example(("adjust_error stream", None))
@example(("evaluate_windows stream", None))
@example(("run_learning stream", [6.0]))
@example(("interval_ratios schedule", (6.0,)))
@example(("prediction_ratio schedule", None))
@example(("run_ota schedule", (6.0,)))
@example(("run_ota instance", (6.0,)))
@example(("offline_opt instance", [6.0, 7.0]))
def test_wrong_typed_arguments_raise_invalid_input(call):
    name, value = call
    with pytest.raises(InvalidInputError):
        ENTRIES[name][1](value)


# --------------------------------------------------------------------------
# third region: numbers of other types

SERIES = gen_synthetic_series(num_samples=600, seed=3)
STREAM = sliding_windows(SERIES, 100, 50, 3, MAX)
SCHEDULE = design(20.0, 0.5, BAND, 10, MAX).schedule


def sweep(rho=0.5, level=1.0, k=3, mult=1.0, workers=1):
    return run_sweep(SERIES, (SweepCell(rho, level, k, mult),), MAX, 7, 100, 50, workers)


def stream_learned(horizon=5, k=1):
    stream = WindowStream(np.linspace(6.0, 15.0, 10), np.array([0, 5]), horizon, k, BAND,
                          np.array([7.0, 8.0]), MAX)
    return stream.horizon, stream.k, run_learning(stream, 3)


# each public entry with one number left open: whether it is real or an
# integer, what it may be, and the call
NUMBERS = {
    "design prediction": ("real", st.floats(5.0, 50.0), lambda x: design(x, 0.5, BAND, 10, MIN)),
    "design confidence": ("real", st.floats(0.0, 1.0), lambda x: design(20.0, x, BAND, 10, MAX)),
    "design k": ("integer", st.integers(1, 40), lambda x: design(20.0, 0.5, BAND, x, MAX)),
    "design band": ("real", st.floats(1.0, 20.0),
                    lambda x: design(20.0, 0.5, PriceBounds(x, 50.0), 10, MAX)),
    "target_point confidence": ("real", st.floats(0.0, 1.0), lambda x: target_point(x, SPEC)),
    "lower_bound gamma": ("real", st.floats(SPEC.cr_star, SPEC.theta),
                          lambda x: lower_bound(x, SPEC)),
    "frontier_curve points": ("integer", st.integers(2, 6), lambda x: frontier_curve(SPEC, x)),
    "FrontierSpec k": ("integer", st.integers(1, 40), lambda x: FrontierSpec(BAND, x, MIN)),
    "solve_cr k": ("integer", st.integers(1, 40), lambda x: solve_cr(BAND, x, MAX)),
    "worst_case_thresholds k": ("integer", st.integers(1, 40),
                                lambda x: worst_case_thresholds(BAND, x, MIN)),
    "PriceBounds p_max": ("real", st.floats(5.0, 500.0), lambda x: PriceBounds(5.0, x)),
    "ParetoPoint eta": ("real", st.floats(1.0, 3.0), lambda x: ParetoPoint(0.5, x, 3.0)),
    "prediction_ratio prediction": ("real", st.floats(5.0, 50.0),
                                    lambda x: prediction_ratio(SCHEDULE, x)),
    "SearchInstance k": ("integer", st.integers(1, 4), lambda x: offline_opt(
        SearchInstance((6.0, 9.0, 7.0, 8.0), x, BAND), MIN)),
    "WindowStream horizon": ("integer", st.integers(1, 5), lambda x: stream_learned(horizon=x)),
    "WindowStream k": ("integer", st.integers(1, 5), lambda x: stream_learned(k=x)),
    "sliding_windows window_len": ("integer", st.integers(60, 300),
                                   lambda x: sliding_windows(SERIES, x, 50, 3, MIN)),
    "sliding_windows stride": ("integer", st.integers(1, 300),
                               lambda x: sliding_windows(SERIES, 100, x, 3, MIN)),
    "sliding_windows k": ("integer", st.integers(1, 100),
                          lambda x: sliding_windows(SERIES, 100, 50, x, MIN)),
    "adjust_error level": ("real", st.floats(0.0, 1.0), lambda x: adjust_error(STREAM, x)),
    "scale_theta multiplier": ("real", st.floats(1.0, 4.0), lambda x: scale_theta(SERIES, x)),
    "gen_synthetic_series num_samples": ("integer", st.integers(1, 300),
                                         lambda x: gen_synthetic_series(x, 3)),
    "gen_synthetic_series seed": ("integer", st.integers(0, 2**31 - 1),
                                  lambda x: gen_synthetic_series(50, x)),
    "run_learning seed": ("integer", st.integers(0, 1000), lambda x: run_learning(STREAM, x)),
    "evaluate_windows seed": ("integer", st.integers(0, 1000),
                              lambda x: evaluate_windows(STREAM, x)),
    "run_sweep workers": ("integer", st.just(1), lambda x: sweep(workers=x)),
    "SweepCell rho": ("real", st.floats(0.0, 1.0), lambda x: sweep(rho=x)),
    "SweepCell error level": ("real", st.floats(0.0, 1.0), lambda x: sweep(level=x)),
    "SweepCell k": ("integer", st.integers(1, 5), lambda x: sweep(k=x)),
    "SweepCell theta multiplier": ("real", st.floats(1.0, 3.0), lambda x: sweep(mult=x)),
    "SearchInstance price": ("real", st.floats(5.0, 50.0),
                             lambda x: SearchInstance((6.0, x), 1, BAND)),
    "PriceSeries price": ("real", st.floats(0.5, 50.0), lambda x: PriceSeries((6.0, x)).array),
    "WindowStream prediction": ("real", st.floats(5.0, 50.0), lambda x: WindowStream(
        np.array([6.0, 7.0]), np.array([0]), 2, 1, BAND, [x], MAX)),
}

# other types of a number, each with the Python number of its value
OTHER = {
    "real": (np.float32, np.float16, np.float64, np.array, lambda x: np.array(x, np.float32),
             lambda x: np.int64(round(x)), fractions.Fraction),
    "integer": (np.int64, np.int32, np.uint64, np.intp, np.array),
}
PYTHON = {"real": float, "integer": int}


def exactly(value):
    """The value's bits and types, nested values in turn."""
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(exactly(getattr(value, field.name))
                                           for field in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(exactly, value))
    if isinstance(value, dict):
        return "dict", tuple((key, exactly(item)) for key, item in value.items())
    return type(value).__name__, value


def outcome(call, value):
    """What a call returns, exactly, or the class of its error."""
    try:
        return exactly(call(value))
    except KSearchError as exc:
        return type(exc).__name__


@st.composite
def other_numbers(draw):
    """(entry, number, converter): a public entry, a number for its open
    argument and one of its other types."""
    name = draw(st.sampled_from(sorted(NUMBERS)))
    what, numbers, _ = NUMBERS[name]
    return name, draw(numbers), draw(st.sampled_from(OTHER[what]))


@settings(max_examples=150, deadline=None)
@given(other_numbers())
# each computed in float32, or rejected, before numbers were converted at the entries
@example(("design prediction", 20.0, np.float32))
@example(("lower_bound gamma", 3.0, np.float32))
@example(("target_point confidence", 0.5, np.float32))
@example(("design band", 5.0, np.array))
@example(("design k", 10, np.int64))
@example(("sliding_windows window_len", 200, np.int64))
@example(("adjust_error level", 0.5, np.float32))
@example(("scale_theta multiplier", 1.5, np.float32))
@example(("SweepCell rho", 0.3, np.float32))
# held by numpy as objects, which were rejected before each became a float
@example(("SearchInstance price", 6.5, fractions.Fraction))
@example(("PriceSeries price", 0.1, fractions.Fraction))
@example(("WindowStream prediction", 7.3, fractions.Fraction))
def test_other_numbers_give_what_the_python_number_gives(case):
    name, number, convert = case
    what, _, call = NUMBERS[name]
    other = convert(number)
    assert outcome(call, other) == outcome(call, PYTHON[what](other))


def test_float32_numbers_compute_in_float64():
    assert lower_bound(np.float32(3.0), SPEC) == 1.3983655344287382
    assert target_point(np.float32(0.5), SPEC) == target_point(0.5, SPEC)
    assert type(target_point(np.float32(0.5), SPEC).gamma) is float


# --------------------------------------------------------------------------
# fourth region: a confidence, error level or rho outside [0, 1]

UNIT = {
    "design confidence": lambda x: design(20.0, x, BAND, 10, MAX),
    "target_point confidence": lambda x: target_point(x, SPEC),
    "ParetoPoint confidence": lambda x: ParetoPoint(x, 1.0, 2.0),
    "adjust_error level": lambda x: adjust_error(STREAM, x),
    "SweepCell rho": lambda x: SweepCell(x, 1.0, 3, 1.0),
    "run_sweep error level": lambda x: sweep(level=x),
}
DESIGN_CACHES = (augmented._frames, augmented._frontier, augmented._grid_frame)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(UNIT)),
       st.floats(allow_nan=True).filter(lambda x: not 0.0 <= x <= 1.0),
       st.sampled_from([float, np.float64, np.array]))
@example("design confidence", 1.5, float)
@example("design confidence", math.nan, float)
@example("target_point confidence", 1.5, float)
@example("ParetoPoint confidence", 1.5, float)
@example("adjust_error level", -0.5, float)
@example("SweepCell rho", math.nan, float)
@example("run_sweep error level", 1.5, float)
def test_values_outside_the_unit_interval_raise_domain_error(name, value, convert):
    before = [cache.cache_info() for cache in DESIGN_CACHES]
    with pytest.raises(DomainError, match=r" must lie in \[0, 1\], got "):
        UNIT[name](convert(value))
    assert [cache.cache_info() for cache in DESIGN_CACHES] == before
