"""The library's contract over its documented domain, in two regions.

Any (kind, band, k, lambda, prediction) gives one of two results: a
schedule or frontier that passes a check written outside the library, or a
typed ``KSearchError``; through the CLI, one of the documented exit codes
with no traceback.  The first region draws p_min = 10^U(-2, 2), theta =
10^U(0, 3), k log-uniform in [1, 1000], lambda in [0, 1] (0 and 1 drawn
explicitly) and the prediction log-uniform in the band.  Bands wider than
theta = 10^3 are left out: max-search at k = 1000 overflows there.  The
second region passes one argument of the wrong type (a lambda, gamma,
price or prediction that is not a real number, a k or point count that is
not an integer, a kind that is not a ``ProblemKind``, a band that is not a
``PriceBounds``) to a public entry, which must raise ``InvalidInputError``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shlex

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from ksearch import (
    FrontierSpec,
    InvalidInputError,
    KSearchError,
    PriceBounds,
    ProblemKind,
    SearchInstance,
    ThresholdSchedule,
    WindowStream,
    design,
    frontier_curve,
    lower_bound,
    solve_cr,
    target_point,
    worst_case_thresholds,
)
from ksearch.cli import main

# the library's guarantee tolerance, with its ulp-scale cushion for sums
_TOL = 1e-9
_CUSHION = 1e-11


@st.composite
def domain_points(draw):
    """(kind, bounds, k, lam, prediction) of the region."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    p_min = 10.0 ** draw(st.floats(-2.0, 2.0))
    theta = 10.0 ** draw(st.floats(0.0, 3.0))
    k = round(10.0 ** draw(st.floats(0.0, 3.0)))
    lam = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    bounds = PriceBounds(p_min, p_min * theta)
    prediction = min(max(p_min * bounds.theta ** draw(st.floats(0.0, 1.0)), bounds.p_min),
                     bounds.p_max)
    return kind, bounds, k, lam, prediction


def interval_ratios(schedule) -> list[float]:
    """Each of the k + 1 price intervals' worst-case ratio, from the
    thresholds alone: an adversary stops prices just short of threshold i,
    so the search banks thresholds 1 .. i - 1 and fills the rest at the
    band's worst price, while the optimum takes k prices at threshold i
    (the band's far end for interval k + 1)."""
    kind, values, bounds, k = schedule.kind, schedule.values, schedule.bounds, schedule.k
    is_max = kind is ProblemKind.MAX
    ends = (*values, bounds.p_max if is_max else bounds.p_min)
    banked = itertools.accumulate(values, initial=0.0)
    worst = bounds.p_min if is_max else bounds.p_max
    ratios = []
    for i, (end, bank) in enumerate(zip(ends, banked)):
        online = bank + (k - i) * worst
        ratios.append(k * end / online if is_max else online / (k * end))
    return ratios


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
        assert all(within(r, solution.cr) for r in interval_ratios(solution.schedule))
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
        assert all(within(r, gamma) for r in interval_ratios(found.schedule))


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
@example(("design confidence", np.array(0.5)))  # the frame cache cannot hash it
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
def test_wrong_typed_arguments_raise_invalid_input(call):
    name, value = call
    with pytest.raises(InvalidInputError):
        ENTRIES[name][1](value)
