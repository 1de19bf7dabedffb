"""The library's contract over its documented domain, first region.

Any (kind, band, k, lambda, prediction) gives one of two results: a
schedule or frontier that passes a check written outside the library, or a
typed ``KSearchError``; through the CLI, one of the documented exit codes
with no traceback.  This region draws p_min = 10^U(-2, 2), theta =
10^U(0, 3), k log-uniform in [1, 1000], lambda in [0, 1] (0 and 1 drawn
explicitly) and the prediction log-uniform in the band.  Bands wider than
theta = 10^3 are left out: max-search at k = 1000 overflows there.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shlex

import hypothesis.strategies as st
from hypothesis import example, given, settings

from ksearch import (
    FrontierSpec,
    KSearchError,
    PriceBounds,
    ProblemKind,
    design,
    frontier_curve,
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
