"""Fixed-point solvers and worst-case-optimal threshold schedules."""

import decimal
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ksearch import (
    ConstructionError,
    InvalidInputError,
    PriceBounds,
    ProblemKind,
    solve_cr,
    worst_case_thresholds,
)
from ksearch.augmented import interval_ratios
from ksearch.worstcase import _bisect
from oracle import balance_root_reference, solve_cr_reference

GRID = [
    (theta, k)
    for theta in (2.0, 10.0, 83.092)
    for k in (1, 5, 20, 100)
]


def bounds_for(theta: float, p_min: float = 1.0) -> PriceBounds:
    return PriceBounds(p_min, p_min * theta)


# --------------------------------------------------------------------------
# oracles: an independent root-finder on the ratio form of each equation


def alpha_oracle(theta: float, k: int) -> float:
    from scipy.optimize import brentq

    return brentq(
        lambda a: (theta - 1.0) / (a - 1.0) - (1.0 + a / k) ** k,
        1.0 + 1e-12,
        theta,
        xtol=1e-13,
    )


def phi_oracle(theta: float, k: int) -> float:
    from scipy.optimize import brentq

    return brentq(
        lambda p: (1.0 - 1.0 / theta) / (1.0 - 1.0 / p)
        - (1.0 + 1.0 / (k * p)) ** k,
        1.0 + 1e-12,
        theta,
        xtol=1e-13,
    )


def test_alpha_star_anchor_value_and_range():
    value = solve_cr(PriceBounds(1.0, 10.0), 20, ProblemKind.MAX)
    assert 2.15 <= value <= 2.17
    assert value == pytest.approx(2.1586815608633687, abs=1e-10)
    assert value == pytest.approx(alpha_oracle(10.0, 20), abs=1e-9)


def test_phi_star_anchor_value():
    value = solve_cr(PriceBounds(1.0, 10.0), 20, ProblemKind.MIN)
    assert value == pytest.approx(2.5914771297134163, abs=1e-10)
    assert value == pytest.approx(phi_oracle(10.0, 20), abs=1e-9)


def test_k_equal_one_closed_form_sqrt_theta():
    for theta in (2.0, 10.0, 83.092):
        b = bounds_for(theta)
        assert solve_cr(b, 1, ProblemKind.MAX) == pytest.approx(math.sqrt(theta), abs=1e-10)
        assert solve_cr(b, 1, ProblemKind.MIN) == pytest.approx(math.sqrt(theta), abs=1e-10)


@pytest.mark.parametrize("theta,k", GRID)
def test_defining_equation_residuals(theta, k):
    b = bounds_for(theta)
    alpha = solve_cr(b, k, ProblemKind.MAX)
    residual = abs((theta - 1.0) / (alpha - 1.0) - (1.0 + alpha / k) ** k)
    assert residual < 1e-10
    phi = solve_cr(b, k, ProblemKind.MIN)
    residual = abs(
        (1.0 - 1.0 / theta) - (1.0 - 1.0 / phi) * (1.0 + 1.0 / (k * phi)) ** k
    )
    assert residual < 1e-10


@pytest.mark.parametrize("theta,k", GRID)
def test_balancing_identities(theta, k):
    """The optimal schedules equalize every interval ratio at cr*."""
    b = bounds_for(theta, p_min=3.0)
    for kind, cr in (
        (ProblemKind.MAX, solve_cr(b, k, ProblemKind.MAX)),
        (ProblemKind.MIN, solve_cr(b, k, ProblemKind.MIN)),
    ):
        solution = worst_case_thresholds(b, k, kind)
        assert solution.cr == pytest.approx(cr, rel=1e-12)
        for ratio in interval_ratios(solution.schedule):
            assert ratio == pytest.approx(cr, rel=1e-8)


def test_schedule_shape_and_boundary_values():
    b = PriceBounds(5.0, 50.0)
    k = 20
    alpha = solve_cr(b, k, ProblemKind.MAX)
    phi = solve_cr(b, k, ProblemKind.MIN)
    wmax = worst_case_thresholds(b, k, ProblemKind.MAX)
    wmin = worst_case_thresholds(b, k, ProblemKind.MIN)
    # first thresholds come straight from the closed form at i=1
    assert wmax.schedule.values[0] == pytest.approx(alpha * b.p_min, rel=1e-12)
    assert wmin.schedule.values[0] == pytest.approx(b.p_max / phi, rel=1e-12)
    # monotone, within bounds, strictly inside at the far end
    assert wmax.schedule.values[-1] < b.p_max
    assert wmin.schedule.values[-1] > b.p_min
    assert wmax.schedule.kind is ProblemKind.MAX
    assert wmin.schedule.kind is ProblemKind.MIN


def test_degenerate_theta_one():
    b = PriceBounds(7.0, 7.0)
    assert solve_cr(b, 4, ProblemKind.MAX) == 1.0
    assert solve_cr(b, 4, ProblemKind.MIN) == 1.0
    for kind in ProblemKind:
        sol = worst_case_thresholds(b, 4, kind)
        assert sol.cr == 1.0
        assert set(sol.schedule.values) == {7.0}


@pytest.mark.parametrize("excess", [5e-13, 1e-12, 2e-12, 1e-11])
def test_near_degenerate_band_root_above_one(excess):
    # theta - 1 below ~3e-12 puts the root under 1 + 1e-12
    b = PriceBounds(1.0, 1.0 + excess)
    for k in (1, 5, 100):
        for kind in ProblemKind:
            value = solve_cr(b, k, kind)
            assert 1.0 < value <= b.theta


def test_bisect_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(ConstructionError, match="straddle"):
        _bisect(lambda x: x + 1.0, 0.0, 1.0)


def test_monotone_in_theta_and_k():
    ks = [1, 2, 5, 20, 100]
    thetas = [1.5, 2.0, 5.0, 10.0, 50.0]
    for kind in ProblemKind:
        for k in ks:
            vals = [solve_cr(bounds_for(t), k, kind) for t in thetas]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for t in thetas:
            vals = [solve_cr(bounds_for(t), k, kind) for k in ks]
            # more selections help: competitive ratio decreases with k
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_min_search_at_least_as_hard_as_max():
    for theta, k in GRID:
        b = bounds_for(theta)
        assert solve_cr(b, k, ProblemKind.MIN) >= solve_cr(b, k, ProblemKind.MAX) - 1e-12


@pytest.mark.parametrize("bad_k", [0, -3, 2.5, True])
def test_rejects_bad_k(bad_k):
    with pytest.raises(InvalidInputError):
        solve_cr(PriceBounds(1.0, 4.0), bad_k, ProblemKind.MAX)
    with pytest.raises(InvalidInputError):
        solve_cr(PriceBounds(1.0, 4.0), bad_k, ProblemKind.MIN)


def test_solver_speed():
    b = PriceBounds(1.0, 10.0)
    solve_cr(b, 20, ProblemKind.MAX)  # warm any lazy setup
    start = time.perf_counter()
    for _ in range(50):
        solve_cr(b, 20, ProblemKind.MAX)
        solve_cr(b, 20, ProblemKind.MIN)
    per_call = (time.perf_counter() - start) / 100
    assert per_call < 1e-3


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=1.0 + 1e-6, max_value=500.0),
    k=st.integers(min_value=1, max_value=300),
)
def test_solution_always_in_open_bracket(theta, k):
    b = bounds_for(theta)
    for kind in ProblemKind:
        value = solve_cr(b, k, kind)
        assert 1.0 < value < theta or (theta == 1.0 and value == 1.0)
        assert value <= math.sqrt(theta) + 1e-9  # k=1 is the worst case


def _outcome(solve, bounds, k, kind):
    """The root solve finds, or the class of the error it raises."""
    try:
        return solve(bounds, k, kind)
    except Exception as exc:  # the class is what is compared
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(ProblemKind)),
    theta=st.floats(min_value=1.0, max_value=1e4, exclude_min=True),
    k=st.integers(min_value=1, max_value=5000),
    p_min=st.floats(min_value=1e-2, max_value=1e2),
)
# max-search's power overflows here, far above the root, in both solvers
@example(kind=ProblemKind.MAX, theta=1e3, k=3000, p_min=1.0)
def test_solve_cr_is_the_reference_balance(kind, theta, k, p_min):
    """The one balance of ``ProblemKind.spread`` and ``growth`` finds each
    kind's spelled-out root bit for bit, or fails with the same class."""
    bounds = bounds_for(theta, p_min)
    assert _outcome(solve_cr, bounds, k, kind) == _outcome(solve_cr_reference, bounds, k, kind)


@st.composite
def balance_regions(draw):
    """(kind, bounds, k): max-search over theta in [1, 1e6] and k up to
    3,162, min-search over theta up to 30 and k up to 100, the workloads'
    region (beyond it the float min-search root drifts, ROADMAP item 14)."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    top, most = (6.0, 3.5) if kind is ProblemKind.MAX else (math.log10(30.0), 2.0)
    theta = 10.0 ** draw(st.floats(0.0, top))
    k = round(10.0 ** draw(st.floats(0.0, most)))
    return kind, bounds_for(theta, draw(st.floats(1e-2, 1e2))), k


@settings(max_examples=200, deadline=None)
@given(balance_regions())
@example((ProblemKind.MAX, bounds_for(1e6), 3162))
@example((ProblemKind.MAX, bounds_for(10.0), 1))
@example((ProblemKind.MIN, bounds_for(30.0), 100))
@example((ProblemKind.MIN, bounds_for(1.0 + 1e-9), 1))
def test_solve_cr_is_within_1e_12_of_the_true_root(region):
    kind, bounds, k = region
    try:
        root = solve_cr(bounds, k, kind)
    except ConstructionError:  # max-search beyond the solver's domain
        assert kind is ProblemKind.MAX
        return
    true = balance_root_reference(bounds.theta, k, kind)
    assert abs(decimal.Decimal(root) - true) <= decimal.Decimal("1e-12") * true
