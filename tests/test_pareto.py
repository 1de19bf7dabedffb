"""Consistency-robustness frontier: integer crossings, bounds, lambda targets."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ksearch import (
    DomainError,
    FrontierSpec,
    InvalidInputError,
    ParetoPoint,
    PriceBounds,
    ProblemKind,
    frontier_curve,
    lower_bound,
    solve_cr,
    target_point,
)
from ksearch.pareto import _sweep_count
from ksearch.augmented import prediction_ratio
from oracle import design_for_target, lower_bound_reference

THETA_K_GRID = [
    (theta, k)
    for theta in (2.0, 10.0, 83.092)
    for k in (1, 5, 20, 100)
]


def specs_for(theta: float, k: int):
    b = PriceBounds(1.0, theta)
    return (
        FrontierSpec(b, k, ProblemKind.MAX),
        FrontierSpec(b, k, ProblemKind.MIN),
    )


# --------------------------------------------------------------------------
# scan oracles: walk the candidate integers and apply the defining
# threshold-value condition directly


def xi_scan(gamma: float, theta: float, k: int) -> int:
    for xi in range(0, k + 1):
        if (gamma - 1.0) * (1.0 + gamma / k) ** xi >= theta - 1.0:
            return xi
    return k


def zeta_scan(gamma: float, theta: float, k: int) -> int:
    for zeta in range(0, k + 1):
        if (1.0 - 1.0 / gamma) * (1.0 + 1.0 / (gamma * k)) ** zeta >= 1.0 - 1.0 / theta:
            return zeta
    return k


def test_anchor_values():
    smax, smin = specs_for(10.0, 20)
    assert _sweep_count(2.63, smax) == 14
    gamma_val = lower_bound(2.63, smax)
    assert 1.51 <= gamma_val <= 1.53
    assert gamma_val == pytest.approx(1.5209556551699634, abs=1e-12)
    assert _sweep_count(5.0, smin) == 12
    assert lower_bound(5.0, smin) == pytest.approx(1.326998794721209, abs=1e-12)


def test_min_bound_uses_achievable_crossing():
    """The min bound evaluates at the ceiling count of forced reserve values.

    Evaluating at the floor returns a strictly smaller number that no
    gamma-robust schedule can attain at the lower boundary prediction.
    """
    _, smin = specs_for(10.0, 20)
    theta, k, gamma = 10.0, 20, 5.0
    raw = math.log((theta - 1.0) / (theta - theta / gamma)) / math.log1p(1.0 / (gamma * k))
    floor_zeta = math.floor(raw)
    assert floor_zeta < _sweep_count(gamma, smin)  # the crossing is not integral
    floor_value = theta * (
        gamma - (gamma - 1.0) * (1.0 + 1.0 / (gamma * k)) ** floor_zeta
    ) - (theta - 1.0) * (1.0 - floor_zeta / k)
    assert lower_bound(gamma, smin) > floor_value


@pytest.mark.parametrize("theta,k", THETA_K_GRID)
def test_endpoint_identities(theta, k):
    smax, smin = specs_for(theta, k)
    assert lower_bound(smax.cr_star, smax) == pytest.approx(smax.cr_star, abs=1e-8)
    assert lower_bound(theta, smax) == pytest.approx(1.0, abs=1e-8)
    assert lower_bound(smin.cr_star, smin) == pytest.approx(smin.cr_star, abs=1e-8)
    assert lower_bound(theta, smin) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("theta,k", THETA_K_GRID)
def test_crossings_match_scan_oracle(theta, k):
    smax, smin = specs_for(theta, k)
    for gamma in np.linspace(smax.cr_star, theta, 37):
        gamma = float(gamma)
        raw = math.log((theta - 1.0) / (gamma - 1.0)) / math.log1p(gamma / k)
        if abs(raw - round(raw)) < 1e-8:
            continue  # skip knife-edge crossings where float noise decides
        assert _sweep_count(gamma, smax) == xi_scan(gamma, theta, k)
    for gamma in np.linspace(smin.cr_star, theta, 37):
        gamma = float(gamma)
        raw = math.log((theta - 1.0) / (theta - theta / gamma)) / math.log1p(
            1.0 / (gamma * k)
        )
        if abs(raw - round(raw)) < 1e-8:
            continue
        assert _sweep_count(gamma, smin) == zeta_scan(gamma, theta, k)


@pytest.mark.parametrize("theta,k", THETA_K_GRID)
def test_bounds_stay_between_one_and_cr_star(theta, k):
    smax, smin = specs_for(theta, k)
    for gamma in np.linspace(smax.cr_star, theta, 61):
        v = lower_bound(float(gamma), smax)
        assert 1.0 - 1e-12 <= v <= smax.cr_star + 1e-12
    for gamma in np.linspace(smin.cr_star, theta, 61):
        v = lower_bound(float(gamma), smin)
        assert 1.0 - 1e-12 <= v <= smin.cr_star + 1e-12


@st.composite
def frontier_points(draw):
    """(spec, gamma): max-search over theta up to 1e4 and k up to 1,000,
    min-search over theta up to 30 and k up to 100 (beyond it min-search's
    float cr* drifts, ROADMAP item 14), gamma anywhere in [cr*, theta]."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    top, most = (4.0, 3.0) if kind is ProblemKind.MAX else (math.log10(30.0), 2.0)
    theta = 10.0 ** draw(st.floats(0.0, top))
    k = round(10.0 ** draw(st.floats(0.0, most)))
    p_min = draw(st.floats(1e-2, 1e2))
    spec = FrontierSpec(PriceBounds(p_min, p_min * theta), k, kind)
    return spec, spec.cr_star + draw(st.floats(0.0, 1.0)) * (spec.theta - spec.cr_star)


def _corner(kind, theta, k, share):
    spec = FrontierSpec(PriceBounds(1.0, theta), k, kind)
    return spec, spec.cr_star + share * (spec.theta - spec.cr_star)


@settings(max_examples=200, deadline=None)
@given(frontier_points())
@example(_corner(ProblemKind.MAX, 1e4, 1000, 0.5))
@example(_corner(ProblemKind.MAX, 1e4, 1000, 0.0))
@example(_corner(ProblemKind.MIN, 30.0, 100, 0.5))
@example(_corner(ProblemKind.MIN, 30.0, 100, 1.0))
def test_lower_bound_is_within_1e_12_of_the_exact_one(point):
    """The float Gamma or Lambda against its 60-digit value at the same
    sweep count, unclamped: ``lower_bound``'s clamp to [1, cr*] only takes
    off float noise at the ends of [cr*, theta]."""
    spec, gamma = point
    exact = lower_bound_reference(gamma, spec)
    assert abs(decimal.Decimal(lower_bound(gamma, spec)) - exact) <= decimal.Decimal("1e-12") * exact


def test_min_bound_achievable_at_lower_boundary():
    """A schedule meeting (eta, gamma) exists with P = p_min for every gamma."""
    b = PriceBounds(5.0, 50.0)
    smin = FrontierSpec(b, 20, ProblemKind.MIN)
    for gamma in np.linspace(smin.cr_star, 10.0, 25):
        gamma = float(gamma)
        eta = lower_bound(gamma, smin)
        design = design_for_target(
            5.0, ParetoPoint(0.5, eta, gamma), b, 20, ProblemKind.MIN
        )
        assert prediction_ratio(design.schedule, 5.0) <= eta + 1e-9


def test_gamma_domain_errors_and_snapping():
    smax, smin = specs_for(10.0, 20)
    with pytest.raises(DomainError):
        lower_bound(smax.cr_star - 0.01, smax)
    with pytest.raises(DomainError):
        lower_bound(10.5, smax)
    with pytest.raises(DomainError):
        _sweep_count(1.0, smin)
    # float-noise inputs at the domain edges snap instead of raising
    assert lower_bound(smax.cr_star * (1.0 - 1e-12), smax) == pytest.approx(
        smax.cr_star, abs=1e-8
    )
    assert lower_bound(10.0 * (1.0 + 1e-13), smin) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_nan_gamma_is_a_domain_error(kind):
    spec = FrontierSpec(PriceBounds(5.0, 50.0), 10, kind)
    with pytest.raises(DomainError, match="^gamma=nan outside the frontier domain"):
        lower_bound(math.nan, spec)


def test_target_point_endpoints_and_domain():
    smax, _ = specs_for(10.0, 20)
    full_trust = target_point(0.0, smax)
    assert full_trust.gamma == pytest.approx(10.0, abs=1e-12)
    assert full_trust.eta == pytest.approx(1.0, abs=1e-9)
    no_trust = target_point(1.0, smax)
    assert no_trust.gamma == pytest.approx(smax.cr_star, abs=1e-12)
    assert no_trust.eta == pytest.approx(smax.cr_star, abs=1e-8)
    for bad in (-0.01, 1.01, float("nan")):
        with pytest.raises(DomainError):
            target_point(bad, smax)


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_monotone_tradeoff_on_lambda_grid(kind):
    spec = FrontierSpec(PriceBounds(1.0, 10.0), 20, kind)
    points = [target_point(float(lam), spec) for lam in np.linspace(0.0, 1.0, 41)]
    gammas = [p.gamma for p in points]
    etas = [p.eta for p in points]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(etas, etas[1:]))
    assert all(p.eta <= p.gamma + 1e-9 for p in points)


def test_frontier_curve_shape():
    smax, _ = specs_for(10.0, 20)
    curve = frontier_curve(smax, 11)
    assert len(curve) == 11
    # first point is the no-trust corner (cr*, cr*), last the full-trust (1, theta)
    lams = [p.lam for p in curve]
    assert lams == sorted(lams, reverse=True)
    assert curve[0].eta == pytest.approx(smax.cr_star, abs=1e-8)
    assert curve[0].gamma == pytest.approx(smax.cr_star, abs=1e-12)
    assert curve[-1].eta == pytest.approx(1.0, abs=1e-9)
    assert curve[-1].gamma == pytest.approx(10.0, abs=1e-12)
    two = frontier_curve(smax, 2)
    assert two[0].eta == pytest.approx(smax.cr_star, abs=1e-8)
    assert two[-1].gamma == pytest.approx(10.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        frontier_curve(smax, 1)


def test_k_one_crossing_is_always_one():
    smax, _ = specs_for(10.0, 1)
    for gamma in np.linspace(smax.cr_star + 1e-6, 10.0 - 1e-6, 51):
        assert _sweep_count(float(gamma), smax) == 1


def test_large_k_crossing_asymptotics():
    theta, k = 10.0, 10**4
    smax, _ = specs_for(theta, k)
    for gamma in (4.0, 5.5, 7.0):
        xi = _sweep_count(gamma, smax)
        limit = math.log((theta - 1.0) / (gamma - 1.0)) / gamma
        assert abs(xi / k - limit) <= 10.0 / k


def test_spec_solves_its_cr_star():
    b = PriceBounds(1.0, 10.0)
    assert FrontierSpec(b, 20, ProblemKind.MAX).cr_star == solve_cr(b, 20, ProblemKind.MAX)
    assert FrontierSpec(b, 20, ProblemKind.MIN).cr_star == solve_cr(b, 20, ProblemKind.MIN)
    with pytest.raises(InvalidInputError):
        FrontierSpec(b, 0, ProblemKind.MAX)


@settings(max_examples=50, deadline=None)
@given(
    theta=st.floats(min_value=1.01, max_value=120.0),
    k=st.integers(min_value=1, max_value=60),
    lam=st.floats(min_value=0.0, max_value=1.0),
    kind=st.sampled_from(list(ProblemKind)),
)
def test_target_point_always_valid(theta, k, lam, kind):
    spec = FrontierSpec(PriceBounds(2.0, 2.0 * theta), k, kind)
    point = target_point(lam, spec)
    assert spec.cr_star - 1e-9 <= point.gamma <= theta + 1e-9
    assert 1.0 - 1e-9 <= point.eta <= point.gamma + 1e-9
    assert point.lam == lam
