"""Optimal worst-case schedules for k-max and k-min search.

The best possible competitive ratio alpha* (max) solves

    (theta - 1) / (alpha - 1) = (1 + alpha/k)^k,

whose left side strictly decreases and right side strictly increases in
alpha on (1, theta), so bracketed bisection is exact enough.  The k-min
ratio phi* solves (1 - 1/theta) / (1 - 1/phi) = (1 + 1/(k*phi))^k, which is
equivalent to the strictly increasing fixed point
h(phi) = (1 - 1/phi)(1 + 1/(k*phi))^k = 1 - 1/theta.  ``solve_cr`` solves
either balance equation by the same bracketed bisection, and
``worst_case_thresholds`` builds the matching schedule, which balances the
per-interval worst-case ratio to exactly cr on every one of the k+1 price
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PriceBounds, ProblemKind, ThresholdSchedule, _check_kind
from .errors import ConstructionError, InvalidInputError

_BISECT_ITERS = 200
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class WorstCaseSolution:
    """Optimal competitive ratio together with the schedule that attains it."""

    cr: float
    schedule: ThresholdSchedule


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidInputError(f"k must be a positive integer, got {k!r}")


def _bisect(f, lo: float, hi: float) -> float:
    """Root of a sign-changing f on [lo, hi] via plain bisection."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not flo * fhi < 0:
        raise ConstructionError(f"bisection bracket [{lo}, {hi}] does not straddle the root")
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _root_above_one(f, theta: float) -> float:
    """Root on (1, theta] of an increasing f with f(1) < 0."""
    lo = 1.0 + 1e-12
    if f(lo) > 0.0:
        # near-degenerate bands (theta - 1 below a few 1e-12) put the root
        # under 1 + 1e-12, so it is bracketed from 1 instead
        return _bisect(f, 1.0, lo)
    return _bisect(f, lo, theta)


def solve_cr(bounds: PriceBounds, k: int, kind: ProblemKind) -> float:
    """Optimal competitive ratio for the given bounds: alpha* (max) or phi* (min)."""
    _check_kind(kind)
    _check_k(k)
    theta = bounds.theta
    if theta == 1.0:
        return 1.0
    if kind.is_max:

        def f(a: float) -> float:
            # product form of the balance equation; unlike the ratio form its
            # slope stays bounded as theta -> 1, so the residual check is
            # meaningful over the whole domain
            return (a - 1.0) * (1.0 + a / k) ** k - (theta - 1.0)

        name, scale = "alpha*", max(1.0, theta - 1.0)
    else:
        target = 1.0 - 1.0 / theta

        def f(p: float) -> float:
            # strictly increasing in p, so the bracket (1, theta) works directly
            return (1.0 - 1.0 / p) * (1.0 + 1.0 / (k * p)) ** k - target

        name, scale = "phi*", 1.0
    root = _root_above_one(f, theta)
    residual = abs(f(root))
    if not residual < _RESIDUAL_TOL * scale:
        raise ConstructionError(f"{name}={root} leaves balance residual {residual}")
    return root


def worst_case_thresholds(bounds: PriceBounds, k: int, kind: ProblemKind) -> WorstCaseSolution:
    """Schedule whose k+1 per-interval worst-case ratios all equal cr."""
    cr = solve_cr(bounds, k, kind)
    # thresholds grow away from the start sentinel; min-search's negative
    # lead rounds exactly like the subtraction 1 - (1 - 1/cr) * growth**n
    if kind.is_max:
        near, lead, growth = bounds.p_min, cr - 1.0, 1.0 + cr / k
    else:
        near, lead, growth = bounds.p_max, -(1.0 - 1.0 / cr), 1.0 + 1.0 / (k * cr)
    values = [bounds.clip(near * (1.0 + lead * growth ** (i - 1))) for i in range(1, k + 1)]
    schedule = ThresholdSchedule(kind, tuple(values), bounds)
    return WorstCaseSolution(cr, schedule)

