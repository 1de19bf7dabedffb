"""Optimal worst-case schedules for k-max and k-min search.

The best possible competitive ratio cr* of either kind solves one balance,

    spread(cr) * growth(cr, k)^k = spread(theta),

with ``ProblemKind.spread`` and ``ProblemKind.growth``: for max-search
(alpha - 1)(1 + alpha/k)^k = theta - 1, for min-search
(1 - 1/phi)(1 + 1/(k*phi))^k = 1 - 1/theta (Lorenz, Panagiotou and
Steger, Algorithmica 2009).  Its left side strictly increases in cr on
(1, theta), so bracketed bisection is exact enough; where max-search's
power overflows, far above the root, the balance reads inf.
``solve_cr`` solves it, and ``worst_case_thresholds`` builds the matching
schedule, which balances the per-interval worst-case ratio to exactly cr
on every one of the k+1 price intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PriceBounds, ProblemKind, ThresholdSchedule, _instance, _integer
from .errors import ConstructionError

_BISECT_ITERS = 200
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class WorstCaseSolution:
    """Optimal competitive ratio together with the schedule that attains it."""

    cr: float
    schedule: ThresholdSchedule


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
    _instance("kind", kind, ProblemKind)
    k = _integer("k", k, 1)
    _instance("bounds", bounds, PriceBounds)
    theta = bounds.theta
    if theta == 1.0:
        return 1.0
    is_max, target = kind.is_max, kind.spread(theta)

    def f(x: float) -> float:
        # the balance, with kind.spread(x) and kind.growth(x, k) inline: a
        # method call per evaluation nearly doubles a cold solve.  Unlike the
        # ratio form, this product form's slope stays bounded as theta -> 1,
        # so the residual check is meaningful over the whole domain
        spread = x - 1.0 if is_max else 1.0 - 1.0 / x
        growth = 1.0 + x / k if is_max else 1.0 + 1.0 / (x * k)
        try:
            return spread * growth**k - target
        except OverflowError:  # max-search only, far above the root: the sign is what counts
            return math.inf

    root = _root_above_one(f, theta)
    residual = abs(f(root))
    if not residual < _RESIDUAL_TOL * max(1.0, target):
        name = "alpha*" if is_max else "phi*"
        raise ConstructionError(f"{name}={root} leaves balance residual {residual}")
    return root


def worst_case_thresholds(bounds: PriceBounds, k: int, kind: ProblemKind) -> WorstCaseSolution:
    """Schedule whose k+1 per-interval worst-case ratios all equal cr."""
    k = _integer("k", k, 1)
    cr = solve_cr(bounds, k, kind)
    # thresholds grow away from the near end; min-search's negative lead
    # rounds exactly like the subtraction 1 - (1 - 1/cr) * growth**n
    near, lead, growth = kind.near(bounds), kind.sign * kind.spread(cr), kind.growth(cr, k)
    values = [bounds.clip(near * (1.0 + lead * growth ** (i - 1))) for i in range(1, k + 1)]
    schedule = ThresholdSchedule(kind, tuple(values), bounds)
    return WorstCaseSolution(cr, schedule)

