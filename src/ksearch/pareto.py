"""Consistency-robustness frontiers and the confidence-to-target mapping.

For k-max search no deterministic algorithm with robustness gamma can have
consistency better than

    Gamma(gamma) = theta / ([1 + (gamma-1)(1+gamma/k)^xi]/gamma
                            + (theta-1)(1 - xi/k)),

where xi = ceil(ln((theta-1)/(gamma-1)) / ln(1+gamma/k)) counts how many of
the k intervals an adversary can sweep before the robustness budget is
exhausted.  The k-min mirror is

    Lambda(gamma) = theta[gamma - (gamma-1)(1+1/(gamma k))^zeta]
                    - (theta-1)(1 - zeta/k),

with zeta the ceiling count of the reserve thresholds a gamma-robust
min-search schedule must keep above p_min.  ``lower_bound`` evaluates
Gamma or Lambda, by the spec's kind, at its ceiling count.  A confidence
lam in [0,1] is mapped linearly onto gamma in [cr*, theta] and the
frontier then fixes eta; lam=1 recovers the worst-case optimum (cr*, cr*),
lam=0 full trust (1, theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import ParetoPoint, PriceBounds, ProblemKind, _integer, _real, _unit
from .errors import DomainError
from .worstcase import solve_cr

# integer cutoffs sit at exact balancing identities where the float log
# ratio lands within an ulp of an integer; nudge before rounding so the
# endpoint identities Gamma(alpha*)=alpha* and Lambda(phi*)=phi* are exact
# Absorbs float noise when a crossing is analytically integral (worst case
# ~1e-13 at k=1e4) without swallowing genuine sub-1e-9 fractional parts,
# which occur when gamma sits within float distance of the domain ends.
_CUT_EPS = 1e-11


@dataclass(frozen=True)
class FrontierSpec:
    """Frozen parameters of one frontier: bounds, budget, kind, and the solved cr*."""

    bounds: PriceBounds
    k: int
    kind: ProblemKind
    cr_star: float = field(init=False)

    def __post_init__(self):
        # solve_cr checks the band and the kind
        object.__setattr__(self, "k", _integer("k", self.k, 1))
        object.__setattr__(self, "cr_star", solve_cr(self.bounds, self.k, self.kind))

    @property
    def theta(self) -> float:
        return self.bounds.theta


def _checked_gamma(gamma: float, spec: FrontierSpec) -> float:
    """Validate gamma against [cr*, theta] and snap float fuzz onto it."""
    gamma = _real("gamma", gamma)
    tol = 1e-9 * max(1.0, spec.theta)
    if not spec.cr_star - tol <= gamma <= spec.theta + tol:  # False for NaN too
        raise DomainError(
            f"gamma={gamma} outside the frontier domain [{spec.cr_star}, {spec.theta}]"
        )
    return min(max(gamma, spec.cr_star), spec.theta)


def _sweep_count(gamma: float, spec: FrontierSpec) -> int:
    """The ceiling count xi* (max) or zeta* (min) at robustness gamma.

    xi* counts the intervals the max-search adversary can sweep, zeta* the
    reserve thresholds a gamma-robust min-search schedule keeps above p_min.
    Both are the ceiling of a log ratio.  The floor form under-counts by one
    whenever the crossing is not exactly integral, and for min-search the
    resulting consistency value is unattainable: with gamma < theta the
    first threshold alone already sits at p_max/gamma > p_min.
    """
    gamma = _checked_gamma(gamma, spec)
    theta, k = spec.theta, spec.k
    if theta == 1.0 or gamma >= theta:
        return 0
    swept = gamma - 1.0 if spec.kind.is_max else theta - theta / gamma
    raw = math.log((theta - 1.0) / swept) / spec.kind.log_growth(gamma, k)
    return min(k, max(0, math.ceil(raw - _CUT_EPS)))


def lower_bound(gamma: float, spec: FrontierSpec) -> float:
    """Best consistency any gamma-robust deterministic algorithm can reach: Gamma or Lambda.

    Evaluating at the ceiling count makes the bound both valid and, for
    min-search, achieved exactly by the case-VI construction.
    """
    gamma = _checked_gamma(gamma, spec)
    theta, k = spec.theta, spec.k
    if theta == 1.0:
        return 1.0
    count = _sweep_count(gamma, spec)
    if spec.kind.is_max:
        swept = (1.0 + (gamma - 1.0) * spec.kind.growth(gamma, k) ** count) / gamma
        value = theta / (swept + (theta - 1.0) * (1.0 - count / k))
    else:
        # gamma - (gamma-1)*(1+1/(gamma*k))**zeta rewritten so the near-total
        # cancellation between the two terms (their difference can be ~1/gamma
        # of either operand) happens between exactly-computed quantities;
        # expm1/log1p keep the small factor at full precision.
        growth = math.expm1(count * spec.kind.log_growth(gamma, k))
        value = theta * (1.0 - (gamma - 1.0) * growth) - (theta - 1.0) * (1.0 - count / k)
    return min(max(value, 1.0), spec.cr_star)


def target_point(lam: float, spec: FrontierSpec) -> ParetoPoint:
    """Map a confidence lam onto its Pareto-optimal (eta, gamma) target."""
    lam = _unit("confidence", lam)
    cr, theta = spec.cr_star, spec.theta
    gamma = cr + (1.0 - lam) * (theta - cr)
    gamma = min(max(gamma, cr), theta)
    eta = lower_bound(gamma, spec)
    eta = min(max(eta, 1.0), gamma)
    return ParetoPoint(lam, eta, gamma)


def frontier_curve(spec: FrontierSpec, num_points: int) -> tuple[ParetoPoint, ...]:
    """target_point on a uniform lam grid from 1 (worst-case) down to 0 (full trust)."""
    count = _integer("num_points", num_points, 2)
    steps = count - 1
    return tuple(target_point(1.0 - i / steps, spec) for i in range(count))
