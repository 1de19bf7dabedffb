"""The paper's two adversaries, as instance generators for the test suite.

* ``gen_p_instance`` builds the discretized "rise (or fall) to p then
  revert" ladder that realizes the per-interval worst case;
* ``gen_worst_case_sequence`` builds the threshold-indexed sequence on
  which a given schedule realizes one of its interval ratios.

The acceptance suite and the learner tests replay designs on the ladder;
replaying a schedule on its worst-case sequences checks ``interval_ratios``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ksearch import (
    DomainError,
    InvalidInputError,
    PriceBounds,
    ProblemKind,
    SearchInstance,
    ThresholdSchedule,
)


@dataclass(frozen=True)
class PInstanceSpec:
    """Parameters of a single-extreme adversarial ladder instance.

    The instance walks the price from the boundary to ``p`` in ``step``
    increments, holds each level for k arrivals, then reverts to the
    boundary for k arrivals (drop to p_min for max-search, spike to p_max
    for min-search).
    """

    kind: ProblemKind
    p: float
    bounds: PriceBounds
    k: int
    step: float | None = None  # None -> (p_max - p_min) / 1000

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise InvalidInputError(f"budget k must be a positive integer, got {self.k}")
        if not (math.isfinite(self.p) and self.bounds.contains(self.p)):
            raise InvalidInputError(
                f"target price {self.p} outside bounds "
                f"[{self.bounds.p_min}, {self.bounds.p_max}]"
            )
        if self.step is None:
            object.__setattr__(
                self, "step", (self.bounds.p_max - self.bounds.p_min) / 1000.0
            )
        if not (isinstance(self.step, (int, float)) and self.step > 0 and math.isfinite(self.step)):
            raise InvalidInputError(f"step must be a positive price, got {self.step}")
        # at least two ladder levels must exist whenever the walk is nontrivial
        gap = (
            self.p - self.bounds.p_min
            if self.kind.is_max
            else self.bounds.p_max - self.p
        )
        if gap > 0 and self.step > gap:
            raise InvalidInputError(
                f"step {self.step} too coarse: only one price level fits in a "
                f"gap of {gap}"
            )


def _ladder(start: float, target: float, step: float, ascending: bool) -> list[float]:
    """Evenly stepped levels from start towards target, always ending at target."""
    gap = abs(target - start)
    n = int(math.floor(gap / step + 1e-9))
    sign = 1.0 if ascending else -1.0
    levels = [start + sign * j * step for j in range(n + 1)]
    levels[-1] = min(levels[-1], target) if ascending else max(levels[-1], target)
    if abs(target - levels[-1]) > 1e-12 * max(1.0, abs(target)):
        levels.append(target)
    else:
        # snap float fuzz so the walk attains the target exactly: thresholds
        # placed at the target must fire on the target level
        levels[-1] = target
    return levels


def gen_p_instance(spec: PInstanceSpec) -> SearchInstance:
    """Discretized single-extreme adversarial instance.

    Max-search: ascending ladder p_min, p_min+step, ..., p, each level
    repeated k times, then k copies of p_min.  Min-search mirror: descending
    ladder from p_max to p, then k copies of p_max.  The clairvoyant optimum
    is k*p by construction (the extreme level is held for exactly k steps).
    """
    bounds, k = spec.bounds, spec.k
    if spec.kind.is_max:
        levels = _ladder(bounds.p_min, spec.p, spec.step, ascending=True)
        tail = bounds.p_min
    else:
        levels = _ladder(bounds.p_max, spec.p, spec.step, ascending=False)
        tail = bounds.p_max
    prices = [level for level in levels for _ in range(k)] + [tail] * k
    return SearchInstance(tuple(prices), k, bounds)


def gen_worst_case_sequence(schedule: ThresholdSchedule, i: int) -> SearchInstance:
    """Sequence on which the schedule realizes its interval-(i+1) ratio.

    The first i thresholds arrive verbatim (each is selected, equality
    selects), then k copies of the next threshold perturbed by
    epsilon = 1e-6 * p_min so they are all refused, then k boundary prices
    that only the compulsory rule picks up.  As epsilon -> 0 the empirical
    ratio approaches the interval ratio for interval i+1.  Levels that leave
    [p_min, p_max] are clipped to the boundary.
    """
    bounds = schedule.bounds
    k = schedule.k
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i <= k:
        raise DomainError(f"interval index must be an integer in [0, {k}], got {i}")
    epsilon = 1e-6 * bounds.p_min

    if i < k:
        nxt = schedule.values[i]
    else:  # the far bound
        nxt = bounds.p_max if schedule.kind.is_max else bounds.p_min
    if schedule.kind.is_max:
        level = max(nxt - epsilon, bounds.p_min)
        tail = bounds.p_min
    else:
        level = min(nxt + epsilon, bounds.p_max)
        tail = bounds.p_max
    prices = schedule.values[:i] + (level,) * k + (tail,) * k
    return SearchInstance(prices, k, bounds)
