"""Core domain types and the threshold-based selection engine.

The online k-search setting: T prices arrive one by one, each in
[p_min, p_max], and the algorithm must pick exactly k of them — maximizing
the total for max-search, minimizing it for min-search.  A deterministic
threshold algorithm keeps a non-decreasing (max) or non-increasing (min)
schedule of k reservation prices and accepts the t-th arrival whenever it
meets the threshold indexed by the number of items already taken.  Once the
number of remaining arrivals equals the remaining budget, selection becomes
compulsory regardless of the schedule.

Three replays share these rules.  ``run_ota`` records every decision and
``ota_total`` returns one run's total; both are the oracles for
``ota_totals``, the batched kernel the learner and the harness use, which
replays a block of windows under many schedules in lockstep and returns
bit-identical totals.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InvalidInputError


class ProblemKind(enum.Enum):
    """Which extreme the searcher is after."""

    MAX = "max"
    MIN = "min"

    @property
    def is_max(self) -> bool:
        return self is ProblemKind.MAX


@dataclass(frozen=True)
class PriceBounds:
    """Known price support [p_min, p_max] with fluctuation ratio theta."""

    p_min: float
    p_max: float

    def __post_init__(self):
        if not (self.p_min > 0 and math.isfinite(self.p_min)):
            raise InvalidInputError(f"p_min must be positive and finite, got {self.p_min}")
        if not (self.p_max >= self.p_min and math.isfinite(self.p_max)):
            raise InvalidInputError(
                f"p_max must satisfy p_max >= p_min > 0, got [{self.p_min}, {self.p_max}]"
            )

    @property
    def theta(self) -> float:
        """Fluctuation ratio p_max / p_min (always derived, never stored)."""
        return self.p_max / self.p_min

    def contains(self, price: float) -> bool:
        return self.p_min <= price <= self.p_max

    def clip(self, price: float) -> float:
        return min(max(price, self.p_min), self.p_max)


@dataclass(frozen=True)
class SearchInstance:
    """A full arrival sequence together with the budget k and its bounds."""

    prices: tuple[float, ...]
    k: int
    bounds: PriceBounds

    def __post_init__(self):
        prices = tuple(map(float, self.prices))
        object.__setattr__(self, "prices", prices)
        if not prices:
            raise InvalidInputError("instance needs at least one price")
        if not (1 <= self.k <= len(prices)):
            raise InvalidInputError(
                f"budget k={self.k} must lie in [1, T={len(prices)}]"
            )
        lo, hi = min(prices), max(prices)
        if lo < self.bounds.p_min or hi > self.bounds.p_max:
            raise InvalidInputError(
                f"prices span [{lo}, {hi}], outside bounds "
                f"[{self.bounds.p_min}, {self.bounds.p_max}]"
            )

    @property
    def horizon(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ThresholdSchedule:
    """k reservation prices, monotone in the direction dictated by the kind.

    Index convention follows the interval analysis: thresholds are 1-based
    ``value_at(1..k)`` with sentinels ``value_at(0)`` / ``value_at(k+1)``
    pinned to the price bounds (p_min and p_max for max-search, swapped for
    min-search).
    """

    kind: ProblemKind
    values: tuple[float, ...]
    bounds: PriceBounds

    def __post_init__(self):
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if not values:
            raise InvalidInputError("schedule needs at least one threshold")
        lo, hi = min(values), max(values)
        if lo < self.bounds.p_min or hi > self.bounds.p_max:
            raise InvalidInputError(
                f"thresholds span [{lo}, {hi}], outside bounds "
                f"[{self.bounds.p_min}, {self.bounds.p_max}]"
            )
        pairs = zip(values, values[1:])
        if self.kind.is_max:
            ok = all(a <= b for a, b in pairs)
        else:
            ok = all(a >= b for a, b in pairs)
        if not ok:
            raise InvalidInputError(f"thresholds not monotone for {self.kind}")

    @property
    def k(self) -> int:
        return len(self.values)

    def value_at(self, i: int) -> float:
        """Threshold i in 1..k, with the conventional sentinels at 0 and k+1."""
        if i == 0:
            return self.bounds.p_min if self.kind.is_max else self.bounds.p_max
        if i == self.k + 1:
            return self.bounds.p_max if self.kind.is_max else self.bounds.p_min
        if not 1 <= i <= self.k:
            raise InvalidInputError(f"threshold index {i} outside [0, {self.k + 1}]")
        return self.values[i - 1]


@dataclass(frozen=True)
class Decision:
    """One step of a run: was the arrival taken, and was it forced?"""

    selected: bool
    price: float
    compulsory: bool


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one algorithm run on one instance."""

    decisions: tuple[Decision, ...]
    total_value: float
    num_selected: int


@dataclass(frozen=True)
class ParetoPoint:
    """A (consistency, robustness) pair indexed by the confidence lam in [0,1]."""

    lam: float
    eta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidInputError(f"confidence must lie in [0,1], got {self.lam}")
        if not (1.0 - 1e-9 <= self.eta <= self.gamma + 1e-9):
            raise InvalidInputError(
                f"need 1 <= eta <= gamma, got eta={self.eta}, gamma={self.gamma}"
            )


def run_ota(schedule: ThresholdSchedule, instance: SearchInstance) -> RunTrace:
    """Run the online threshold algorithm and return the full decision trace.

    At a step where m items are already selected the arrival is taken iff it
    meets threshold m+1 (>= for max-search, <= for min-search; equality
    selects).  The compulsory rule: once the remaining arrivals equal the
    remaining budget, everything left is selected unconditionally.
    """
    if instance.k != schedule.k:
        raise InvalidInputError(
            f"instance budget k={instance.k} != schedule length {schedule.k}"
        )
    if instance.bounds != schedule.bounds:
        raise InvalidInputError("instance and schedule disagree on price bounds")

    is_max = schedule.kind.is_max
    values = schedule.values
    k = schedule.k
    T = instance.horizon
    m = 0
    total = 0.0
    decisions: list[Decision] = []
    for t, price in enumerate(instance.prices):
        forced = (T - t) == (k - m)
        if forced:
            selected = True
        elif m < k:
            selected = price >= values[m] if is_max else price <= values[m]
        else:
            selected = False
        if selected:
            m += 1
            total += price
        decisions.append(Decision(selected, price, forced))
    if m != k:
        raise ConstructionError(
            f"run ended with {m} of {k} selections despite the compulsory rule"
        )
    return RunTrace(tuple(decisions), total, m)


def ota_total(schedule: ThresholdSchedule, prices: np.ndarray) -> tuple[float, int]:
    """Total value and voluntary-selection count of a run, without the trace.

    Equivalent to ``run_ota`` (property-tested) but skips per-step Python
    objects: voluntary selection times are found by jump-scanning for the
    next qualifying price, then the earliest step where the compulsory rule
    fires is located on the resulting selection-count staircase.
    """
    arr = np.asarray(prices, dtype=float)
    vals = np.asarray(schedule.values, dtype=float)
    if not schedule.kind.is_max:
        # min-search is max-search on negated prices/thresholds
        arr, vals = -arr, -vals
    T = arr.shape[0]
    k = vals.shape[0]
    if T < k:
        raise InvalidInputError(f"horizon {T} shorter than budget {k}")

    sel_times: list[int] = []
    t = 0
    for m in range(k):
        if t >= T:
            break
        hits = arr[t:] >= vals[m]
        j = int(hits.argmax())
        if not hits[j]:
            break
        t += j
        sel_times.append(t)
        t += 1

    n_vol = len(sel_times)
    comp_start = -1
    m_before = 0
    for m in range(n_vol + 1):
        tc = T - k + m
        if tc >= T:
            break
        lo = sel_times[m - 1] + 1 if m > 0 else 0
        hi = sel_times[m] if m < n_vol else T - 1
        if lo <= tc <= hi:
            comp_start = tc
            m_before = m
            break

    if comp_start < 0:
        if n_vol != k:
            raise ConstructionError(
                f"replay ended with {n_vol} of {k} selections and no compulsory fill"
            )
        total = float(arr[sel_times].sum())
        voluntary = k
    else:
        total = float(arr[sel_times[:m_before]].sum() + arr[comp_start:].sum())
        voluntary = m_before
    if not schedule.kind.is_max:
        total = -total
    return total, voluntary


def ota_totals(
    thresholds: np.ndarray, prices: np.ndarray, rows: np.ndarray, kind: ProblemKind
) -> tuple[np.ndarray, np.ndarray]:
    """``ota_total`` of many runs at once: run r replays window ``rows[r]``.

    ``thresholds`` is (R, k), one schedule per run, and ``prices`` is (B, T),
    one window per row; both may be nested sequences, which the kernel then
    converts and frees itself.  All runs advance in lockstep through the T
    steps: each step gathers every run's current price and its next
    threshold (slot k holds +inf, so a run stops selecting once it has k
    items).  The start of the compulsory fill follows afterwards from the
    selection times: it fires once a run has passed over T - k prices.
    Totals add the same gathered prices with the same numpy reductions as
    ``ota_total``, one group of runs with equal voluntary counts at a time,
    so every total is bit-identical to ``ota_total`` (property-tested).
    Returns (totals, voluntary counts).
    """
    # converted one at a time, each freed once copied, so that at most one
    # conversion is alive next to the kernel's own arrays
    arr = np.asarray(prices, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"need (B, T) prices, got shape {arr.shape}")
    B, T = arr.shape
    sign = 1.0 if kind.is_max else -1.0  # min-search is max-search negated
    by_step = np.empty((T, B))  # one row per step
    np.multiply(arr.T, sign, out=by_step)
    del arr
    thr = np.asarray(thresholds, dtype=float)
    rows = np.asarray(rows, dtype=np.intp)
    if thr.ndim != 2 or rows.shape != thr.shape[:1]:
        raise InvalidInputError(
            f"need (R, k) thresholds and R rows, got {thr.shape} and {rows.shape}"
        )
    runs, k = thr.shape
    if not 1 <= k <= T:
        raise InvalidInputError(f"budget {k} must lie in [1, horizon {T}]")
    if rows.size and not 0 <= rows.min() <= rows.max() < B:
        raise InvalidInputError(f"run rows must index the {B} windows")
    padded = np.full((runs, k + 1), np.inf)
    np.multiply(thr, sign, out=padded[:, :k])
    del thr
    padded = padded.ravel()
    # pos[r] is the flat slot of run r's next threshold; sel[pos] records the
    # step, and stays put once the step selects and pos moves on
    pos = np.arange(0, runs * (k + 1), k + 1, dtype=np.intp)
    start = pos.copy()
    sel = np.empty(runs * (k + 1), dtype=np.int32)
    price = np.empty(runs)
    bar = np.empty(runs)
    hit = np.empty(runs, dtype=bool)
    for t in range(T):
        by_step[t].take(rows, out=price, mode="clip")  # mode="raise" buffers out=
        padded.take(pos, out=bar, mode="clip")
        np.greater_equal(price, bar, out=hit)
        sel[pos] = t
        pos += hit
    del padded
    voluntary = pos - start
    sel = sel.reshape(runs, k + 1)[:, :k]
    slot = np.arange(k, dtype=np.int32)
    sel[slot >= voluntary[:, None]] = T  # slots never filled
    # selection m happens after sel[m] - m passed-over prices; the fill starts
    # once T - k are passed over, i.e. after the selections made before that
    voluntary = np.count_nonzero(sel - slot < T - k, axis=1)

    totals = np.empty(runs)
    # the counts that occur (np.unique would import numpy.ma, ~0.6 MB)
    for m in np.flatnonzero(np.bincount(voluntary)).tolist():
        group = np.flatnonzero(voluntary == m)
        cols = rows[group][:, None]
        total = by_step[sel[group, :m], cols].sum(axis=1)
        if m < k:
            total += by_step[np.arange(T - k + m, T), cols].sum(axis=1)
        totals[group] = total
    return sign * totals, voluntary


def left_sum(values) -> float:
    """Float sum rounded after each addition, left to right, on any Python
    (the built-in ``sum`` compensates the rounding from Python 3.12 on)."""
    return functools.reduce(operator.add, values, 0.0)


def offline_opt(instance: SearchInstance, kind: ProblemKind) -> float:
    """Clairvoyant optimum: sum of the k largest (max) or smallest (min) prices."""
    # select the k extremes without a full sort, then add them in sorted order
    # (descending for max) so the total matches summing the sorted prices
    prices, k = np.asarray(instance.prices), instance.k
    if kind.is_max:
        chosen = np.partition(prices, prices.size - k)[prices.size - k :]
    else:
        chosen = np.partition(prices, k - 1)[:k]
    return left_sum(sorted(chosen.tolist(), reverse=kind.is_max))
