"""Adversarial, synthetic, and data-driven instance generation.

Three families of inputs feed the simulation harness:

* adversarial constructions — the discretized "rise (or fall) to p then
  revert" ladders that realize the per-interval worst case, and the
  threshold-indexed worst-case sequences used to stress a given schedule;
* experiment transformations — hard-tail injection with probability rho,
  prediction-error dialing, and fluctuation-ratio scaling;
* real or synthetic price series — a CSV ingestion contract plus a seeded
  mean-reverting synthetic series, both cut into overlapping experiment
  windows whose predictions come from the preceding window.

A series holds its prices once, as a read-only array; its windows are row
views of it, and only a hardened window gets an array of its own.

All stochastic operations are pure functions of (inputs, seed) via a
counter-based generator, so every experiment is bit-reproducible.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import PriceBounds, ProblemKind, SearchInstance, ThresholdSchedule
from .errors import DataFormatError, DomainError, InvalidInputError

# canonical windowing parameters: 10-minute sampling, 3-week windows
# advanced by 3 days
SAMPLES_PER_DAY = 144
WINDOW_SAMPLES = 21 * SAMPLES_PER_DAY  # 3024
STRIDE_SAMPLES = 3 * SAMPLES_PER_DAY  # 432
# "five years" of samples for the canonical corpus: 1770 days.  Real
# multi-year feeds have gaps, so the exact count is a convention; this one
# makes the canonical windowing yield exactly 577 overlapping windows.
FIVE_YEAR_SAMPLES = 1770 * SAMPLES_PER_DAY  # 254880


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

    nxt = schedule.value_at(i + 1)  # sentinel boundary value at i = k
    if schedule.kind.is_max:
        level = max(nxt - epsilon, bounds.p_min)
        tail = bounds.p_min
    else:
        level = min(nxt + epsilon, bounds.p_max)
        tail = bounds.p_max
    prices = schedule.values[:i] + (level,) * k + (tail,) * k
    return SearchInstance(prices, k, bounds)


def apply_rho_hard(
    instance: SearchInstance, rho: float, seed: int, kind: ProblemKind
) -> SearchInstance:
    """With probability rho, replace the last k prices by the worst-case tail.

    The hard tail is k copies of p_min for max-search (the compulsory picks
    become worthless) and k copies of p_max for min-search.  The branch is a
    single Bernoulli draw from a counter-based generator, so the result is a
    pure function of (instance, rho, seed).
    """
    if not (isinstance(rho, (int, float)) and 0.0 <= rho <= 1.0):
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    draw = np.random.Generator(np.random.Philox(seed)).random()
    if draw >= rho:
        return instance
    tail = instance.bounds.p_min if kind.is_max else instance.bounds.p_max
    k = instance.k
    prices = np.concatenate((instance.prices[:-k], np.full(k, tail)))
    return SearchInstance(prices, k, instance.bounds)


@dataclass(frozen=True, eq=False, init=False)
class PriceSeries:
    """An ordered price sequence, optionally timestamped 1:1.

    The prices are validated once into the read-only float64 ``array`` that
    windows view; ``prices`` gives them as Python floats.  Timestamps are a
    tuple, or a ``range`` with a positive step, which is kept as it is (a
    regularly sampled feed needs no tuple of its stamps).
    """

    array: np.ndarray
    timestamps: tuple[int, ...] | range | None

    def __init__(self, prices, timestamps=None):
        array = np.array(prices, dtype=np.float64)
        array.flags.writeable = False
        if array.ndim != 1 or not array.size:
            raise InvalidInputError("price series needs a non-empty 1-D sequence of prices")
        if not (array.min() > 0 and math.isfinite(array.max())):
            raise InvalidInputError("prices must be strictly positive and finite")
        if timestamps is not None:
            if isinstance(timestamps, range):
                increasing = timestamps.step > 0
            else:
                timestamps = tuple(timestamps)
                increasing = not any(b <= a for a, b in zip(timestamps, timestamps[1:]))
            if len(timestamps) != array.size:
                raise InvalidInputError(
                    f"{len(timestamps)} timestamps for {array.size} prices"
                )
            if not increasing:
                raise InvalidInputError("timestamps must be strictly increasing")
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "timestamps", timestamps)

    def __eq__(self, other):
        return (isinstance(other, PriceSeries) and self.timestamps == other.timestamps
                and bool(np.array_equal(self.array, other.array)))

    def __hash__(self):
        return hash((self.array.tobytes(), self.timestamps))

    def __reduce__(self):
        # rebuilt through __init__, so the copy is read-only again
        return PriceSeries, (self.array, self.timestamps)

    @property
    def prices(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return self.array.size


@dataclass(frozen=True)
class ExperimentWindow:
    """One trading window plus the prediction carried in from its predecessor.

    Its actual extreme is not stored: ``adjust_error`` reads it off the prices.
    """

    instance: SearchInstance
    prediction: float

    def __post_init__(self):
        if not self.instance.bounds.contains(self.prediction):
            raise InvalidInputError(
                f"prediction {self.prediction} outside bounds "
                f"[{self.instance.bounds.p_min}, {self.instance.bounds.p_max}]"
            )


def scale_theta(series: PriceSeries, multiplier: float) -> PriceSeries:
    """Widen the fluctuation ratio of a series by the given factor.

    Prices strictly above the arithmetic mean are multiplied by sqrt(x),
    prices at or below it by 1/sqrt(x); whenever the maximum sits above the
    mean and the minimum below it, the output max/min ratio is exactly x
    times the input's.
    """
    if not (isinstance(multiplier, (int, float)) and multiplier >= 1.0 and math.isfinite(multiplier)):
        raise DomainError(f"theta multiplier must be >= 1, got {multiplier}")
    prices = series.array
    mean = math.fsum(prices.tolist()) / len(series)
    up = math.sqrt(multiplier)
    down = 1.0 / up
    return PriceSeries(np.where(prices > mean, prices * up, prices * down), series.timestamps)


def ingest_csv(path) -> PriceSeries:
    """Parse a UTF-8 CSV with a header row into a PriceSeries.

    A leading byte-order mark is skipped.  The ``price`` column is required
    (positive decimals); the ``timestamp`` column is optional (integer epoch
    seconds, strictly increasing).  Row-level problems raise DataFormatError
    naming the offending data row (1-based); an empty or header-only file, or
    a missing price column, is InvalidInputError.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file") from None
        if "price" not in header:
            raise InvalidInputError(
                f"{path}: missing required column 'price' (header: {header})"
            )
        p_idx = header.index("price")
        t_idx = header.index("timestamp") if "timestamp" in header else None

        prices: list[float] = []
        stamps: list[int] = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {row_num} has {len(row)} fields, "
                    f"expected {len(header)}",
                    row=row_num,
                )
            cell = row[p_idx].strip()
            try:
                price = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {row_num}: price {cell!r} is not numeric",
                    row=row_num,
                ) from None
            if not (price > 0 and math.isfinite(price)):
                raise DataFormatError(
                    f"{path}: row {row_num}: price must be positive, got {cell}",
                    row=row_num,
                )
            prices.append(price)
            if t_idx is not None:
                tcell = row[t_idx].strip()
                try:
                    ts = int(tcell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {row_num}: timestamp {tcell!r} is not "
                        f"an integer",
                        row=row_num,
                    ) from None
                if stamps and ts <= stamps[-1]:
                    raise DataFormatError(
                        f"{path}: row {row_num}: timestamp {ts} not strictly "
                        f"increasing",
                        row=row_num,
                    )
                stamps.append(ts)
    if not prices:
        raise InvalidInputError(f"{path}: no data rows")
    return PriceSeries(prices, tuple(stamps) if t_idx is not None else None)


def sliding_windows(
    series: PriceSeries, window_len: int, stride: int, k: int, kind: ProblemKind
) -> tuple[ExperimentWindow, ...]:
    """Cut a series into overlapping windows with look-back predictions.

    Window w covers samples [s, s+T); its prediction is the kind-extreme of
    the immediately preceding length-T slice, so the first window starts at
    offset T and the count is floor((N - 2T)/stride) + 1.  All windows share
    the global bounds of the series (the fluctuation ratio is a property of
    the feed, not of one window).
    """
    for name, val in (("window_len", window_len), ("stride", stride)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise InvalidInputError(f"{name} must be a positive integer, got {val}")
    n = len(series)
    if n < 2 * window_len:
        raise InvalidInputError(
            f"series of length {n} too short for windows of {window_len} "
            f"(needs one full look-back window)"
        )
    prices = series.array
    bounds = PriceBounds(float(prices.min()), float(prices.max()))
    # row s views prices[s : s + window_len], read-only like the series
    rows = np.lib.stride_tricks.sliding_window_view(prices, window_len)
    looks_back = rows[: n - 2 * window_len + 1 : stride]
    predictions = (looks_back.max if kind.is_max else looks_back.min)(axis=1).tolist()
    return tuple(
        ExperimentWindow(SearchInstance(window, k, bounds), prediction)
        for window, prediction in zip(rows[window_len::stride], predictions)
    )


def adjust_error(window: ExperimentWindow, level: float, kind: ProblemKind) -> ExperimentWindow:
    """Scale the window's prediction error to the given level in [0, 1].

    The actual extreme is the kind-extreme of the window's prices.  With
    eps = |actual - prediction|, the new prediction sits at
    actual + sign(prediction - actual) * level * eps: level 0 is a perfect
    prediction, level 1 keeps the original.
    """
    if not (isinstance(level, (int, float)) and 0.0 <= level <= 1.0):
        raise DomainError(f"error level must lie in [0, 1], got {level}")
    prices = window.instance.prices
    actual = float(prices.max() if kind.is_max else prices.min())
    shift = window.prediction - actual
    prediction = window.instance.bounds.clip(actual + level * shift)
    return ExperimentWindow(window.instance, prediction)


def gen_synthetic_series(
    num_samples: int = FIVE_YEAR_SAMPLES,
    seed: int = 0,
    bounds: PriceBounds = PriceBounds(5.0, 50.0),
) -> PriceSeries:
    """Seeded mean-reverting synthetic price feed inside fixed bounds.

    Log-price follows an Ornstein-Uhlenbeck walk around the geometric
    mid-price, clipped to [p_min, p_max]; the stationary spread is tuned so
    three-week windows explore most of the band without pinning to the
    boundaries.  Deterministic given (num_samples, seed, bounds).
    """
    if not isinstance(num_samples, int) or isinstance(num_samples, bool) or num_samples < 1:
        raise InvalidInputError(f"num_samples must be a positive integer, got {num_samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    log_lo = math.log(bounds.p_min)
    log_hi = math.log(bounds.p_max)
    mid = 0.5 * (log_lo + log_hi)
    kappa, sigma = 0.02, 0.08
    decay = 1.0 - kappa
    # the OU recursion in Python floats; the noise list dies with the walk
    logs = np.fromiter(itertools.accumulate(
        rng.normal(0.0, sigma, num_samples - 1).tolist(),
        lambda x, e: mid + decay * (x - mid) + e, initial=mid), float, num_samples)
    prices = np.exp(np.clip(logs, log_lo, log_hi))
    timestamps = range(0, num_samples * 600, 600)  # ten-minute samples
    return PriceSeries(prices, timestamps)
