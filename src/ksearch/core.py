"""Core domain types and the threshold-based selection engine.

The online k-search setting: T prices arrive one by one, each in
[p_min, p_max], and the algorithm must pick exactly k of them — maximizing
the total for max-search, minimizing it for min-search.  A deterministic
threshold algorithm keeps a non-decreasing (max) or non-increasing (min)
schedule of k reservation prices and accepts the t-th arrival whenever it
meets the threshold indexed by the number of items already taken.  Once the
number of remaining arrivals equals the remaining budget, selection becomes
compulsory regardless of the schedule.

Two replays share these rules.  ``run_ota`` records every decision of one
run.  ``ota_totals``, the batched replay the learner and the harness use,
replays a block of windows under many schedules with one kernel.  Its one
input of windows is a ``WindowStream``: offsets into one price array, one
stride apart, with their horizon T, budget, band, predictions and kind,
checked once when the stream is made.  The kernel lays the block's windows
end to end in one span, where each window after the first adds
min(stride, T) prices, builds one sparse table of block maxima over the
span, and each run jumps from one selection to the next by a
binary-lifting descent over that table.  A
run leaves the descent at its first selection that is not voluntary, as
the compulsory fill takes the rest.  The kernel can also replay windows
hardened with a tail of k worst prices, without a descent of their own:
such a run keeps the plain run's selections before the tail, may take the
tail price while its bars allow, and the fill takes the rest.  Its totals
are bit-identical to those of ``ota_total``, the per-run oracle the tests
hold.  ``offline_opt`` is the clairvoyant optimum of one instance, and
``_offline_optima`` that of a block of windows, plain or hardened, in one
pass, bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError, InvalidInputError


class ProblemKind(enum.Enum):
    """Which extreme the searcher is after, and the rules that differ by it.

    k-min search mirrors k-max search (Lorenz, Panagiotou and Steger,
    Algorithmica 2009): a schedule starts from the ``near`` band end (p_min
    for max, p_max for min), which is also the worst price a hardened tail
    holds, and grows towards the ``far`` one.  Both worst-case ratios solve
    one balance, spread(x) * growth(x, k)**k = spread(theta): for max
    (x - 1)(1 + x/k)^k = theta - 1, for min (1 - 1/x)(1 + 1/(xk))^k =
    1 - 1/theta.  ``sign`` makes min-search max-search over negated prices,
    and ``ratio`` points each kind's competitive ratio above 1.
    """

    MAX = "max"
    MIN = "min"

    @property
    def is_max(self) -> bool:
        return self is _MAX

    @property
    def sign(self) -> float:
        """1.0 for max-search, -1.0 for min-search, which is max-search negated."""
        return 1.0 if self is _MAX else -1.0

    def near(self, bounds: PriceBounds) -> float:
        """The band end a schedule starts from, and the hardened tail's price."""
        return bounds.p_min if self is _MAX else bounds.p_max

    def far(self, bounds: PriceBounds) -> float:
        """The band end a schedule grows towards."""
        return bounds.p_max if self is _MAX else bounds.p_min

    def spread(self, x):
        """The balance's spread of a ratio x: x - 1 (max) or 1 - 1/x (min)."""
        return x - 1.0 if self is _MAX else 1.0 - 1.0 / x

    def growth(self, x, k: int):
        """The per-threshold growth rate at ratio x: 1 + x/k (max) or 1 + 1/(xk) (min)."""
        return 1.0 + x / k if self is _MAX else 1.0 + 1.0 / (x * k)

    def log_growth(self, x, k: int) -> float:
        """``math.log`` of ``growth(x, k)``, from ``math.log1p``."""
        return math.log1p(x / k if self is _MAX else 1.0 / (x * k))

    def extreme(self, values: np.ndarray) -> np.ndarray:
        """The largest (max) or smallest (min) of values along their last axis."""
        return values.max(axis=-1) if self is _MAX else values.min(axis=-1)

    def ratio(self, total, optimum):
        """The competitive ratio of a total against the optimum, at least 1."""
        return optimum / total if self is _MAX else total / optimum


# member lookups through the enum class cost ~0.2 us each on Python 3.11,
# and the rules above run on every design
_MAX = ProblemKind.MAX


def _real(name: str, value) -> float:
    """``value`` as a float, if it is a real number: a ``numbers.Real``
    (bools and numpy scalars included) or a 0-d numpy array of one.
    Anything else, or a real beyond the float range, raises
    InvalidInputError."""
    if value.__class__ is float:
        return value
    if isinstance(value, (float, int, numbers.Real)) or isinstance(value, np.ndarray) \
            and value.shape == () and value.dtype.kind in "biuf":
        try:
            return float(value)
        except OverflowError:
            raise InvalidInputError(f"{name} lies beyond the float range") from None
    raise InvalidInputError(f"{name} must be a real number, got {value!r}")


def _unit(name: str, value) -> float:
    """``_real(name, value)``, if it lies in [0, 1]; DomainError otherwise
    (NaN included)."""
    value = _real(name, value)
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return value


def _integer(name: str, value, low=None, high=None) -> int:
    """``value`` as an int, if it is an integer in [low, high] (an end that
    is None is open): a Python or numpy integer, by ``operator.index``, but
    never a bool.  Anything else raises InvalidInputError."""
    try:
        number = None if value.__class__ is bool else operator.index(value)
    except TypeError:
        number = None
    if number is None or low is not None and number < low or high is not None and number > high:
        span = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise InvalidInputError(f"{name} must be an integer{span}, got {value!r}")
    return number


def _reals(name: str, values) -> np.ndarray:
    """A new float64 array of ``values``, if numpy reads them as real
    numbers (bools and integers included) or as objects that are each one
    for ``_real`` (``Fraction``s, say); InvalidInputError otherwise."""
    try:
        array = np.array(values)
    except ValueError:  # a ragged nesting
        raise InvalidInputError(f"{name} must be real numbers") from None
    if array.dtype.kind == "O":
        entries = [_real(f"an entry of {name}", value) for value in array.flat]
        array = np.array(entries).reshape(array.shape)
    if array.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must be real numbers")
    return array.astype(np.float64, copy=False)


def _instance(name: str, value, cls) -> None:
    """Raise InvalidInputError unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"{name} must be a {cls.__name__}, got {value!r}")


def _within(what: str, lo, hi, bounds) -> None:
    """Raise InvalidInputError unless [lo, hi] lies in ``bounds``; an end
    that is NaN does not."""
    if not (lo >= bounds.p_min and hi <= bounds.p_max):
        raise InvalidInputError(f"{what} span [{lo}, {hi}], outside bounds "
                                f"[{bounds.p_min}, {bounds.p_max}]")


@dataclass(frozen=True)
class PriceBounds:
    """Known price support [p_min, p_max] with fluctuation ratio theta."""

    p_min: float
    p_max: float

    def __post_init__(self):
        p_min, p_max = _real("p_min", self.p_min), _real("p_max", self.p_max)
        object.__setattr__(self, "p_min", p_min)
        object.__setattr__(self, "p_max", p_max)
        if not (p_min > 0 and math.isfinite(p_min)):
            raise InvalidInputError(f"p_min must be positive and finite, got {p_min}")
        if not (p_max >= p_min and math.isfinite(p_max)):
            raise InvalidInputError(
                f"p_max must satisfy p_max >= p_min > 0, got [{p_min}, {p_max}]"
            )
        if not math.isfinite(self.theta):
            raise InvalidInputError(f"theta = p_max/p_min overflows for [{p_min}, {p_max}]")

    @property
    def theta(self) -> float:
        """Fluctuation ratio p_max / p_min (always derived, never stored)."""
        return self.p_max / self.p_min

    def contains(self, price: float) -> bool:
        return self.p_min <= price <= self.p_max

    def clip(self, price: float) -> float:
        return min(max(price, self.p_min), self.p_max)


@dataclass(frozen=True, eq=False)
class SearchInstance:
    """A full arrival sequence together with the budget k and its bounds.

    ``prices`` is a read-only 1-D float64 copy of the sequence passed in.
    """

    prices: np.ndarray
    k: int
    bounds: PriceBounds

    def __post_init__(self):
        _instance("bounds", self.bounds, PriceBounds)
        prices = _reals("prices", self.prices)
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)
        if prices.ndim != 1 or not prices.size:
            raise InvalidInputError("instance needs a non-empty 1-D sequence of prices")
        object.__setattr__(self, "k", _integer("budget k", self.k, 1, prices.size))
        _within("prices", prices.min(), prices.max(), self.bounds)  # NaN if any price is NaN

    @property
    def horizon(self) -> int:
        return self.prices.size


@dataclass(frozen=True, eq=False)
class WindowStream:
    """Trading windows as offsets into one price array, with their predictions.

    Window w is the ``horizon`` prices ``prices[starts[w]:starts[w] + horizon]``
    of the read-only 1-D float64 array ``prices`` (any other is copied once);
    the starts ascend by one positive ``stride``, so every run of windows is
    a basic slice of the array's ``sliding_window_view`` (``rows``).  Every
    window has budget ``k`` in [1, horizon], the prices the windows span lie
    in ``bounds``, ``predictions`` holds one predicted extreme per window, in
    ``bounds`` too, and ``kind`` is the search the windows and predictions
    were cut for.  There are fewer than 2^20 windows: Hedge draws round t
    from the Philox key seed * 2^20 + t.  The constructor checks all of that
    once (InvalidInputError otherwise), so nothing downstream checks a window
    again.
    """

    prices: np.ndarray
    starts: np.ndarray
    horizon: int
    k: int
    bounds: PriceBounds
    predictions: np.ndarray
    kind: ProblemKind

    def __post_init__(self):
        prices, bounds = self.prices, self.bounds
        if not (isinstance(prices, np.ndarray) and prices.dtype == np.float64
                and not prices.flags.writeable):
            prices = _reals("prices", prices)
            prices.flags.writeable = False
        starts, predictions = np.asarray(self.starts), _reals("predictions", self.predictions)
        if prices.ndim != 1 or starts.ndim != 1 or not starts.size or starts.dtype.kind not in "iu":
            raise InvalidInputError("need a 1-D price array and a non-empty 1-D array of integer "
                                    "window starts")
        if starts.size >= 1 << 20:
            raise InvalidInputError("window streams beyond 2^20 rounds are unsupported")
        horizon = _integer("horizon", self.horizon, 1)
        _instance("kind", self.kind, ProblemKind)
        _instance("bounds", bounds, PriceBounds)
        k = _integer("budget k", self.k, 1, horizon)
        starts = starts.astype(np.intp, copy=False)
        steps = np.diff(starts)
        if steps.size and not (steps[0] > 0 and (steps == steps[0]).all()):
            raise InvalidInputError("window starts must ascend by one positive stride")
        if not 0 <= starts[0] <= starts[-1] <= prices.size - horizon:
            raise InvalidInputError(f"windows of {horizon} prices must lie within {prices.size}")
        if predictions.shape != starts.shape:
            raise InvalidInputError(f"{predictions.size} predictions for {starts.size} windows")
        for what, values in (("window prices", prices[starts[0]:starts[-1] + horizon]),
                             ("predictions", predictions)):
            _within(what, values.min(), values.max(), bounds)  # NaN if any value is NaN
        for name, value in (("prices", prices), ("starts", starts), ("horizon", horizon), ("k", k),
                            ("predictions", predictions)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.starts.size

    @property
    def stride(self) -> int:
        """How many prices apart the windows start (the horizon for one window)."""
        starts = self.starts
        return int(starts[1] - starts[0]) if starts.size > 1 else self.horizon

    def rows(self) -> np.ndarray:
        """The (W, T) windows as one read-only view of ``prices``."""
        views = np.lib.stride_tricks.sliding_window_view(self.prices, self.horizon)
        return views[self.starts[0]:self.starts[-1] + 1:self.stride]


@dataclass(frozen=True)
class ThresholdSchedule:
    """k reservation prices, monotone in the direction dictated by the kind.

    The thresholds are converted once, by ``_reals`` (an iterable that is
    no array is made a tuple first), into one new read-only 1-D float64
    array, ``_array``, and ``values`` is that array as a tuple of Python
    floats.  The array is no field, so it stays out of equality, hashing
    and repr, and a pickle or copy rebuilds it by the constructor.  The
    order is checked on the array first, and then the band at the two
    ends, which are the lowest and highest thresholds once the order
    holds.  A NaN fails the order check from k = 2 on and the band check
    at k = 1, so a schedule out of order and out of band is reported as
    not monotone.
    """

    kind: ProblemKind
    values: tuple[float, ...]
    bounds: PriceBounds

    def __post_init__(self):
        _instance("kind", self.kind, ProblemKind)
        _instance("bounds", self.bounds, PriceBounds)
        values = self.values
        if not isinstance(values, np.ndarray):
            try:
                values = tuple(values)
            except TypeError:
                raise InvalidInputError(f"thresholds must be a sequence, got {values!r}") from None
        array = _reals("thresholds", values)
        if array.ndim != 1:
            raise InvalidInputError(f"thresholds must be one sequence, got shape {array.shape}")
        k = array.size
        if not k:
            raise InvalidInputError("schedule needs at least one threshold")
        array.setflags(write=False)  # a third of the time of flags.writeable = False
        values = tuple(array.tolist())
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_array", array)
        is_max = self.kind.is_max
        ordered = array[:-1] <= array[1:] if is_max else array[:-1] >= array[1:]
        if np.count_nonzero(ordered) != k - 1:
            raise InvalidInputError(f"thresholds not monotone for {self.kind}")
        lo, hi = (values[0], values[-1]) if is_max else (values[-1], values[0])
        _within("thresholds", lo, hi, self.bounds)

    def __reduce__(self):
        # rebuilt by the constructor, so a copy's array is read-only too
        return self.__class__, (self.kind, self.values, self.bounds)

    @property
    def k(self) -> int:
        return len(self.values)


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
    """A (consistency, robustness) pair indexed by the confidence lam in
    [0, 1]; a lam outside it raises DomainError."""

    lam: float
    eta: float
    gamma: float

    def __post_init__(self):
        lam, eta, gamma = (_unit("confidence", self.lam), _real("eta", self.eta),
                           _real("gamma", self.gamma))
        for name, value in (("lam", lam), ("eta", eta), ("gamma", gamma)):
            object.__setattr__(self, name, value)
        if not (1.0 - 1e-9 <= eta <= gamma + 1e-9):
            raise InvalidInputError(f"need 1 <= eta <= gamma, got eta={eta}, gamma={gamma}")


def run_ota(schedule: ThresholdSchedule, instance: SearchInstance) -> RunTrace:
    """Run the online threshold algorithm and return the full decision trace.

    At a step where m items are already selected the arrival is taken iff it
    meets threshold m+1 (>= for max-search, <= for min-search; equality
    selects).  The compulsory rule: once the remaining arrivals equal the
    remaining budget, everything left is selected unconditionally.
    """
    _instance("schedule", schedule, ThresholdSchedule)
    _instance("instance", instance, SearchInstance)
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
    for t, price in enumerate(instance.prices.tolist()):
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


def ota_totals(
    thresholds: np.ndarray, stream: WindowStream, rows: np.ndarray, hardened=(),
) -> tuple[np.ndarray, np.ndarray]:
    """Total value and voluntary-selection count of many runs at once: run r
    replays window ``rows[r]`` of ``stream`` under the schedule
    ``thresholds[r]``, for the stream's kind.

    ``thresholds`` is (R, k), one schedule per run, with the stream's k; NaN
    in them is rejected.  The windows ``min(rows)`` to ``max(rows)`` are laid
    end to end in one span of prices, where each window after the first adds
    min(stride, T) prices: the span is one slice of the stream's prices where
    the windows overlap or touch, and a copy of their rows where they leave
    gaps.  One sparse table of block maxima (Bender and Farach-Colton's
    range-maximum structure, LATIN 2000) covers the span.  Each run jumps
    from one selection to the next: slot m's step is the first one at or
    after the run's position whose price meets threshold m, found by a
    binary-lifting descent over that table.  Voluntary selections are a
    prefix, so a run retires from the descent at its first selection at or
    past step T - k + m, where the compulsory fill has begun; the live runs
    are compacted once at least half have retired, and the descent stops
    when none is live.

    ``hardened`` names windows of the stream whose copy with its last k
    prices set to the band's worst price (p_min for max-search, p_max for
    min-search) is replayed too, by every run on the window.  Such a run
    keeps the m0 plain selections made before step T - k; if m0 >= 1 it then
    takes the tail voluntarily while its bars allow, and the compulsory fill
    takes the rest (all k when m0 = 0).  Its total is derived from the plain
    run, with no second descent.

    The totals are added as the per-run oracle ``ota_total`` in
    ``tests/oracle.py`` adds them (the voluntary picks, then the fill, each
    by one numpy sum), so each is bit-identical to it on the window, or on
    the hardened copy (property-tested).  Returns (totals, voluntary counts)
    of the R runs, followed by those of the runs on hardened windows, in
    run order.
    """
    _instance("stream", stream, WindowStream)
    T, k, count = stream.horizon, stream.k, len(stream)
    thr = np.asarray(thresholds, dtype=float)
    rows = np.asarray(rows)
    if rows.size and rows.dtype.kind not in "iu":
        raise InvalidInputError("run rows must be integer window indices")
    rows = rows.astype(np.intp, copy=False)
    if thr.ndim != 2 or rows.shape != thr.shape[:1] or thr.shape[1] != k:
        raise InvalidInputError(
            f"need (R, {k}) thresholds and R rows, got {thr.shape} and {rows.shape}"
        )
    if rows.size and not 0 <= rows.min() <= rows.max() < count:
        raise InvalidInputError(f"run rows must index the {count} windows")
    if np.isnan(thr).any():
        raise InvalidInputError("thresholds must not be NaN")
    hard = np.zeros(count, dtype=bool)
    hard[_hardened_windows(hardened, count)] = True
    runs = rows.size
    if not runs:
        return np.empty(0), np.zeros(0, dtype=np.intp)
    sign = stream.kind.sign
    lo, hi = int(rows.min()), int(rows.max()) + 1
    step = min(stream.stride, T)
    size = (hi - lo - 1) * step + T
    levels = T.bit_length()  # 2**levels > T: a descent can cross a window
    # table[l, t] is the largest of the signed span's prices t .. t + 2**l - 1
    # that exist, and +inf once that range reaches t = size, so no descent
    # leaves the span
    table = np.empty((levels, size + 1))
    table[0, size] = np.inf
    if step == stream.stride:  # the windows overlap or touch: one stretch of prices
        start = stream.starts[lo]
        np.multiply(stream.prices[start:start + size], sign, out=table[0, :size])
    else:
        np.multiply(stream.rows()[lo:hi], sign, out=table[0, :size].reshape(hi - lo, T))
    for level in range(1, levels):
        half, lower = 1 << (level - 1), table[level - 1]
        np.maximum(lower[:-half], lower[half:], out=table[level, :-half])
        table[level, -half:] = lower[-half:]
    first = rows - lo  # where each run's window starts in the span
    first *= step
    picked = np.flatnonzero(hard[rows])  # the runs on hardened windows
    totals = np.empty(runs + picked.size)
    voluntary = np.zeros(runs + picked.size, dtype=np.intp)
    sel = _descend(table, thr, first, sign, T, voluntary[:runs])
    span = table[0]
    totals[:runs] = _grouped_totals(sel, voluntary[:runs], span, first, T)
    if picked.size:
        tail = stream.kind.near(stream.bounds)
        # the end entry, which no plain run reads, becomes the signed tail
        span[size] = sign * tail
        early = _early_picks(sel, picked, T)
        _take_tail(sel, picked, early, thr, first, sign, tail, size)
        voluntary[runs:] = early
        totals[runs:] = _grouped_totals(sel, early, span, first, T, sign * tail, picked)
    return sign * totals, voluntary


def _hardened_windows(hardened, windows: int) -> np.ndarray:
    """The indices of the hardened windows, checked."""
    hardened = np.asarray(hardened)
    if hardened.ndim != 1 or (hardened.size and hardened.dtype.kind not in "iu"):
        raise InvalidInputError("hardened windows must be a 1-D sequence of window indices")
    if hardened.size and not 0 <= hardened.min() <= hardened.max() < windows:
        raise InvalidInputError(f"hardened windows must index the {windows} windows")
    return hardened.astype(np.intp)


def _descend(table, thr, first, sign, T, voluntary):
    """The (k, R) int32 selection steps of the runs whose windows start at
    ``first`` in the table's span, each written through the run's first
    selection at or past step T - k + m, so that every entry m past a run's
    voluntary count is at or past T - k + m (T where unwritten); the runs'
    voluntary counts go into ``voluntary`` (zeros on entry).

    Each step is the first at or after the run's position whose price meets
    its bar, found by skipping every block of the sparse ``table`` whose
    maximum misses the bar, largest first; slot m's bars are column m of
    the caller's thresholds, signed.  Once a selection is not voluntary, no
    later one is (each is a step further on, as its bound is), so the run
    retires.  The live runs are compacted once at least half have retired,
    and the descent stops when none is live."""
    levels, columns = table.shape
    runs, k = thr.shape
    descent = [(level, table[level]) for level in reversed(range(levels))]
    # int32, as a step stays under the span's length; T where never written
    sel = np.full((k, runs), T, dtype=np.int32)
    ids, count = np.arange(runs), voluntary  # the live runs, and their counts so far
    at, start, bar = first.copy(), first, np.empty(runs)
    step = np.empty(runs, dtype=np.intp)  # the skip flags, then the step
    live = np.empty(runs, dtype=bool)
    for m in range(k):
        np.multiply(thr[ids, m], sign, out=bar)
        for level, flat in descent:
            np.less(flat[at], bar, out=step)
            at += step << level
        np.subtract(at, start, out=step)  # T or more if never filled
        sel[m, ids] = step
        # the selection is voluntary if the run passed over fewer than T - k
        # prices before it; the fill starts after the voluntary ones
        np.less(step, T - k + m, out=live)
        count += live
        alive = np.count_nonzero(live)
        if 2 * alive <= live.size:
            voluntary[ids] = count  # final for the runs that retired
            if not alive:
                return sel
            keep = np.flatnonzero(live)
            ids, count, at, start = ids[keep], count[keep], at[keep], start[keep]
            step, bar, live = step[:alive], bar[:alive], live[:alive]
        # past the span's end, a position stays on its end entry
        np.minimum(at + 1, columns - 1, out=at)
    voluntary[ids] = count
    return sel


def _early_picks(sel, picked, T: int) -> np.ndarray:
    """How many of each picked run's voluntary selections come before step
    T - k: its entries of ``sel`` below T - k, as every other entry m is at
    or past T - k + m; a slice of ``_GATHER_ENTRIES // k`` runs (one at
    least) at a time."""
    k = sel.shape[0]
    chunk = max(1, _GATHER_ENTRIES // k)
    early = np.empty(picked.size, dtype=np.intp)
    for lo in range(0, picked.size, chunk):
        early[lo:lo + chunk] = np.count_nonzero(sel[:, picked[lo:lo + chunk]] < T - k, axis=0)
    return early


def _take_tail(sel, picked, early, thr, first, sign, tail, cell: int) -> None:
    """Let each picked run (on a hardened window) that made ``early`` >= 1
    selections before step T - k take the tail price at T - k, T - k + 1,
    ... while its next bars are at or below it, as ``run_ota`` would; with
    none made, the compulsory rule takes every tail step.  Each pick is
    written into ``sel`` as the span's entry ``cell``, which holds the
    signed tail, and counted in ``early``."""
    k = sel.shape[0]
    going = np.flatnonzero((early > 0) & (early < k))
    while going.size:
        going = going[sign * thr[picked[going], early[going]] <= sign * tail]
        run = picked[going]
        sel[early[going], run] = cell - first[run]
        early[going] += 1
        going = going[early[going] < k]


# the kernel's per-run vectors, in bytes: the caller's row, window start,
# total, voluntary count, and the descent's position, step, bar and live
# index (8 each), live mask (1) and a gather (8), or at a compaction the
# kept indices, ids, counts, positions and starts of half the runs (20)
_RUN_VECTOR_BYTES = 85
# what a run on a hardened window adds, 8 bytes an entry: its total,
# voluntary count and index, its count of early picks and the index vectors
# of the tail's takes
_HARD_RUN_BYTES = 48
# the most (run, slot) entries the totals and early picks take at once
# (or one run's k), 16 bytes each: an int32 step and its intp copy, then
# the copy and its price
_GATHER_ENTRIES = 1 << 12


def _replay_window_bytes(horizon: int, k: int, runs: int, step, hardened):
    """The most the replay of one window of a block holds, in bytes, where
    the window adds ``step`` prices to the block's span (min(stride, T) for
    a window after the block's first, its whole horizon for the first; an
    array of steps gives an array of charges).  ``ota_totals`` holds the
    sparse table's columns of those prices and an end column, and per run
    12 bytes a slot (the caller's threshold and the int32 selection step)
    and ``_RUN_VECTOR_BYTES``; then ``_offline_optima`` holds a copy
    of the window, which it partitions in place, and its running sums,
    next to the runs' totals.  The two come one after the other, so the
    window is charged the larger.  A ``hardened`` window (a flag, or an
    array of them) is replayed hardened too, and adds ``_HARD_RUN_BYTES`` a
    run to either; its optimum is taken of a copy with the worst-price tail
    once the plain copy is freed.  A block adds one slice of its totals
    (``_gather_bytes``)."""
    kernel = 8 * horizon.bit_length() * (step + 1) + runs * (12 * k + _RUN_VECTOR_BYTES)
    return np.maximum(kernel, 8 * (horizon + k + runs)) + hardened * runs * _HARD_RUN_BYTES


def _gather_bytes(k: int) -> int:
    """The most a block's slice of totals or early picks holds, in bytes."""
    return 16 * max(_GATHER_ENTRIES, k)


def _grouped_totals(sel, voluntary, span, first, T, fill=None, runs=None):
    """Totals of runs (``runs``, columns of the (k, R) selection steps; all
    of them by default) with ``voluntary`` counts, whose windows start at
    ``first`` in the signed span: the voluntary picks' prices, then the
    fill's, added with the same numpy reductions as the per-run oracle, one
    slice of ``_GATHER_ENTRIES // k`` runs (one at least) of equal count m
    at a time: a run gathers m picks, then k - m fill prices.  The fill is
    each window's last prices, or, with a ``fill`` price, that price
    repeated."""
    k = sel.shape[0]
    chunk = max(1, _GATHER_ENTRIES // k)
    totals = np.empty(voluntary.size)
    ends = np.lib.stride_tricks.sliding_window_view(span, k)  # each row's last k prices
    # the counts that occur (np.unique would import numpy.ma, ~0.6 MB)
    for m in np.flatnonzero(np.bincount(voluntary)).tolist():
        group = np.flatnonzero(voluntary == m)
        columns = group if runs is None else runs[group]
        for lo in range(0, group.size, chunk):
            part = columns[lo:lo + chunk]
            starts = first[part]
            # (runs, m), each run's row contiguous; intp, as int32 indices
            # would be cast through a buffer as large
            at = sel.T[part, :m].astype(np.intp)
            at += starts[:, None]
            total = span[at].sum(axis=1)
            del at
            if m < k:
                if fill is None:
                    total += ends[starts + (T - k), m:].sum(axis=1)
                else:
                    total += np.full(k - m, fill).sum()
            totals[group[lo:lo + chunk]] = total
    return totals


def left_sum(values) -> float:
    """Float sum rounded after each addition, left to right, on any Python
    (the built-in ``sum`` compensates the rounding from Python 3.12 on)."""
    return functools.reduce(operator.add, values, 0.0)


def offline_opt(instance: SearchInstance, kind: ProblemKind) -> float:
    """Clairvoyant optimum: sum of the k largest (max) or smallest (min) prices.

    The k largest signed prices are selected without a full sort and added
    in descending order; negation is exact, so the total is the sum of the
    sorted prices (descending for max, ascending for min) bit for bit."""
    _instance("instance", instance, SearchInstance)
    _instance("kind", kind, ProblemKind)
    signed, k = instance.prices * kind.sign, instance.k
    signed.partition(signed.size - k)
    return kind.sign * left_sum(sorted(signed[signed.size - k:].tolist(), reverse=True))


def _offline_optima(windows: np.ndarray, k: int, kind: ProblemKind) -> np.ndarray:
    """``offline_opt`` of every row of a writable (B, T) array of windows,
    which it signs and partitions in place, in one pass and bit for bit:
    each row's k largest signed prices are partitioned out, sorted and
    added in descending order by ``np.cumsum``, in the order in which
    ``offline_opt`` adds them."""
    T = windows.shape[1]
    windows *= kind.sign
    windows.partition(T - k, axis=1)
    chosen = windows[:, T - k:]
    chosen.sort(axis=1)
    return kind.sign * np.cumsum(chosen[:, ::-1], axis=1)[:, -1]
