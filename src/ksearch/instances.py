"""Synthetic and data-driven instance generation.

Two families of inputs feed the simulation harness:

* experiment transformations — prediction-error dialing and
  fluctuation-ratio scaling (the harness hardens tails itself);
* real or synthetic price series — a CSV ingestion contract plus a seeded
  mean-reverting synthetic series, both cut into overlapping experiment
  windows whose predictions come from the preceding window.

A series holds its prices once, as a read-only array, checked once.  Its
windows are a ``core.WindowStream``: offsets into that array (the window
starts, the horizon, budget, band, one prediction per window and the kind
they were cut for), cut by ``sliding_windows`` and with their prediction
error dialled in one pass by ``adjust_error``.  The stream's constructor
checks its windows once, so nothing downstream checks a window again.  No
window gets an array of its own, not even one the harness hardens: its
ratios are derived from the plain window's replay.

The synthetic feed is a pure function of (inputs, seed) via a counter-based
generator, so every experiment is bit-reproducible.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import PriceBounds, ProblemKind, WindowStream, _instance, _integer, _real, _reals, _unit
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
# the header of a feed that ingest_csv parses in bulk
_PLAIN_HEADER = "timestamp,price\n"
# a row error echoes this much of a bad cell
_ECHO_CHARS = 32
# what ``int()`` reads as a base-10 integer, once the cell is stripped
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


@dataclass(frozen=True, eq=False, init=False)
class PriceSeries:
    """An ordered price sequence, optionally timestamped 1:1.

    The prices are validated once into the read-only float64 ``array`` that
    windows view; ``prices`` gives them as Python floats.  Timestamps are a
    tuple, or a ``range`` with a positive step, which is kept as it is (a
    regularly sampled feed needs no tuple of its stamps).  A 1-D integer
    array of stamps, as a parsed feed holds them, is checked in one numpy
    pass and kept as a read-only copy; ``timestamps`` gives it as a tuple.
    """

    array: np.ndarray
    _stamps: np.ndarray | tuple[int, ...] | range | None

    def __init__(self, prices, timestamps=None):
        array = _reals("prices", prices)
        array.flags.writeable = False
        if array.ndim != 1 or not array.size:
            raise InvalidInputError("price series needs a non-empty 1-D sequence of prices")
        if not (array.min() > 0 and math.isfinite(array.max())):
            raise InvalidInputError("prices must be strictly positive and finite")
        if timestamps is not None:
            if isinstance(timestamps, range):
                increasing = timestamps.step > 0
            elif (isinstance(timestamps, np.ndarray) and timestamps.ndim == 1
                  and timestamps.dtype.kind in "iu"):
                increasing = bool((timestamps[1:] > timestamps[:-1]).all())
                timestamps = timestamps.copy()
                timestamps.flags.writeable = False
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
        object.__setattr__(self, "_stamps", timestamps)

    def __reduce__(self):
        # rebuilt through __init__, so the copy is read-only again
        return PriceSeries, (self.array, self._stamps)

    @property
    def timestamps(self) -> tuple[int, ...] | range | None:
        stamps = self._stamps
        return tuple(stamps.tolist()) if isinstance(stamps, np.ndarray) else stamps

    @property
    def prices(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return self.array.size


def _theta_multiplier(value) -> float:
    """``_real("theta multiplier", value)``, if it is finite and >= 1;
    DomainError otherwise (NaN included)."""
    multiplier = _real("theta multiplier", value)
    if not (multiplier >= 1.0 and math.isfinite(multiplier)):
        raise DomainError(f"theta multiplier must be >= 1, got {multiplier}")
    return multiplier


def scale_theta(series: PriceSeries, multiplier: float) -> PriceSeries:
    """Widen the fluctuation ratio of a series by the given factor.

    Prices strictly above the arithmetic mean are multiplied by sqrt(x),
    prices at or below it by 1/sqrt(x); whenever the maximum sits above the
    mean and the minimum below it, the output max/min ratio is exactly x
    times the input's.
    """
    _instance("series", series, PriceSeries)
    multiplier = _theta_multiplier(multiplier)
    prices = series.array
    mean = math.fsum(prices.tolist()) / len(series)
    up = math.sqrt(multiplier)
    down = 1.0 / up
    return PriceSeries(np.where(prices > mean, prices * up, prices * down), series._stamps)


def ingest_csv(path) -> PriceSeries:
    """Parse a UTF-8 CSV with a header row into a PriceSeries.

    A leading byte-order mark is skipped.  The ``price`` column is required
    (positive decimals); the ``timestamp`` column is optional (integer epoch
    seconds, strictly increasing).  Row-level problems raise DataFormatError
    naming the offending data row (1-based); an empty or header-only file, or
    a missing price column, is InvalidInputError.

    A plain ``timestamp,price`` feed is parsed in bulk; any other file, and
    any feed the bulk parse cannot take or whose values fail a check, is
    read row by row, which gives the same series or raises the row's error.
    """
    series = _bulk_series(path)
    return _row_series(path) if series is None else series


def _bulk_series(path) -> PriceSeries | None:
    """The series of a plain ``timestamp,price`` feed, parsed by one
    ``np.loadtxt`` call, or None where the row loop must decide.

    The header must be exactly ``timestamp,price`` and no line blank
    (``loadtxt`` skips blank lines, the row loop rejects them).  Every other
    line must be an int64 and a float64: ``loadtxt`` takes no quotes, and a
    value it takes is the one ``int()`` or ``float()`` gives.  A series that
    ``PriceSeries`` rejects is left to the row loop too, which names the
    offending row."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if not text.startswith(_PLAIN_HEADER) or text == _PLAIN_HEADER or "\n\n" in text:
        return None
    # freed before loadtxt reads the file again: on a 178,416-row feed,
    # handing loadtxt this text instead (io.StringIO) was slower and
    # peaked about 17 MB higher
    del text
    try:
        rows = np.loadtxt(path, dtype=[("timestamp", np.int64), ("price", np.float64)],
                          delimiter=",", skiprows=1, comments=None, encoding="utf-8-sig",
                          ndmin=1)
    except (ValueError, OverflowError):
        return None
    try:
        return PriceSeries(rows["price"], rows["timestamp"])
    except InvalidInputError:
        return None


def _numbered_rows(path, fh):
    """The ``csv`` rows of an open feed with their numbers, the header as row 0.

    A feed that is not UTF-8 raises InvalidInputError, and a row the ``csv``
    module cannot split (a field over its size limit, say) DataFormatError."""
    reader = csv.reader(fh)
    for row_num in itertools.count():
        try:
            row = next(reader)
        except StopIteration:
            return
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataFormatError(f"{path}: row {row_num}: {exc}") from None
        yield row_num, row


def _echo(cell: str, quote: bool = True) -> str:
    """A bad cell as a row error shows it: its first ``_ECHO_CHARS``
    characters, quoted unless ``quote`` is false, with the cell's length
    where it is cut."""
    head = repr(cell[:_ECHO_CHARS]) if quote else cell[:_ECHO_CHARS]
    return head if len(cell) <= _ECHO_CHARS else f"{head}... ({len(cell)} characters)"


def _row_series(path) -> PriceSeries:
    """``ingest_csv`` one row at a time, with the ``csv`` module."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _numbered_rows(path, fh)
        try:
            header = [cell.strip() for cell in next(reader)[1]]
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
        for row_num, row in reader:
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}"
                )
            cell = row[p_idx].strip()
            try:
                price = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {row_num}: price {_echo(cell)} is not numeric"
                ) from None
            if not (price > 0 and math.isfinite(price)):
                raise DataFormatError(
                    f"{path}: row {row_num}: price must be positive, "
                    f"got {_echo(cell, quote=False)}"
                )
            prices.append(price)
            if t_idx is not None:
                tcell = row[t_idx].strip()
                try:
                    ts = int(tcell)
                except ValueError:
                    # a well-formed integer fails only past Python's digit limit
                    why = (f"exceeds Python's {sys.get_int_max_str_digits()}-digit integer limit"
                           if _INTEGER.fullmatch(tcell) else "is not an integer")
                    raise DataFormatError(
                        f"{path}: row {row_num}: timestamp {_echo(tcell)} {why}"
                    ) from None
                if stamps and ts <= stamps[-1]:
                    raise DataFormatError(
                        f"{path}: row {row_num}: timestamp {_echo(str(ts), quote=False)} "
                        f"not strictly increasing"
                    )
                stamps.append(ts)
    if not prices:
        raise InvalidInputError(f"{path}: no data rows")
    return PriceSeries(prices, tuple(stamps) if t_idx is not None else None)


def sliding_windows(
    series: PriceSeries, window_len: int, stride: int, k: int, kind: ProblemKind
) -> WindowStream:
    """Cut a series into overlapping windows with look-back predictions.

    Window w covers samples [s, s+T); its prediction is the kind-extreme of
    the immediately preceding length-T slice, so the first window starts at
    offset T and the count is floor((N - 2T)/stride) + 1.  All windows share
    the global bounds of the series (the fluctuation ratio is a property of
    the feed, not of one window).  The windows are offsets into the series'
    own array: no price is copied.
    """
    _instance("series", series, PriceSeries)
    window_len, stride = _integer("window_len", window_len, 1), _integer("stride", stride, 1)
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
    _instance("kind", kind, ProblemKind)
    predictions = kind.extreme(looks_back)
    starts = np.arange(window_len, n - window_len + 1, stride)
    return WindowStream(prices, starts, window_len, k, bounds, predictions, kind)


def adjust_error(stream: WindowStream, level: float) -> WindowStream:
    """The stream with every window's prediction error scaled to ``level``
    in [0, 1], all windows in one pass.

    A window's actual extreme is the extreme of its prices for the stream's
    kind.  With eps = |actual - prediction|, the new prediction sits at
    actual + sign(prediction - actual) * level * eps, clipped to the band:
    level 0 is a perfect prediction, level 1 keeps the original.
    """
    _instance("stream", stream, WindowStream)
    level = _unit("error level", level)
    rows = stream.rows()
    actual = stream.kind.extreme(rows)
    moved = actual + level * (stream.predictions - actual)
    predictions = np.minimum(np.maximum(moved, stream.bounds.p_min), stream.bounds.p_max)
    return replace(stream, predictions=predictions)


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
    num_samples, seed = _integer("num_samples", num_samples, 1), _integer("seed", seed, 0)
    _instance("bounds", bounds, PriceBounds)
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
