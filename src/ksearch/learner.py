"""Online selection of the confidence factor via multiplicative weights.

Repeated k-search rounds form a full-information online learning problem:
after each round, the counterfactual ratio of *every* candidate confidence
value is computable by replaying the round's window against that value's
threshold design.  The learner keeps exponential (Hedge) weights over the
fixed grid ``GRID`` of 33 uniform confidence values on [0,1], samples
proportionally to the weights, and updates with loss = ratio - 1 so a
perfect round costs nothing.

Every window of a stream carries its budget k and price band; the learner
reads both from the first window and requires the rest to agree.  The
counterfactual ratios do not depend on the learner's state, so the whole
(window x confidence) ratio matrix is replayed first, a block of windows
at a time through the batched kernel ``core.ota_totals`` (one descent per
run and selection over one sparse table of price maxima, built over the
block's windows laid end to end with their overlaps shared).  A block
holds as many windows as keep the kernel within ``_REPLAY_BLOCK_BYTES``,
each charged for the prices it adds to the block and for its runs, so
overlapping windows pack more per block than disjoint ones.  The
weights do not depend on the draws either: the Hedge recurrence runs over
the matrix rows first, holding one plain list of weights and keeping each
round's, and one pass then draws every round's grid point from them
(``_draws``), as ``Generator.choice`` draws it from the round's stream.
The grid designs of a block's predictions are looked up in a bounded
process-wide cache of one read-only (G, k) array per prediction, and the
predictions it misses are built together, in stream order, by one batched
pass (``augmented._construct_grid``); a block's thresholds are the
concatenation of one such array per window.  Where the batch raises, its
predictions are designed one at a time, and a failing one one confidence
at a time, so the first failing design raises its own error.
The Hedge rounds run in ``learner._hedge``, which the harness also calls on
ratio rows it replayed itself; ``run_learning`` returns the final weights
and the regret records.  A weight may underflow to 0 on a long or lopsided
stream; it then stays at 0, and a round in which every weight underflows is
redone in log space.

Regret is reported against the best fixed grid point in hindsight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import OrderedDict

import numpy as np

from .augmented import _construct_grid, _snap_prediction, design
from .core import PriceBounds, ProblemKind, ThresholdSchedule, offline_opt, ota_totals
from .core import _replay_window_bytes, _span_steps
from .errors import InvalidInputError, KSearchError
from .instances import ExperimentWindow

DEFAULT_GRID_SIZE = 33
GRID = tuple(i / (DEFAULT_GRID_SIZE - 1) for i in range(DEFAULT_GRID_SIZE))
# the replay kernel's arrays for one block of windows stay under this size
_REPLAY_BLOCK_BYTES = 4 << 20
# the grid design cache holds as many thresholds as 65,536 single designs
_GRID_CACHE_ENTRIES = (1 << 16) // len(GRID)
_grid_cache: OrderedDict = OrderedDict()
# the key ranges whose uniforms ``_uniforms`` keeps, least recently used
# dropped first: a run draws one Hedge range and one hardening range
_UNIFORM_CACHE_RANGES = 8
_uniform_cache: OrderedDict = OrderedDict()
# how far from 1 ``Generator.choice`` lets the probabilities sum
_SUM_TOLERANCE = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class RegretRecord:
    """One learning round relative to the hindsight-best fixed confidence."""

    round: int
    chosen_lambda: float
    chosen_ratio: float
    best_fixed_ratio: float
    cumulative_regret: float

    def __post_init__(self):
        if self.round < 1:
            raise InvalidInputError(f"rounds are 1-based, got {self.round}")
        if self.chosen_ratio < 1.0 - 1e-9:
            raise InvalidInputError(
                f"performance ratios are >= 1, got {self.chosen_ratio}"
            )


def _grid_thresholds(predictions, bounds: PriceBounds, k: int, kind: ProblemKind):
    """Read-only (G, k) thresholds of the grid designs at each prediction,
    one row per confidence in ``GRID`` order: all the replay reads of them.

    They come from a process-wide cache of ``_GRID_CACHE_ENTRIES`` arrays,
    which drops the least recently used; the predictions it misses are
    designed together by ``_design_grids``, in stream order."""
    keys = [(prediction, bounds, k, kind) for prediction in predictions]
    misses = [key for key in dict.fromkeys(keys) if key not in _grid_cache]
    if misses:
        _grid_cache.update(zip(misses, _design_grids([key[0] for key in misses], bounds, k, kind)))
    grids = []
    for key in keys:
        _grid_cache.move_to_end(key)
        grids.append(_grid_cache[key])
    while len(_grid_cache) > _GRID_CACHE_ENTRIES:
        _grid_cache.popitem(last=False)
    return grids


def _design_grids(predictions, bounds: PriceBounds, k: int, kind: ProblemKind):
    """Read-only (G, k) thresholds of the grid designs at each prediction,
    each its own array, uncached.

    All rows come from one batched construction.  Where it raises, the
    predictions are designed one at a time, and where that raises, one
    confidence at a time; so the first failing prediction's first failing
    design raises its own error, with the call it carries."""
    try:
        batch = _construct_grid(
            [_snap_prediction(prediction, bounds) for prediction in predictions],
            GRID, bounds, k, kind)
        grids = [batch[at:at + len(GRID)].copy() for at in range(0, len(batch), len(GRID))]
    except (KSearchError, ArithmeticError, ValueError):
        if len(predictions) > 1:
            return [_design_grids([prediction], bounds, k, kind)[0] for prediction in predictions]
        grids = [np.empty((len(GRID), k))]
        for g, lam in enumerate(GRID):
            grids[0][g] = design(predictions[0], lam, bounds, k, kind).schedule.values
    for rows in grids:
        rows.flags.writeable = False
    return grids


def _replay_ratios(
    windows: tuple[ExperimentWindow, ...], kind: ProblemKind,
    extra: tuple[ThresholdSchedule, ...] = (),
) -> np.ndarray:
    """(W, G + E) ratios: each window under every grid design, then each extra.

    Every window must have the first window's budget and price band; a
    window that does not is reported after the designs of the windows
    before it, so errors keep stream order.

    Windows are replayed a block at a time by ``core.ota_totals``: a block is
    a run of consecutive windows of one horizon, as many as keep the kernel's
    arrays within ``_REPLAY_BLOCK_BYTES`` (``_blocks``).  The grid designs
    of a block are looked up together, as one (G, k) array per prediction
    (the byte budget bounds the batch that designs the misses, too), the
    extra rows are appended to each, and each window's offline optimum is
    computed once.
    """
    k, bounds = windows[0].instance.k, windows[0].instance.bounds
    runs = len(GRID) + len(extra)
    extra_rows = np.array([schedule.values for schedule in extra], dtype=float).reshape(-1, k)
    ratios = np.empty((len(windows), runs))
    for start, stop in _blocks(windows, k, runs):
        block = windows[start:stop]
        agree = next((at for at, window in enumerate(block) if window.instance.k != k
                      or window.instance.bounds != bounds), len(block))
        grids = _grid_thresholds([window.prediction for window in block[:agree]], bounds, k, kind)
        if agree < len(block):
            other = block[agree].instance
            if other.k != k:
                raise InvalidInputError(f"window budget {other.k} != first window's {k}")
            raise InvalidInputError("window and first window disagree on price bounds")
        thresholds = [part for rows in grids for part in (rows, extra_rows)]
        opts = np.array([offline_opt(window.instance, kind) for window in block])[:, None]
        prices = [window.instance.prices for window in block]
        rows = np.repeat(np.arange(len(block)), runs)
        totals, _ = ota_totals(np.concatenate(thresholds), prices, rows, kind)
        totals = totals.reshape(len(block), runs)
        ratios[start:stop] = opts / totals if kind.is_max else totals / opts
    return ratios


def _blocks(windows: tuple[ExperimentWindow, ...], k: int, runs: int):
    """(start, stop) of each block: consecutive windows of one horizon, as
    many as keep the running sum of their ``_replay_window_bytes`` within
    ``_REPLAY_BLOCK_BYTES`` (at least one).  A window is charged for the
    prices it adds to the block's span, so overlapping windows pack more
    per block than disjoint ones."""
    prices = [window.instance.prices for window in windows]
    steps = _span_steps(prices)
    start = 0
    while start < len(windows):
        horizon = prices[start].size
        held = _replay_window_bytes(horizon, k, runs)
        stop = start + 1
        while stop < len(windows) and prices[stop].size == horizon:
            held += _replay_window_bytes(horizon, k, runs, steps[stop])
            if held > _REPLAY_BLOCK_BYTES:
                break
            stop += 1
        yield start, stop
        start = stop


def _draws(weights: np.ndarray, keys) -> np.ndarray:
    """The index each row of ``weights`` draws from the Philox stream of its
    key: ``Generator(Philox(key)).choice(G, p=row / row.sum())``, taken for
    every row in one pass.

    As ``choice`` does, each row's probabilities are accumulated and scaled
    so that the last is 1, and the draw counts those at or below the
    stream's first double (``_uniforms``).
    Probabilities that are negative, NaN or do not sum to 1 within sqrt(eps)
    raise ValueError, as they do in ``choice``."""
    probs = weights / weights.sum(axis=1, keepdims=True)
    if not ((probs >= 0.0).all() and (abs(probs.sum(axis=1) - 1.0) <= _SUM_TOLERANCE).all()):
        raise ValueError("probabilities are negative, NaN or do not sum to 1")
    cdf = np.cumsum(probs, axis=1, out=probs)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= _uniforms(keys)[:, None], axis=1)


def _uniforms(keys) -> np.ndarray:
    """The first double of the Philox stream of each key, as
    ``Generator(Philox(key)).random()`` draws it: the top 53 bits of the
    stream's first raw output, times 2^-53, as a read-only array.

    The draws of a ``range`` of keys are taken once per process and kept:
    the sweep's cells and groups and both kinds of ``learn`` draw the same
    ranges again."""
    if isinstance(keys, range) and keys in _uniform_cache:
        _uniform_cache.move_to_end(keys)
        return _uniform_cache[keys]
    uniform = np.array([np.random.Philox(key).random_raw() >> 11 for key in keys], dtype=float)
    uniform *= 2.0**-53
    uniform.flags.writeable = False
    if isinstance(keys, range):
        _uniform_cache[keys] = uniform
        if len(_uniform_cache) > _UNIFORM_CACHE_RANGES:
            _uniform_cache.popitem(last=False)
    return uniform


def run_learning(
    windows, kind: ProblemKind, seed: int
) -> tuple[tuple[float, ...], tuple[RegretRecord, ...]]:
    """Run Hedge over a window stream and report per-round regret.

    Returns the final weights (aligned with ``GRID``) and the records.  The
    ratios do not depend on the weights, so the whole (W, G) ratio matrix is
    replayed first and ``_hedge`` then runs the rounds over it.
    """
    windows = tuple(windows)
    if not windows:
        raise InvalidInputError("run_learning needs at least one window")
    return _hedge(_replay_ratios(windows, kind), seed)


def _hedge(by_round: np.ndarray, seed: int) -> tuple[tuple[float, ...], tuple[RegretRecord, ...]]:
    """The final weights and the regret records of Hedge over the (W, G)
    ratios of W rounds, one row per round in ``GRID`` order.

    Round t draws a grid index with probability proportional to its weight,
    from a Philox stream keyed by seed * 2^20 + t, observes every grid
    point's ratio, and multiplies each weight by exp(-rate * (ratio - 1)),
    rate = sqrt(8 ln G / rounds), before renormalizing.  The regret baseline
    is fixed at the horizon: the grid point with the smallest total ratio
    over the whole stream; each record's best_fixed_ratio is that point's
    ratio in that round.  The weights do not depend on the draws, so the
    weight recurrence runs over the rows first, and one pass draws every
    round from the weights it held.
    """
    rounds = len(by_round)
    if rounds >= 1 << 20:
        raise InvalidInputError("window streams beyond 2^20 rounds are unsupported")
    rate = math.sqrt(8.0 * math.log(len(GRID)) / rounds)
    held = np.empty(by_round.shape)  # each round's weights before its update
    weights = [1.0] * len(GRID)
    for t, row in enumerate(by_round):
        held[t] = weights
        ratios = row.tolist()
        raw = [w * math.exp(-rate * (r - 1.0)) for w, r in zip(weights, ratios)]
        total = math.fsum(raw)
        if total == 0.0:
            # every weight underflowed: redo the round in log space, shifted
            # by its largest exponent; a weight already at 0 stays at 0
            logs = [math.log(w) - rate * (r - 1.0) if w > 0.0 else -math.inf
                    for w, r in zip(weights, ratios)]
            top = max(logs)
            raw = [math.exp(x - top) for x in logs]
            total = math.fsum(raw)
        weights = [w / total for w in raw]
    picks = _draws(held, range(seed * (1 << 20), seed * (1 << 20) + rounds))
    chosen = by_round[np.arange(rounds), picks].tolist()

    totals = [math.fsum(col.tolist()) for col in by_round.T]
    best_idx = int(np.argmin(totals))
    records = []
    cum = 0.0
    best_ratios = by_round[:, best_idx].tolist()
    for t, (j, ratio, best) in enumerate(zip(picks.tolist(), chosen, best_ratios), start=1):
        cum += ratio - best
        records.append(RegretRecord(t, GRID[j], ratio, best, cum))
    return tuple(weights), tuple(records)
