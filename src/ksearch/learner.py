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
at a time through the batched kernel ``core.ota_totals`` (one descent over
the block's sparse table of price maxima per run and selection), and the
Hedge loop then runs over its rows, holding one plain list of weights.
The grid designs at one prediction are built in one batched pass
(``augmented._construct_grid``) and cached as one read-only (G, k) array,
so a block's thresholds are the concatenation of one such array per
window.  Where the batch raises, the prediction's designs are made one
confidence at a time, so a failing design raises its own error.
``run_learning`` returns the final weights, the regret records and that
matrix.  A weight may underflow to 0 on a long or lopsided stream; it then
stays at 0, and a round in which every weight underflows is redone in log
space.

Regret is reported against the best fixed grid point in hindsight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .augmented import _construct_grid, design
from .core import PriceBounds, ProblemKind, ThresholdSchedule, offline_opt, ota_totals
from .core import _replay_window_bytes
from .errors import InvalidInputError, KSearchError
from .instances import ExperimentWindow

DEFAULT_GRID_SIZE = 33
GRID = tuple(i / (DEFAULT_GRID_SIZE - 1) for i in range(DEFAULT_GRID_SIZE))
# the replay kernel's arrays for one block of windows stay under this size
_REPLAY_BLOCK_BYTES = 4 << 20


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


@lru_cache(maxsize=(1 << 16) // len(GRID))
def _grid_thresholds(prediction: float, bounds: PriceBounds, k: int, kind: ProblemKind):
    """Read-only (G, k) thresholds of the grid designs at one prediction,
    one row per confidence in ``GRID`` order: all the replay reads of them.

    The rows come from one batched construction; where it raises, they are
    designed one confidence at a time, so a failing design raises its own
    error, with the call it carries."""
    try:
        rows = _construct_grid(prediction, GRID, bounds, k, kind)
    except (KSearchError, ArithmeticError, ValueError):
        rows = np.empty((len(GRID), k))
        for g, lam in enumerate(GRID):
            rows[g] = design(prediction, lam, bounds, k, kind).schedule.values
    rows.flags.writeable = False
    return rows


def _replay_ratios(
    windows: tuple[ExperimentWindow, ...], kind: ProblemKind,
    extra: tuple[ThresholdSchedule, ...] = (),
) -> np.ndarray:
    """(W, G + E) ratios: each window under every grid design, then each extra.

    Every window must have the first window's budget and price band.

    Windows are replayed a block at a time by ``core.ota_totals``: a block is
    a run of consecutive windows of one horizon, as many as keep the kernel's
    arrays within ``_REPLAY_BLOCK_BYTES``.  The grid designs of a window are
    looked up as one (G, k) array per prediction, the extra rows are
    appended to each, and each window's offline optimum is computed once.
    """
    k, bounds = windows[0].instance.k, windows[0].instance.bounds
    runs = len(GRID) + len(extra)
    extra_rows = np.array([schedule.values for schedule in extra], dtype=float).reshape(-1, k)
    ratios = np.empty((len(windows), runs))
    for start, stop in _blocks(windows, k, runs):
        block = windows[start:stop]
        opts, thresholds = [], []
        for window in block:
            inst = window.instance
            if inst.k != k:
                raise InvalidInputError(f"window budget {inst.k} != first window's {k}")
            if inst.bounds != bounds:
                raise InvalidInputError("window and first window disagree on price bounds")
            opts.append(offline_opt(inst, kind))
            thresholds += (_grid_thresholds(window.prediction, bounds, k, kind), extra_rows)
        prices = [window.instance.prices for window in block]
        rows = np.repeat(np.arange(len(block)), runs)
        totals, _ = ota_totals(np.concatenate(thresholds), prices, rows, kind)
        totals = totals.reshape(len(block), runs)
        opts = np.array(opts)[:, None]
        ratios[start:stop] = opts / totals if kind.is_max else totals / opts
    return ratios


def _blocks(windows: tuple[ExperimentWindow, ...], k: int, runs: int):
    """(start, stop) of each block: consecutive windows of one horizon."""
    start = 0
    while start < len(windows):
        horizon = windows[start].instance.horizon
        size = max(1, _REPLAY_BLOCK_BYTES // _replay_window_bytes(horizon, k, runs))
        stop = start + 1
        while (stop < len(windows) and stop - start < size
               and windows[stop].instance.horizon == horizon):
            stop += 1
        yield start, stop
        start = stop


def run_learning(
    windows,
    kind: ProblemKind,
    seed: int,
    extra: tuple[ThresholdSchedule, ...] = (),
) -> tuple[tuple[float, ...], tuple[RegretRecord, ...], np.ndarray]:
    """Run Hedge over a window stream and report per-round regret.

    Round t draws a grid index with probability proportional to its weight,
    from a Philox stream keyed by seed * 2^20 + t, observes every grid
    point's ratio, and multiplies each weight by exp(-rate * (ratio - 1)),
    rate = sqrt(8 ln G / rounds), before renormalizing.  The regret baseline
    is fixed at the horizon: the grid point with the smallest total ratio
    over the whole stream; each record's best_fixed_ratio is that point's
    ratio in that round.

    Returns the final weights (aligned with ``GRID``), the records, and the
    (W, G + E) ratio matrix: a column per grid point, then one per extra
    schedule.  The ratios do not depend on the weights, so the whole matrix
    is replayed first and the Hedge loop then runs over its rows.
    """
    windows = tuple(windows)
    if not windows:
        raise InvalidInputError("run_learning needs at least one window")
    if len(windows) >= 1 << 20:
        raise InvalidInputError("window streams beyond 2^20 rounds are unsupported")
    rate = math.sqrt(8.0 * math.log(len(GRID)) / len(windows))
    matrix = _replay_ratios(windows, kind, extra)
    by_round = matrix[:, : len(GRID)]
    weights = [1.0] * len(GRID)
    chosen: list[tuple[float, float]] = []  # (lambda, ratio) per round
    for t, row in enumerate(by_round):
        ratios = row.tolist()
        probs = np.asarray(weights)
        probs = probs / probs.sum()
        rng = np.random.Generator(np.random.Philox(seed * (1 << 20) + t))
        j = int(rng.choice(len(probs), p=probs))
        chosen.append((GRID[j], ratios[j]))
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

    totals = [math.fsum(col.tolist()) for col in by_round.T]
    best_idx = int(np.argmin(totals))
    records = []
    cum = 0.0
    best_ratios = by_round[:, best_idx].tolist()
    for t, ((lam, ratio), best) in enumerate(zip(chosen, best_ratios), start=1):
        cum += ratio - best
        records.append(RegretRecord(t, lam, ratio, best, cum))
    return tuple(weights), tuple(records), matrix
