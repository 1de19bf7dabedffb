"""Online selection of the confidence factor via multiplicative weights.

Repeated k-search rounds form a full-information online learning problem:
after each round, the counterfactual ratio of *every* candidate confidence
value is computable by replaying the round's window against that value's
threshold design.  The learner keeps exponential (Hedge) weights over a
fixed grid of confidence values, samples proportionally to the weights,
and updates with loss = ratio - 1 so a perfect round costs nothing.

Regret is reported against the best fixed grid point in hindsight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .augmented import design
from .core import PriceBounds, ProblemKind, offline_opt, ota_total
from .errors import InvalidInputError
from .instances import ExperimentWindow

DEFAULT_GRID_SIZE = 33


@dataclass(frozen=True)
class LambdaLearner:
    """Hedge state: a confidence grid with strictly positive weights."""

    grid: tuple[float, ...]
    weights: tuple[float, ...]
    learning_rate: float
    rounds_seen: int = 0

    def __post_init__(self):
        grid = tuple(float(g) for g in self.grid)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        if not grid:
            raise InvalidInputError("confidence grid must be non-empty")
        if any(not 0.0 <= g <= 1.0 for g in grid):
            raise InvalidInputError(f"grid values must lie in [0,1], got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInputError("grid must be strictly ascending")
        if len(weights) != len(grid):
            raise InvalidInputError(
                f"{len(weights)} weights for {len(grid)} grid points"
            )
        if any(not (w > 0 and math.isfinite(w)) for w in weights):
            raise InvalidInputError("weights must be strictly positive and finite")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise InvalidInputError(
                f"learning rate must be positive, got {self.learning_rate}"
            )
        if self.rounds_seen < 0:
            raise InvalidInputError("rounds_seen cannot be negative")


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


def make_learner(
    grid: tuple[float, ...] | None = None,
    horizon: int | None = None,
    learning_rate: float | None = None,
) -> LambdaLearner:
    """Fresh learner with uniform weights over a [0,1] confidence grid.

    The default grid is 33 uniform points including both endpoints.  Without
    an explicit learning rate the rate is sqrt(8*ln(grid size)/horizon).
    """
    if grid is None:
        grid = tuple(i / (DEFAULT_GRID_SIZE - 1) for i in range(DEFAULT_GRID_SIZE))
    grid = tuple(float(g) for g in grid)
    if not grid or grid[0] != 0.0 or grid[-1] != 1.0:
        raise InvalidInputError(
            f"a learner grid must include both endpoints 0 and 1, got {grid}"
        )
    if learning_rate is None:
        if horizon is None:
            raise InvalidInputError("make_learner needs a learning_rate or a horizon")
        if horizon < 1:
            raise InvalidInputError(f"horizon must be positive, got {horizon}")
        learning_rate = math.sqrt(8.0 * math.log(len(grid)) / horizon)
    return LambdaLearner(grid, (1.0,) * len(grid), learning_rate, 0)


def select_lambda(learner: LambdaLearner, seed: int) -> float:
    """Sample a grid point with probability proportional to its weight."""
    weights = np.asarray(learner.weights)
    probs = weights / weights.sum()
    rng = np.random.Generator(np.random.Philox(seed))
    return learner.grid[int(rng.choice(len(probs), p=probs))]


@lru_cache(maxsize=1 << 16)
def _cached_design(prediction: float, lam: float, bounds: PriceBounds, k: int, kind: ProblemKind):
    return design(prediction, lam, bounds, k, kind)


def round_ratios(
    window: ExperimentWindow, kind: ProblemKind, bounds: PriceBounds, k: int,
    grid: tuple[float, ...],
) -> tuple[float, ...]:
    """Counterfactual empirical ratio of every grid confidence on one window."""
    inst = window.instance
    if inst.k != k:
        raise InvalidInputError(f"window budget {inst.k} != learner budget {k}")
    if inst.bounds != bounds:
        raise InvalidInputError("window and learner disagree on price bounds")
    opt = offline_opt(inst, kind)
    prices = np.asarray(inst.prices)
    out = []
    for lam in grid:
        schedule = _cached_design(window.prediction, lam, bounds, k, kind).schedule
        total, _ = ota_total(schedule, prices)
        out.append(opt / total if kind.is_max else total / opt)
    return tuple(out)


def _updated(learner: LambdaLearner, ratios: tuple[float, ...]) -> LambdaLearner:
    """Hedge update: weight *= exp(-rate * (ratio - 1)), then renormalize."""
    rate = learner.learning_rate
    raw = [
        w * math.exp(-rate * (r - 1.0))
        for w, r in zip(learner.weights, ratios)
    ]
    total = math.fsum(raw)
    return LambdaLearner(
        learner.grid,
        tuple(w / total for w in raw),
        rate,
        learner.rounds_seen + 1,
    )


def run_learning(
    windows,
    kind: ProblemKind,
    bounds: PriceBounds,
    k: int,
    seed: int,
    grid: tuple[float, ...] | None = None,
    learning_rate: float | None = None,
) -> tuple[LambdaLearner, tuple[RegretRecord, ...]]:
    """Drive the learner over a window stream and report per-round regret.

    Round t samples its confidence with a per-round seed derived from
    (seed, t), observes every grid point's ratio, and updates the weights.
    The regret baseline is fixed at the horizon: the grid point with the
    smallest total ratio over the whole stream; each record's
    best_fixed_ratio is that point's ratio in that round.
    """
    learner, records, _ = _learn(windows, kind, bounds, k, seed, grid, learning_rate)
    return learner, records


def _learn(
    windows,
    kind: ProblemKind,
    bounds: PriceBounds,
    k: int,
    seed: int,
    grid: tuple[float, ...] | None,
    learning_rate: float | None,
) -> tuple[LambdaLearner, tuple[RegretRecord, ...], list[tuple[float, ...]]]:
    """run_learning plus the per-round ratios of every grid confidence."""
    windows = tuple(windows)
    if not windows:
        raise InvalidInputError("run_learning needs at least one window")
    if len(windows) >= 1 << 20:
        raise InvalidInputError("window streams beyond 2^20 rounds are unsupported")
    learner = make_learner(grid=grid, horizon=len(windows), learning_rate=learning_rate)
    chosen: list[tuple[float, float]] = []  # (lambda, ratio) per round
    matrix: list[tuple[float, ...]] = []
    for t, window in enumerate(windows):
        lam = select_lambda(learner, seed * (1 << 20) + t)
        ratios = round_ratios(window, kind, bounds, k, learner.grid)
        chosen.append((lam, ratios[learner.grid.index(lam)]))
        matrix.append(ratios)
        learner = _updated(learner, ratios)

    totals = [math.fsum(col) for col in zip(*matrix)]
    best_idx = int(np.argmin(totals))
    records = []
    cum = 0.0
    for t, ((lam, ratio), ratios) in enumerate(zip(chosen, matrix), start=1):
        best = ratios[best_idx]
        cum += ratio - best
        records.append(RegretRecord(t, lam, ratio, best, cum))
    return learner, tuple(records), matrix


def regret_curve(history) -> tuple[tuple[int, float], ...]:
    """Average cumulative regret after each round of a learning history."""
    history = tuple(history)
    if not history:
        raise InvalidInputError("regret_curve needs a non-empty history")
    out = []
    cum = 0.0
    for n, record in enumerate(history, start=1):
        cum += record.chosen_ratio - record.best_fixed_ratio
        out.append((record.round, cum / n))
    return tuple(out)
