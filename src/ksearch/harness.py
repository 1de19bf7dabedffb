"""Windowed experiment pipeline shared by the CLI and scripts.

One evaluation compares three selection policies on the same window stream:

- ``ota-on``         the worst-case schedule (confidence 1, prediction ignored)
- ``ota-hindsight``  the best fixed grid confidence for each window, found by
                     replaying the window against every grid design after the
                     fact
- ``ota-learned``    the confidence sampled round-by-round by the Hedge
                     loop of ``learner.run_learning``

The budget k and the price band come from the windows (the first one,
which the rest must match); the confidence grid is the learner's ``GRID``.

A sweep evaluates that triple over a cross product of stress parameters
(tail-hardening probability rho, prediction error level, budget k, and a
fluctuation-ratio multiplier), one cell at a time.  Cells are independent,
so they can run in a process pool; results are sorted by cell key so the
output does not depend on scheduling.

Tail hardening is *coupled* across cells: the Bernoulli draw for window i
uses a seed derived from (run seed, i) only, so the set of windows hardened
at rho = 0.1 is a subset of those hardened at rho = 0.2, making the rho
sweep a genuinely nested stress test.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

from .core import ProblemKind
from .errors import ConstructionError, InvalidInputError
from .instances import (
    ExperimentWindow,
    PriceSeries,
    adjust_error,
    apply_rho_hard,
    scale_theta,
    sliding_windows,
)
from .learner import GRID, run_learning
from .worstcase import worst_case_thresholds

ALGORITHMS = ("ota-on", "ota-hindsight", "ota-learned")

# Hardening draws must never share a Philox key with the learner's
# per-round selection draws (seed * 2^20 + t with t < 2^20), so they live
# in a disjoint key range.
_HARDEN_KEY_OFFSET = 1 << 63


@dataclass(frozen=True)
class WindowResult:
    """The three policies' empirical ratios on one window."""

    index: int
    on_ratio: float
    hindsight_ratio: float
    hindsight_lambda: float
    learned_ratio: float
    learned_lambda: float

    def ratio(self, algorithm: str) -> float:
        return {
            "ota-on": self.on_ratio,
            "ota-hindsight": self.hindsight_ratio,
            "ota-learned": self.learned_ratio,
        }[algorithm]

    def confidence(self, algorithm: str) -> float:
        return {
            "ota-on": 1.0,
            "ota-hindsight": self.hindsight_lambda,
            "ota-learned": self.learned_lambda,
        }[algorithm]


@dataclass(frozen=True)
class SweepCell:
    """One point of the stress cross-product."""

    rho: float
    error_level: float
    k: int
    theta_mult: float

    def key(self) -> tuple[float, float, int, float]:
        return (self.rho, self.error_level, self.k, self.theta_mult)


@dataclass(frozen=True)
class CellSummary:
    """Aggregate ratios of one algorithm over one sweep cell."""

    cell: SweepCell
    algorithm: str
    window_count: int
    mean: float
    median: float
    q1: float
    q3: float


def summarize(values) -> tuple[float, float, float, float]:
    """(mean, median, q1, q3) of a non-empty sample, inclusive quartiles."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise InvalidInputError("cannot summarize an empty sample")
    if len(vals) == 1:
        only = vals[0]
        return only, only, only, only
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return statistics.fmean(vals), med, q1, q3


def evaluate_windows(windows, kind: ProblemKind, seed: int) -> tuple[WindowResult, ...]:
    """Run the three policies over a window stream.

    The hindsight policy reads each window's best grid confidence from the
    ratios the learner observed, and the worst-case schedule is one more run
    per window in the same block replay, so every (window, schedule) pair is
    replayed once and every window's offline optimum is computed once.  The
    worst-case schedule is built for the first window's price band and
    budget, which every window must share.  The worst-case guarantee is
    re-checked on every window: the confidence-1 schedule must stay within
    its competitive ratio, and the hindsight-best grid confidence can never
    lose to it (the grid contains 1).  A violation means a designed schedule
    is wrong, so it raises ConstructionError.
    """
    windows = tuple(windows)
    if not windows:
        raise InvalidInputError("evaluate_windows needs at least one window")
    first = windows[0].instance
    solution = worst_case_thresholds(first.bounds, first.k, kind)
    _, history, matrix = run_learning(windows, kind, seed, extra=(solution.schedule,))

    results = []
    for idx, (record, row) in enumerate(zip(history, matrix)):
        ratios = row.tolist()
        on_ratio = ratios[len(GRID)]  # the worst-case schedule's column
        if on_ratio > solution.cr + 1e-6:
            raise ConstructionError(
                f"worst-case guarantee violated on window {idx}: "
                f"ratio {on_ratio} > {solution.cr} + 1e-6"
            )
        best = min(range(len(GRID)), key=lambda j: (ratios[j], j))
        if ratios[best] > on_ratio * (1.0 + 1e-12):
            raise ConstructionError(
                f"hindsight-best confidence lost to the worst-case schedule "
                f"on window {idx}: {ratios[best]} > {on_ratio}"
            )
        results.append(
            WindowResult(
                index=idx,
                on_ratio=on_ratio,
                hindsight_ratio=ratios[best],
                hindsight_lambda=GRID[best],
                learned_ratio=record.chosen_ratio,
                learned_lambda=record.chosen_lambda,
            )
        )
    return tuple(results)


def stress_windows(
    windows,
    kind: ProblemKind,
    rho: float,
    error_level: float,
    seed: int,
) -> tuple[ExperimentWindow, ...]:
    """Dial each window's prediction error, then harden tails with prob. rho.

    The error level is applied first: hardening models corruption that
    arrives after the forecast is made, so a "perfect" prediction stays
    anchored to the pre-corruption extreme, and a hardened window keeps the
    prediction it was given.
    """
    out = []
    for idx, window in enumerate(windows):
        window = adjust_error(window, error_level, kind)
        hardened = apply_rho_hard(
            window.instance, rho, seed * (1 << 20) + idx + _HARDEN_KEY_OFFSET, kind
        )
        out.append(ExperimentWindow(hardened, window.prediction))
    return tuple(out)


def build_cells(rhos, error_levels, ks, theta_mults) -> tuple[SweepCell, ...]:
    """Cross product of stress parameters, sorted by cell key."""
    cells = [
        SweepCell(rho, level, k, mult)
        for rho, level, k, mult in product(rhos, error_levels, ks, theta_mults)
    ]
    return tuple(sorted(cells, key=SweepCell.key))


def run_cell(
    series: PriceSeries,
    cell: SweepCell,
    kind: ProblemKind,
    seed: int,
    window_len: int,
    stride: int,
) -> tuple[CellSummary, ...]:
    """Evaluate the three policies on one sweep cell of a base series."""
    scaled = scale_theta(series, cell.theta_mult) if cell.theta_mult != 1.0 else series
    windows = sliding_windows(scaled, window_len, stride, cell.k, kind)
    windows = stress_windows(windows, kind, cell.rho, cell.error_level, seed)
    results = evaluate_windows(windows, kind, seed)
    summaries = []
    for algorithm in ALGORITHMS:
        mean, median, q1, q3 = summarize(r.ratio(algorithm) for r in results)
        summaries.append(
            CellSummary(cell, algorithm, len(results), mean, median, q1, q3)
        )
    return tuple(summaries)


def _run_cell_task(task) -> tuple[CellSummary, ...]:
    return run_cell(*task)


def run_sweep(
    series: PriceSeries,
    cells,
    kind: ProblemKind,
    seed: int,
    window_len: int,
    stride: int,
    workers: int = 1,
) -> tuple[CellSummary, ...]:
    """Evaluate every sweep cell, optionally in a process pool.

    The output is sorted by (cell key, algorithm) and is identical for any
    worker count.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise InvalidInputError(f"workers must be a positive integer, got {workers}")
    cells = tuple(cells)
    if not cells:
        raise InvalidInputError("run_sweep needs at least one cell")
    tasks = [(series, cell, kind, seed, window_len, stride) for cell in cells]
    if workers == 1 or len(cells) == 1:
        groups = [_run_cell_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_run_cell_task, tasks))
    flat = [summary for group in groups for summary in group]
    return tuple(sorted(flat, key=lambda s: (s.cell.key(), s.algorithm)))
