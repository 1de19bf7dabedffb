"""Windowed experiment pipeline shared by the CLI and scripts.

One evaluation compares three selection policies on the same window stream:

- ``ota-on``         the worst-case schedule (confidence 1, prediction ignored)
- ``ota-hindsight``  the best fixed grid confidence for each window, found by
                     replaying the window against every grid design after the
                     fact
- ``ota-learned``    the confidence sampled round-by-round by the Hedge
                     rounds of ``learner._hedge``, which ``run_learning``
                     also runs

The budget k, the price band and the kind come from the window stream
(``core.WindowStream``, windows as offsets into one price array); the
confidence grid is the learner's ``GRID``.  ``evaluate_windows`` takes one
stream and gives each policy's columns: its ratio and its confidence on
every window, in window order.  The CLI and the sweep replay the streams
that ``sliding_windows`` cuts straight from the series.

A sweep evaluates that triple over a cross product of stress parameters
(tail-hardening probability rho, prediction error level, budget k, and a
fluctuation-ratio multiplier), one group of cells at a time: the cells that
share (error level, k, theta multiplier) differ only in rho.  Groups are
independent, so they can run in a process pool; results are sorted by cell
key so the output does not depend on scheduling.

Tail hardening happens inside a group: with probability rho a window's
last k prices become the worst-case tail, p_min for max-search and p_max
for min-search.  It is *coupled* across cells: window i's uniform draw
comes from a Philox stream keyed by (run seed, i) only, and the window is
hardened at every rho above it, so the set of windows hardened at
rho = 0.1 is a subset of those hardened at rho = 0.2, making the rho sweep
a genuinely nested stress test.  A group's cells therefore see each window
in at most two versions, plain and hardened, and the group replays each
window once: a hardened window equals the plain one before its tail, so
its ratios are derived from the plain window's runs in the same replay
block (``learner._stream_ratios``), with no copy of its prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, product

import numpy as np

from .core import ProblemKind, _instance, _integer, _unit
from .errors import ConstructionError, InvalidInputError
from .instances import (
    PriceSeries, WindowStream, _theta_multiplier, adjust_error, scale_theta, sliding_windows,
)
from .learner import _HARDEN_KEY_OFFSET, GRID, _hedge, _keys, _stream_ratios, _uniforms
from .worstcase import WorstCaseSolution, worst_case_thresholds

ALGORITHMS = ("ota-on", "ota-hindsight", "ota-learned")


@dataclass(frozen=True, order=True)
class SweepCell:
    """One point of the stress cross-product, ordered by its fields: rho,
    error level, k, theta multiplier (the cell key).  The fields hold
    floats and an int, each checked here: a rho or error level outside
    [0, 1], or a theta multiplier that is not finite and >= 1, raises
    DomainError, and a k that is not an integer >= 1 InvalidInputError."""

    rho: float
    error_level: float
    k: int
    theta_mult: float

    def __post_init__(self):
        for name, value in (("rho", _unit("rho", self.rho)),
                            ("error_level", _unit("error level", self.error_level)),
                            ("k", _integer("k", self.k, 1)),
                            ("theta_mult", _theta_multiplier(self.theta_mult))):
            object.__setattr__(self, name, value)


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
    """(mean, median, q1, q3) of a non-empty sample, bit for bit as
    ``statistics.fmean`` and ``statistics.quantiles(n=4, method="inclusive")``
    give them: quartile i interpolates the sorted values at i * (n - 1) / 4."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise InvalidInputError("cannot summarize an empty sample")
    n = len(vals)
    mean = math.fsum(vals) / n
    vals.append(vals[-1])  # so that one value interpolates to itself
    q1, med, q3 = ((vals[j] * (4 - d) + vals[j + 1] * d) / 4
                   for j, d in (divmod(i * (n - 1), 4) for i in (1, 2, 3)))
    return mean, med, q1, q3


def evaluate_windows(stream: WindowStream, seed: int) -> dict[str, tuple[list[float], list[float]]]:
    """Run the three policies over a window stream, for the stream's kind.

    Returns a dict that maps each name in ``ALGORITHMS`` to its (ratios,
    confidences) columns, one entry per window in stream order.  The
    worst-case schedule is built for the stream's price band, budget and
    kind, and is one more run per window in the learner's block replay, so
    every (window, schedule) pair is replayed once and every window's
    offline optimum is computed once; ``_window_results`` then reads the
    policies off the ratio matrix.
    """
    _instance("stream", stream, WindowStream)
    solution = worst_case_thresholds(stream.bounds, stream.k, stream.kind)
    return _window_results(_stream_ratios(stream, (solution.schedule,)), seed, solution)


def _window_results(
    matrix: np.ndarray, seed: int, solution: WorstCaseSolution
) -> dict[str, tuple[list[float], list[float]]]:
    """The three policies' (ratios, confidences) columns, keyed by their
    ``ALGORITHMS`` names, over the rows of a (W, G + 1) ratio matrix: a
    column per grid point, then the worst-case schedule ``solution``'s.

    The learned policy is the Hedge loop over the rows (``learner._hedge``),
    the hindsight policy is each row's best grid confidence, and ``ota-on``
    has confidence 1 on every row.  The worst-case guarantee is re-checked
    on every row: the confidence-1 schedule must stay within its
    competitive ratio, and the hindsight-best grid confidence can never
    lose to it (the grid contains 1).  A violation means a designed
    schedule is wrong, so the first row with one raises ConstructionError,
    the first check first.
    """
    _, history = _hedge(matrix[:, : len(GRID)], seed)
    grid, on = matrix[:, : len(GRID)], matrix[:, len(GRID)]  # the worst-case schedule's column
    best = np.argmin(grid, axis=1)  # of equal ratios, the smallest confidence
    hindsight = grid[np.arange(len(grid)), best]
    over = on > solution.cr + 1e-6
    lost = hindsight > on * (1.0 + 1e-12)
    on, hindsight = on.tolist(), hindsight.tolist()
    failing = np.flatnonzero(over | lost)
    if failing.size:
        idx = int(failing[0])
        if over[idx]:
            raise ConstructionError(
                f"worst-case guarantee violated on window {idx}: "
                f"ratio {on[idx]} > {solution.cr} + 1e-6"
            )
        raise ConstructionError(
            f"hindsight-best confidence lost to the worst-case schedule "
            f"on window {idx}: {hindsight[idx]} > {on[idx]}"
        )
    return {
        "ota-on": (on, [1.0] * len(on)),
        "ota-hindsight": (hindsight, [GRID[j] for j in best.tolist()]),
        "ota-learned": (history.chosen_ratio, history.chosen_lambda),
    }


def _hardening_draws(seed: int, count: int) -> list[float]:
    """The uniform draws of a run's first ``count`` windows."""
    return _uniforms(_keys(seed, _HARDEN_KEY_OFFSET, count)).tolist()


def build_cells(rhos, error_levels, ks, theta_mults) -> tuple[SweepCell, ...]:
    """Cross product of stress parameters, sorted by cell key."""
    cells = [
        SweepCell(rho, level, k, mult)
        for rho, level, k, mult in product(rhos, error_levels, ks, theta_mults)
    ]
    return tuple(sorted(cells))


def run_sweep(
    series: PriceSeries,
    cells,
    kind: ProblemKind,
    seed: int,
    window_len: int,
    stride: int,
    workers: int = 1,
) -> tuple[CellSummary, ...]:
    """Evaluate every sweep cell, one group of cells at a time, optionally in
    a process pool of at most one worker per group.

    Every cell is checked to be a ``SweepCell`` (which checks every field
    when it is made) before any cell runs.  The cells that share (error
    level, k, theta multiplier) form a group, which ``_run_group``
    evaluates from one replay; groups run in (error level, k, theta
    multiplier) order.  Every group runs; then the first failing cell in
    key order raises, so the error is the one the cells would raise run
    one by one in that order, whatever its type.  The output is sorted by
    (cell, algorithm), one copy of a cell's rows for each time the cell is
    given, and is identical for any worker count.
    """
    workers = _integer("workers", workers, 1)
    _instance("series", series, PriceSeries)
    cells = tuple(cells)
    if not cells:
        raise InvalidInputError("run_sweep needs at least one cell")
    for cell in cells:
        _instance("cell", cell, SweepCell)
    order = sorted(set(cells))
    by_key = {}
    for cell in order:
        by_key.setdefault((cell.error_level, cell.k, cell.theta_mult), []).append(cell)
    groups = [by_key[key] for key in sorted(by_key)]
    run = partial(_run_group, series, kind=kind, seed=seed, window_len=window_len, stride=stride)
    if workers == 1 or len(groups) == 1:
        outcomes = dict(chain.from_iterable(map(run, groups)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only where a sweep pools

        with ProcessPoolExecutor(max_workers=min(workers, len(groups))) as pool:
            outcomes = dict(chain.from_iterable(pool.map(run, groups)))
    for cell in order:
        if isinstance(outcomes[cell], Exception):
            raise outcomes[cell]
    flat = [summary for cell in cells for summary in outcomes[cell]]
    return tuple(sorted(flat, key=lambda s: (s.cell, s.algorithm)))


def _run_group(
    series: PriceSeries,
    cells,
    kind: ProblemKind,
    seed: int,
    window_len: int,
    stride: int,
):
    """Evaluate the cells of one (error level, k, theta multiplier) group,
    sorted by rho, from one replay.

    The series is scaled and cut into a stream of windows once, the
    windows' prediction error is dialled once, each window's hardening
    draw is taken once, and the group replays its W plain windows once,
    with the worst-case schedule as the extra column.
    The same replay gives the rows of the windows hardened at its largest
    rho, after the W plain rows.  A cell's row for window i is the hardened
    one where the cell's rho is above window i's draw; hardening comes
    after the error is dialled, so a hardened window keeps the prediction
    it was given.  Returns (cell, summaries) for each cell in order, ending
    at the first failing cell with (cell, the exception it raised): the
    cells it leaves out have a larger rho, so they come after that cell in
    key order, and ``run_sweep`` raises before it looks one up.
    """
    done = []
    try:
        head = cells[0]
        scaled = scale_theta(series, head.theta_mult) if head.theta_mult != 1.0 else series
        plain = adjust_error(sliding_windows(scaled, window_len, stride, head.k, kind),
                             head.error_level)
        draws = _hardening_draws(seed, len(plain))
        top = max(cell.rho for cell in cells)
        hard = [idx for idx, draw in enumerate(draws) if draw < top]
        solution = worst_case_thresholds(plain.bounds, plain.k, kind)
        matrix = _stream_ratios(plain, (solution.schedule,), hard)
        hard_row = dict(zip(hard, range(len(plain), len(plain) + len(hard))))
        for cell in cells:
            rows = [hard_row[idx] if draw < cell.rho else idx for idx, draw in enumerate(draws)]
            results = _window_results(matrix[rows], seed, solution)
            done.append((cell, tuple(
                CellSummary(cell, algorithm, len(rows), *summarize(results[algorithm][0]))
                for algorithm in ALGORITHMS
            )))
    except Exception as error:  # re-raised by run_sweep, in cell key order
        done.append((cells[len(done)], error))
    return done

