"""Acceptance suite: twelve fixed criteria, one test (one line) per criterion.

Each test pins a documented guarantee of the package at its stated tolerance:
closed-form ratios and frontier identities, designed-schedule bounds checked
both analytically and by replaying adversarial instances, brute-force oracle
agreement, the synthetic-feed window count, learner convergence, and the
directional stress-sweep properties.  Runtime budgets are asserted where the
guarantee includes one.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from ksearch import (
    ALGORITHMS,
    FrontierSpec,
    ParetoPoint,
    PriceBounds,
    ProblemKind,
    SearchInstance,
    build_cells,
    design,
    gen_synthetic_series,
    interval_ratios,
    lower_bound,
    offline_opt,
    prediction_ratio,
    run_learning,
    run_ota,
    run_sweep,
    sliding_windows,
    solve_cr,
    worst_case_thresholds,
)
from ksearch.pareto import _sweep_count
from conftest import replay_ratios, stream_of
from adversaries import PInstanceSpec, gen_p_instance
from oracle import design_for_target, ota_total

MAX, MIN = ProblemKind.MAX, ProblemKind.MIN
THETA_GRID = (2.0, 10.0, 83.092)
K_GRID = (1, 5, 20, 100)
BAND = PriceBounds(5.0, 50.0)  # theta = 10 working band for design criteria


def _best_of(fn, repeats: int = 20) -> float:
    """Fastest wall-clock time of fn over several single-call runs."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_alpha_star_value_under_1ms():
    bounds = PriceBounds(1.0, 10.0)
    value = solve_cr(bounds, 20, ProblemKind.MAX)
    assert 2.15 <= value <= 2.17
    assert _best_of(lambda: solve_cr(bounds, 20, ProblemKind.MAX)) < 1e-3


def test_criterion_02_frontier_anchor_under_1ms():
    spec = FrontierSpec(PriceBounds(1.0, 10.0), 20, MAX)
    value = lower_bound(2.63, spec)
    assert 1.51 <= value <= 1.53
    assert _best_of(lambda: lower_bound(2.63, spec)) < 1e-3


def test_criterion_03_frontier_endpoint_identities():
    for theta, k in itertools.product(THETA_GRID, K_GRID):
        bounds = PriceBounds(1.0, theta)
        smax = FrontierSpec(bounds, k, MAX)
        assert abs(lower_bound(smax.cr_star, smax) - smax.cr_star) <= 1e-8
        assert abs(lower_bound(theta, smax) - 1.0) <= 1e-8
        smin = FrontierSpec(bounds, k, MIN)
        assert abs(lower_bound(smin.cr_star, smin) - smin.cr_star) <= 1e-8
        assert abs(lower_bound(theta, smin) - 1.0) <= 1e-8


def test_criterion_04_schedule_balancing_identities():
    for theta, k in itertools.product(THETA_GRID, K_GRID):
        bounds = PriceBounds(1.0, theta)
        sol = worst_case_thresholds(bounds, k, MAX)
        for ratio in interval_ratios(sol.schedule).tolist():
            assert abs(ratio / sol.cr - 1.0) <= 1e-8
        sol = worst_case_thresholds(bounds, k, MIN)
        for ratio in interval_ratios(sol.schedule).tolist():
            assert abs(ratio / sol.cr - 1.0) <= 1e-8


def _design_grid():
    """The 21x21 (prediction, confidence) grid of designs for both kinds."""
    for kind in (MAX, MIN):
        for pred in np.linspace(BAND.p_min, BAND.p_max, 21):
            for lam in np.linspace(0.0, 1.0, 21):
                yield design(float(pred), float(lam), BAND, 20, kind)


def test_criterion_05_designed_guarantees_under_5s():
    t0 = time.perf_counter()
    count = 0
    for d in _design_grid():  # any construction error would raise here
        assert float(max(interval_ratios(d.schedule))) <= d.target.gamma + 1e-9
        assert prediction_ratio(d.schedule, d.prediction) <= d.target.eta + 1e-9
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 2 * 21 * 21
    assert elapsed < 5.0


def test_criterion_06_case_classification():
    cr = solve_cr(BAND, 20, ProblemKind.MAX)
    lam = 1.0 - (2.63 - cr) / (10.0 - cr)
    target = ParetoPoint(lam, 1.52, 2.63)
    for prediction, case in ((8.0, "I"), (12.0, "II"), (15.0, "III"), (25.0, "III")):
        assert design_for_target(prediction, target, BAND, 20, MAX).case_label == case


def test_criterion_07_adversarial_replay_under_60s():
    t0 = time.perf_counter()
    step = 0.045 * BAND.p_min
    instances = {}
    for kind in (MAX, MIN):
        for p in np.linspace(BAND.p_min, BAND.p_max, 50):
            inst = gen_p_instance(PInstanceSpec(kind, float(p), BAND, 20, step=step))
            instances[(kind, float(p))] = (inst, offline_opt(inst, kind))
    for d in _design_grid():
        kind = d.schedule.kind
        for p in np.linspace(BAND.p_min, BAND.p_max, 50):
            inst, opt = instances[(kind, float(p))]
            total, _ = ota_total(d.schedule, inst.prices)
            ratio = opt / total if kind.is_max else total / opt
            assert ratio <= d.target.gamma + 1e-4
        accurate = gen_p_instance(PInstanceSpec(kind, d.prediction, BAND, 20, step=step))
        opt = offline_opt(accurate, kind)
        total, _ = ota_total(d.schedule, accurate.prices)
        ratio = opt / total if kind.is_max else total / opt
        assert ratio <= d.target.eta + 1e-4
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_brute_force_oracle_under_120s():
    t0 = time.perf_counter()
    levels = np.array([1.0, 2.0, 5.0, 10.0])
    bounds = PriceBounds(1.0, 10.0)
    rng = np.random.Generator(np.random.Philox(5))

    # offline_opt against exhaustive enumeration on random short instances
    for _ in range(200):
        k = int(rng.integers(1, 4))
        horizon = int(rng.integers(k, 13))
        prices = tuple(levels[rng.integers(0, 4, horizon)])
        inst = SearchInstance(prices, k, bounds)
        subsets = itertools.combinations(prices, k)
        sums = [sum(c) for c in subsets]
        assert offline_opt(inst, MAX) == pytest.approx(max(sums))
        assert offline_opt(inst, MIN) == pytest.approx(min(sums))

    # every 4^12 sequence against the optimal 3-unit max schedule
    T, K = 12, 3
    sol = worst_case_thresholds(bounds, K, MAX)
    alpha = solve_cr(bounds, K, ProblemKind.MAX)
    padded = np.append(np.asarray(sol.schedule.values), np.inf)

    def batch_ota(prices: np.ndarray) -> np.ndarray:
        m = np.zeros(prices.shape[0], dtype=np.int64)
        total = np.zeros(prices.shape[0])
        for t in range(T):
            forced = (T - t) <= (K - m)
            voluntary = prices[:, t] >= padded[m]
            selected = forced | (voluntary & (m < K))
            total += prices[:, t] * selected
            m += selected
        return total

    powers = 4 ** np.arange(T, dtype=np.int64)
    worst = 0.0
    chunk = 1 << 16
    for start in range(0, 4 ** T, chunk):
        digits = (np.arange(start, start + chunk, dtype=np.int64)[:, None] // powers) % 4
        prices = levels[digits]
        totals = batch_ota(prices)
        opts = np.partition(prices, T - K, axis=1)[:, T - K:].sum(axis=1)
        worst = max(worst, float((opts / totals).max()))
    assert worst <= alpha + 1e-6

    # the vectorized runner agrees with the reference runner
    digits = (rng.integers(0, 4 ** T, 500)[:, None] // powers) % 4
    prices = levels[digits]
    for row, total in zip(prices, batch_ota(prices)):
        trace = run_ota(sol.schedule, SearchInstance(tuple(row), K, bounds))
        assert trace.total_value == pytest.approx(total)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_09_reserved_threshold_count_limits():
    for theta in THETA_GRID:
        bounds = PriceBounds(1.0, theta)
        spec = FrontierSpec(bounds, 1, MAX)
        gammas = spec.cr_star + (theta - spec.cr_star) * np.arange(40) / 40.0
        assert {_sweep_count(float(g), spec) for g in gammas} == {1}

        k = 10 ** 4
        spec = FrontierSpec(bounds, k, MAX)
        gamma = 0.5 * (spec.cr_star + theta)
        limit = math.log((theta - 1.0) / (gamma - 1.0)) / gamma
        assert abs(_sweep_count(gamma, spec) / k - limit) <= 10.0 / k


def test_criterion_10_synthetic_feed_window_count():
    series = gen_synthetic_series()
    windows = sliding_windows(series, 3024, 432, 100, MAX)
    assert len(windows) == 577


def test_criterion_11_learner_convergence_under_120s():
    t0 = time.perf_counter()
    k = 10
    inst = gen_p_instance(PInstanceSpec(MAX, 20.0, BAND, k, step=0.5))
    accurate = (inst.prices, 20.0)
    overstated = (inst.prices, 45.0)
    draws = np.random.Generator(np.random.Philox(2024)).random(1000)
    windows = [accurate if d < 0.75 else overstated for d in draws]

    # the stream makes exactly one grid confidence strictly best
    per_round = [replay_ratios(stream_of((w,), k, BAND, MAX))[0] for w in (accurate, overstated)]
    totals = sum(per_round[w is overstated] for w in windows)
    best = int(np.argmin(totals))
    assert all(totals[best] < t for i, t in enumerate(totals) if i != best)

    _, history = run_learning(stream_of(windows, k, BAND, MAX), seed=11)
    chosen = np.array(history.chosen_ratio)
    best_fixed = np.array(history.best_fixed_ratio)
    assert chosen[500:].mean() - best_fixed[500:].mean() <= 0.05

    curve = [regret / n for n, regret in enumerate(history.cumulative_regret, start=1)]
    tail = curve[750:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert tail[-1] < tail[0]
    assert time.perf_counter() - t0 < 120.0


def test_criterion_12_directional_sweep_properties_under_10min():
    t0 = time.perf_counter()
    series = gen_synthetic_series(num_samples=50000, seed=12)

    # mean ratio non-decreasing in the hardening probability (every policy)
    cells = build_cells((0.0, 0.1, 0.2, 0.3), (1.0,), (25,), (1.0,))
    out = run_sweep(series, cells, MAX, 12, 3024, 432, workers=2)
    for algorithm in ALGORITHMS:
        means = [s.mean for s in out if s.algorithm == algorithm]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:])), (
            algorithm, means,
        )

    # mean worst-case-policy ratio non-increasing in the budget
    cells = build_cells((0.0,), (1.0,), (5, 25, 125), (1.0,))
    out = run_sweep(series, cells, MAX, 12, 3024, 432, workers=2)
    means = [s.mean for s in out if s.algorithm == "ota-on"]
    assert all(a >= b - 1e-12 for a, b in zip(means, means[1:])), means

    # widening the band by 4x hurts min-search at least as much as max-search
    cells = build_cells((0.0,), (1.0,), (25,), (1.0, 4.0))
    degradation = {}
    for kind in (MAX, MIN):
        out = run_sweep(series, cells, kind, 12, 3024, 432, workers=2)
        for algorithm in ("ota-on", "ota-learned"):
            base, widened = [s.mean for s in out if s.algorithm == algorithm]
            degradation[(kind, algorithm)] = widened - base
    for algorithm in ("ota-on", "ota-learned"):
        assert degradation[(MIN, algorithm)] >= degradation[(MAX, algorithm)], (
            algorithm, degradation,
        )
    assert time.perf_counter() - t0 < 600.0
