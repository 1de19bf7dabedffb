"""Experiment pipeline: policy evaluation, stress cells, and sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from ksearch import (
    ALGORITHMS,
    InvalidInputError,
    PriceSeries,
    ProblemKind,
    SweepCell,
    build_cells,
    evaluate_windows,
    gen_synthetic_series,
    run_cell,
    run_sweep,
    sliding_windows,
    solve_cr,
    stress_windows,
    summarize,
)


def _windows(n_samples=2200, seed=3, window=200, stride=200, k=10,
             kind=ProblemKind.MAX):
    series = gen_synthetic_series(num_samples=n_samples, seed=seed)
    return sliding_windows(series, window, stride, k, kind)


class TestSummarize:
    def test_known_quartiles(self):
        mean, median, q1, q3 = summarize([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        assert median == 2.5
        assert q1 == 1.75
        assert q3 == 3.25

    def test_single_value(self):
        assert summarize([3.5]) == (3.5, 3.5, 3.5, 3.5)

    def test_order_independent(self):
        assert summarize([4.0, 1.0, 3.0, 2.0]) == summarize([1.0, 2.0, 3.0, 4.0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            summarize([])


class TestStressWindows:
    def test_rho_zero_keeps_instances(self):
        windows = _windows()
        out = stress_windows(windows, ProblemKind.MAX, 0.0, 1.0, seed=9)
        assert all(a.instance is b.instance for a, b in zip(out, windows))

    def test_rho_one_hardens_every_tail(self):
        windows = _windows()
        p_min = windows[0].instance.bounds.p_min
        out = stress_windows(windows, ProblemKind.MAX, 1.0, 1.0, seed=9)
        for window in out:
            assert window.instance.prices[-10:].tolist() == [p_min] * 10

    def test_min_kind_hardens_to_p_max(self):
        windows = _windows(kind=ProblemKind.MIN)
        p_max = windows[0].instance.bounds.p_max
        out = stress_windows(windows, ProblemKind.MIN, 1.0, 1.0, seed=9)
        for window in out:
            assert window.instance.prices[-10:].tolist() == [p_max] * 10

    def test_hardened_sets_nest_across_rho(self):
        windows = _windows()
        hit_sets = []
        for rho in (0.1, 0.2, 0.3):
            out = stress_windows(windows, ProblemKind.MAX, rho, 1.0, seed=9)
            hit_sets.append({
                i for i, (a, b) in enumerate(zip(out, windows))
                if a.instance is not b.instance
            })
        assert hit_sets[0] <= hit_sets[1] <= hit_sets[2]

    def test_error_level_zero_makes_predictions_exact(self):
        windows = _windows()
        out = stress_windows(windows, ProblemKind.MAX, 0.0, 0.0, seed=9)
        for window in out:
            assert window.prediction == max(window.instance.prices)

    def test_deterministic(self):
        windows = _windows()
        a = stress_windows(windows, ProblemKind.MAX, 0.5, 0.3, seed=4)
        b = stress_windows(windows, ProblemKind.MAX, 0.5, 0.3, seed=4)
        assert a == b


class TestEvaluateWindows:
    def test_per_window_invariants(self):
        windows = _windows()
        bounds = windows[0].instance.bounds
        cr = solve_cr(bounds, 10, ProblemKind.MAX)
        results = evaluate_windows(windows, ProblemKind.MAX, seed=5)
        assert len(results) == len(windows)
        for res in results:
            # the worst-case schedule honors its guarantee on every window
            assert res.on_ratio <= cr + 1e-6
            # hindsight optimizes over a grid containing confidence 1
            assert res.hindsight_ratio <= res.on_ratio * (1 + 1e-12)
            # the learned choice is one grid point, so it can never beat hindsight
            assert res.hindsight_ratio <= res.learned_ratio * (1 + 1e-12)
            assert 0.0 <= res.hindsight_lambda <= 1.0
            assert 0.0 <= res.learned_lambda <= 1.0

    def test_accessors_cover_all_algorithms(self):
        windows = _windows()
        res = evaluate_windows(windows, ProblemKind.MAX, seed=5)[0]
        assert res.ratio("ota-on") == res.on_ratio
        assert res.ratio("ota-hindsight") == res.hindsight_ratio
        assert res.ratio("ota-learned") == res.learned_ratio
        assert res.confidence("ota-on") == 1.0
        assert set(ALGORITHMS) == {"ota-on", "ota-hindsight", "ota-learned"}

    def test_deterministic(self):
        windows = _windows()
        a = evaluate_windows(windows, ProblemKind.MAX, seed=5)
        b = evaluate_windows(windows, ProblemKind.MAX, seed=5)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate_windows((), ProblemKind.MAX, seed=5)


class TestCellsAndSweep:
    def test_build_cells_sorted_cross_product(self):
        cells = build_cells((0.3, 0.0), (1.0,), (25, 5), (1.0, 4.0))
        assert len(cells) == 8
        assert list(cells) == sorted(cells, key=SweepCell.key)
        assert cells[0] == SweepCell(0.0, 1.0, 5, 1.0)
        assert cells[-1] == SweepCell(0.3, 1.0, 25, 4.0)

    def test_run_cell_summaries(self):
        series = gen_synthetic_series(num_samples=2200, seed=3)
        cell = SweepCell(0.2, 0.5, 10, 1.0)
        out = run_cell(series, cell, ProblemKind.MAX, 7, 200, 200)
        assert [s.algorithm for s in out] == list(ALGORITHMS)
        for s in out:
            assert s.cell == cell
            assert s.window_count == 10
            assert 1.0 - 1e-9 <= s.q1 <= s.median <= s.q3
            assert s.mean >= 1.0 - 1e-9  # competitive ratios never drop below 1

    def test_theta_multiplier_widens_bounds(self):
        series = gen_synthetic_series(num_samples=2200, seed=3)
        lo, hi = min(series.prices), max(series.prices)
        wide = run_cell(series, SweepCell(0.0, 1.0, 10, 4.0),
                        ProblemKind.MAX, 7, 200, 200)
        assert wide[0].window_count == 10
        # ratios under a 4x wider band cannot be summarized against the
        # original bounds; the worst-case mean must reflect the harder band
        base = run_cell(series, SweepCell(0.0, 1.0, 10, 1.0),
                        ProblemKind.MAX, 7, 200, 200)
        on_wide = next(s for s in wide if s.algorithm == "ota-on")
        on_base = next(s for s in base if s.algorithm == "ota-on")
        assert on_wide.mean > on_base.mean

    def test_sweep_sorted_and_worker_independent(self):
        series = gen_synthetic_series(num_samples=2200, seed=3)
        cells = build_cells((0.0, 0.4), (1.0,), (5, 10), (1.0,))
        serial = run_sweep(series, cells, ProblemKind.MAX, 7, 200, 200, workers=1)
        pooled = run_sweep(series, cells, ProblemKind.MAX, 7, 200, 200, workers=3)
        assert serial == pooled
        keys = [(s.cell.key(), s.algorithm) for s in serial]
        assert keys == sorted(keys)
        assert len(serial) == len(cells) * 3

    def test_sweep_rejects_bad_arguments(self):
        series = gen_synthetic_series(num_samples=2200, seed=3)
        with pytest.raises(InvalidInputError):
            run_sweep(series, (), ProblemKind.MAX, 7, 200, 200)
        cells = build_cells((0.0,), (1.0,), (5,), (1.0,))
        with pytest.raises(InvalidInputError):
            run_sweep(series, cells, ProblemKind.MAX, 7, 200, 200, workers=0)


class TestDirectionalProperties:
    def test_rho_sweep_mean_non_decreasing_both_kinds(self):
        series = gen_synthetic_series(num_samples=12000, seed=12)
        cells = build_cells((0.0, 0.1, 0.2, 0.3), (1.0,), (15,), (1.0,))
        for kind in (ProblemKind.MAX, ProblemKind.MIN):
            out = run_sweep(series, cells, kind, 12, 1000, 250, workers=2)
            means = [s.mean for s in out if s.algorithm == "ota-on"]
            assert all(a <= b + 1e-12 for a, b in zip(means, means[1:])), (
                kind, means,
            )

    def test_perfect_predictions_beat_lookback_on_plateau_corpus(self):
        # A regime corpus holds each window's extreme for many samples, so an
        # exact prediction banks the full budget at the extreme while the
        # look-back prediction points at the previous regime's level.
        rng = np.random.Generator(np.random.Philox(77))
        heights = rng.uniform(6.0, 48.0, 400)
        series = PriceSeries(tuple(float(h) for h in heights for _ in range(50)))
        cells = build_cells((0.0,), (0.0, 1.0), (15,), (1.0,))
        for kind in (ProblemKind.MAX, ProblemKind.MIN):
            out = run_sweep(series, cells, kind, 77, 1500, 500, workers=2)
            exact, lookback = [
                s.mean for s in out if s.algorithm == "ota-hindsight"
            ]
            assert exact <= lookback + 1e-12
            assert exact == pytest.approx(1.0, abs=1e-9)
