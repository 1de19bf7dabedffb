"""Experiment pipeline: policy evaluation, stress cells, and sweeps."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import re
import statistics

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import ksearch.harness as harness_mod
from ksearch import (
    ALGORITHMS,
    CellSummary,
    ConstructionError,
    DomainError,
    InvalidInputError,
    PriceBounds,
    PriceSeries,
    ProblemKind,
    SweepCell,
    adjust_error,
    build_cells,
    evaluate_windows,
    gen_synthetic_series,
    run_sweep,
    scale_theta,
    sliding_windows,
    solve_cr,
    worst_case_thresholds,
    summarize,
)
from ksearch.learner import GRID, _stream_ratios
from conftest import replay_ratios, stream_of
from oracle import harden_reference


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1.0, 1e6) | st.floats(1.0, 2.0), min_size=1, max_size=600))
    @example([1.5])
    @example([2.0, 1.25])
    @example([1.1, 3.7, 2.3])
    @example([1.0, 1.0 + 2**-52, 4.5, 1.3, 9.75])
    @example([1.0 + (i * 0.6180339887) % 3.0 for i in range(577)])
    def test_is_the_statistics_form_bit_for_bit(self, values):
        # the mean and inclusive quartiles of the ``statistics`` module, which
        # the library does not import; one value is its own every summary
        if len(values) == 1:
            want = (values[0],) * 4
        else:
            q1, median, q3 = statistics.quantiles(sorted(values), n=4, method="inclusive")
            want = (statistics.fmean(values), median, q1, q3)
        assert [v.hex() for v in summarize(values)] == [v.hex() for v in want]


def _summaries(cell, windows, seed):
    """The cell's summary rows, one per algorithm in run_sweep's order, from
    evaluate_windows on the given windows."""
    results = evaluate_windows(windows, seed)
    return tuple(CellSummary(cell, algorithm, len(windows), *summarize(results[algorithm][0]))
                 for algorithm in sorted(ALGORITHMS))


def _dialled_windows(series, cell, kind):
    """The cell's windows with their prediction error dialled, before any
    hardening."""
    return adjust_error(sliding_windows(series, 200, 200, cell.k, kind), cell.error_level)


class TestHardening:
    """``run_sweep``'s groups take the rows of the windows whose
    ``_hardening_draws`` fall below the cell's rho from the group's hardened
    rows, derived from the plain windows' replay."""

    @pytest.mark.parametrize("kind, tail", [(ProblemKind.MAX, 5.0), (ProblemKind.MIN, 50.0)])
    def test_tail_is_the_kinds_worst_price(self, kind, tail):
        # one window of six prices after its look-back, in the band [5, 50]
        series = PriceSeries((5.0, 50.0, 20.0, 20.0, 20.0, 20.0, 7.0, 30.0, 12.0, 45.0, 9.0, 20.0))
        stream = sliding_windows(series, 6, 6, 2, kind)
        out = harden_reference(stream, 1.0, 9)
        assert out.rows().tolist() == [[7.0, 30.0, 12.0, 45.0, tail, tail]]
        assert (out.k, out.bounds) == (2, PriceBounds(5.0, 50.0))
        assert out.predictions.tolist() == stream.predictions.tolist()
        ratios = _stream_ratios(stream, (), [0])
        assert ratios[1].tolist() == replay_ratios(out)[0].tolist()

    def test_hardened_sets_nest_across_rho(self):
        windows = _windows(n_samples=10_400)  # 51 windows
        draws = harness_mod._hardening_draws(9, len(windows))
        hit_sets = []
        for rho in (0.0, 0.1, 0.2, 0.3, 1.0):
            hits = {i for i, draw in enumerate(draws) if draw < rho}
            reference = harden_reference(windows, rho, seed=9)
            assert hits == {i for i, (a, b) in enumerate(zip(reference.rows(), windows.rows()))
                            if (a != b).any()}
            hit_sets.append(hits)
        assert hit_sets[0] == set() and hit_sets[-1] == set(range(len(windows)))
        assert all(a <= b for a, b in zip(hit_sets, hit_sets[1:]))
        assert hit_sets[1] < hit_sets[3]

    def test_rho_zero_keeps_instances(self):
        # no draw lies below 0, so the sweep evaluates the plain windows
        series = gen_synthetic_series(num_samples=2200, seed=3)
        cell = SweepCell(0.0, 0.5, 10, 1.0)
        windows = _dialled_windows(series, cell, ProblemKind.MAX)
        assert (run_sweep(series, (cell,), ProblemKind.MAX, 9, 200, 200)
                == _summaries(cell, windows, 9))

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_rho_one_hardens_every_tail(self, kind):
        # every draw lies below 1, so every window's tail is hardened, and
        # each keeps the prediction its error level gave it
        series = gen_synthetic_series(num_samples=2200, seed=3)
        cell = SweepCell(1.0, 0.5, 10, 1.0)
        windows = _dialled_windows(series, cell, kind)
        hard = harden_reference(windows, 1.0, 9)
        expected = _summaries(cell, hard, 9)
        assert expected != _summaries(cell, windows, 9)
        assert run_sweep(series, (cell,), kind, 9, 200, 200) == expected

    def test_rho_out_of_range(self):
        for rho in (-0.1, 1.1, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                SweepCell(rho, 0.5, 10, 1.0)
        for rho in (None, "0.5"):
            with pytest.raises(InvalidInputError):
                SweepCell(rho, 0.5, 10, 1.0)
        for rho in (0, 0.0, 0.5, 1, 1.0):
            assert type(SweepCell(rho, 0.5, 10, 1.0).rho) is float

    @pytest.mark.parametrize("fields, error, message", [
        ((0.0, 1.5, 3, 0.5), DomainError, "error level must lie in [0, 1], got 1.5"),
        ((0.0, math.nan, 3, 1.0), DomainError, "error level must lie in [0, 1], got nan"),
        ((0.0, 0.5, 0, 1.0), InvalidInputError, "k must be an integer >= 1, got 0"),
        ((0.0, 0.5, 3, 0.5), DomainError, "theta multiplier must be >= 1, got 0.5"),
        ((0.0, 0.5, 3, math.inf), DomainError, "theta multiplier must be >= 1, got inf"),
        ((0.0, 0.5, 3, math.nan), DomainError, "theta multiplier must be >= 1, got nan"),
    ])
    def test_a_bad_cell_raises_before_any_group_runs(self, monkeypatch, fields, error, message):
        groups = []
        monkeypatch.setattr(harness_mod, "_run_group", lambda *args: groups.append(args))
        series = gen_synthetic_series(num_samples=2200, seed=3)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_sweep(series, (SweepCell(0.0, 1.0, 5, 1.0), SweepCell(*fields)),
                      ProblemKind.MAX, 7, 200, 200)
        assert groups == []

    @pytest.mark.parametrize("mult", [0.5, -1.0, math.inf, math.nan])
    def test_a_cell_rejects_a_theta_multiplier_as_scale_theta_does(self, mult):
        with pytest.raises(DomainError) as from_cell:
            SweepCell(0.0, 0.5, 3, mult)
        with pytest.raises(DomainError) as from_scale:
            scale_theta(gen_synthetic_series(num_samples=100, seed=3), mult)
        assert str(from_cell.value) == str(from_scale.value)

    def test_deterministic_in_seed(self):
        draws = harness_mod._hardening_draws(42, 500)
        assert harness_mod._hardening_draws(42, 500) == draws
        assert harness_mod._hardening_draws(43, 500) != draws
        assert len(set(draws)) == 500

    def test_window_draw_does_not_depend_on_the_window_count(self):
        # window i's draw is keyed by (seed, i) alone, so a longer series
        # hardens the same leading windows
        for seed in (0, 9, 2**43):
            draws = harness_mod._hardening_draws(seed, 300)
            assert harness_mod._hardening_draws(seed, 120) == draws[:120]
            assert harness_mod._hardening_draws(seed, 1) == draws[:1]

    def test_draws_lie_in_the_unit_interval(self):
        # so rho = 0 hardens no window and rho = 1 hardens every one
        for seed in (0, 1, 9, 2**43):
            draws = harness_mod._hardening_draws(seed, 2000)
            assert all(0.0 <= draw < 1.0 for draw in draws)


class TestEvaluateWindows:
    def test_per_window_invariants(self):
        windows = _windows()
        bounds = windows.bounds
        cr = solve_cr(bounds, 10, ProblemKind.MAX)
        results = evaluate_windows(windows, seed=5)
        (on, _), (hindsight, hindsight_lambda), (learned, learned_lambda) = (
            results[algorithm] for algorithm in ALGORITHMS)
        for w in range(len(windows)):
            # the worst-case schedule honors its guarantee on every window
            assert on[w] <= cr + 1e-6
            # hindsight optimizes over a grid containing confidence 1
            assert hindsight[w] <= on[w] * (1 + 1e-12)
            # the learned choice is one grid point, so it can never beat hindsight
            assert hindsight[w] <= learned[w] * (1 + 1e-12)
            assert hindsight_lambda[w] in GRID
            assert learned_lambda[w] in GRID

    def test_columns_cover_all_algorithms(self):
        windows = _windows()
        results = evaluate_windows(windows, seed=5)
        assert ALGORITHMS == ("ota-on", "ota-hindsight", "ota-learned")
        assert tuple(results) == ALGORITHMS
        for ratios, confidences in results.values():
            for column in (ratios, confidences):
                assert len(column) == len(windows)
                assert {type(value) for value in column} == {float}
        assert results["ota-on"][1] == [1.0] * len(windows)

    def test_deterministic(self):
        windows = _windows()
        a = evaluate_windows(windows, seed=5)
        b = evaluate_windows(windows, seed=5)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate_windows(stream_of((), 10, PriceBounds(5.0, 50.0), ProblemKind.MAX), seed=5)


class TestCellsAndSweep:
    def test_build_cells_sorted_cross_product(self):
        cells = build_cells((0.3, 0.0), (1.0,), (25, 5), (1.0, 4.0))
        assert len(cells) == 8
        assert list(cells) == sorted(cells)
        assert cells[0] == SweepCell(0.0, 1.0, 5, 1.0)
        assert cells[-1] == SweepCell(0.3, 1.0, 25, 4.0)

    def test_one_cell_summaries(self):
        series = gen_synthetic_series(num_samples=2200, seed=3)
        cell = SweepCell(0.2, 0.5, 10, 1.0)
        out = run_sweep(series, (cell,), ProblemKind.MAX, 7, 200, 200)
        assert [s.algorithm for s in out] == sorted(ALGORITHMS)  # run_sweep's row order
        for s in out:
            assert s.cell == cell
            assert s.window_count == 10
            assert 1.0 - 1e-9 <= s.q1 <= s.median <= s.q3
            assert s.mean >= 1.0 - 1e-9  # competitive ratios never drop below 1

    def test_theta_multiplier_widens_bounds(self):
        series = gen_synthetic_series(num_samples=2200, seed=3)
        lo, hi = min(series.prices), max(series.prices)
        wide = run_sweep(series, (SweepCell(0.0, 1.0, 10, 4.0),),
                         ProblemKind.MAX, 7, 200, 200)
        assert wide[0].window_count == 10
        # ratios under a 4x wider band cannot be summarized against the
        # original bounds; the worst-case mean must reflect the harder band
        base = run_sweep(series, (SweepCell(0.0, 1.0, 10, 1.0),),
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
        keys = [(s.cell, s.algorithm) for s in serial]
        assert keys == sorted(keys)
        assert len(serial) == len(cells) * 3

    def test_seed_that_is_not_an_integer_raises_typed(self):
        series = gen_synthetic_series(num_samples=2200, seed=3)
        cells = build_cells((0.0, 0.2), (1.0,), (5,), (1.0,))
        message = "^seed must be an integer, got 1.5$"
        with pytest.raises(InvalidInputError, match=message):
            run_sweep(series, cells, ProblemKind.MAX, 1.5, 100, 50)
        with pytest.raises(InvalidInputError, match=message):
            evaluate_windows(_windows(), 1.5)
        # a numpy integer seed is its int (its hardening keys overflowed int64)
        assert (run_sweep(series, cells, ProblemKind.MAX, np.int64(7), 200, 200)
                == run_sweep(series, cells, ProblemKind.MAX, 7, 200, 200))

    def test_sweep_rejects_bad_arguments(self):
        series = gen_synthetic_series(num_samples=2200, seed=3)
        with pytest.raises(InvalidInputError):
            run_sweep(series, (), ProblemKind.MAX, 7, 200, 200)
        cells = build_cells((0.0,), (1.0,), (5,), (1.0,))
        with pytest.raises(InvalidInputError):
            run_sweep(series, cells, ProblemKind.MAX, 7, 200, 200, workers=0)
        for rho in (-0.1, 1.1):
            with pytest.raises(DomainError):
                run_sweep(series, build_cells((0.0, rho), (1.0,), (5,), (1.0,)),
                          ProblemKind.MAX, 7, 200, 200)


def _per_cell_sweep(series, cells, kind, seed, window_len, stride):
    """run_sweep's summaries, each cell evaluated on its own through the
    public window pipeline and the oracle's hardening: the reference the
    grouped sweep must equal."""
    out = []
    for cell in cells:
        scaled = scale_theta(series, cell.theta_mult) if cell.theta_mult != 1.0 else series
        windows = sliding_windows(scaled, window_len, stride, cell.k, kind)
        windows = adjust_error(windows, cell.error_level)
        windows = harden_reference(windows, cell.rho, seed)
        out.extend(_summaries(cell, windows, seed))
    return tuple(sorted(out, key=lambda s: (s.cell, s.algorithm)))


class TestGuaranteeChecks:
    """``_window_results`` re-checks the worst-case guarantee on every row."""

    SOLUTION = dataclasses.replace(
        worst_case_thresholds(PriceBounds(5.0, 50.0), 5, ProblemKind.MAX), cr=2.0)

    @pytest.mark.parametrize("over, lost, message", [
        ([2], [], "worst-case guarantee violated on window 2: ratio 2.5 > 2.0 + 1e-6"),
        ([3], [1], "hindsight-best confidence lost to the worst-case schedule on window 1: "
                   "1.4 > 1.0"),
        ([1], [1], "worst-case guarantee violated on window 1: ratio 2.5 > 2.0 + 1e-6"),
    ], ids=["over-cr", "lost-before-over-cr", "both-in-one-row"])
    def test_the_first_failing_row_raises(self, over, lost, message):
        # four rows: every grid ratio 1.5 but confidence 1's 1.4, the worst
        # case's 1.5, except where it is set above cr or below 1.4
        matrix = np.tile(np.r_[np.full(len(GRID) - 1, 1.5), 1.4, 1.5], (4, 1))
        matrix[lost, -1] = 1.0
        matrix[over, -1] = 2.5
        with pytest.raises(ConstructionError) as info:
            harness_mod._window_results(matrix, 7, self.SOLUTION)
        assert str(info.value) == message

    def test_hindsight_takes_the_smallest_of_equal_confidences(self):
        matrix = np.full((3, len(GRID) + 1), 1.5)
        matrix[1, [4, 9]] = 1.25
        results = harness_mod._window_results(matrix, 7, self.SOLUTION)
        assert results["ota-hindsight"] == ([1.5, 1.25, 1.5], [0.0, GRID[4], 0.0])


class TestGroupedSweep:
    """Cells sharing (error level, k, theta multiplier) replay together."""

    def test_rounds_are_capped_before_any_replay(self, monkeypatch):
        # 2^20 windows of one price each, from a flat series of 2^20 + 1
        def replayed(*args):
            pytest.fail("designed or replayed before the round count was checked")

        for name in ("_hardening_draws", "worst_case_thresholds", "_stream_ratios"):
            monkeypatch.setattr(harness_mod, name, replayed)
        series = PriceSeries(np.full((1 << 20) + 1, 20.0))
        cells = build_cells((0.0, 0.5), (1.0,), (1,), (1.0,))
        with pytest.raises(InvalidInputError, match=r"^window streams beyond 2\^20 rounds"):
            run_sweep(series, cells, ProblemKind.MAX, 7, 1, 1)

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("rhos", [(0.0,), (0.0, 0.2), (0.2, 0.0, 1.0)])
    def test_groups_equal_the_cells_evaluated_one_by_one(self, kind, rhos):
        # 20 windows, of which rho = 0.2 hardens 5 at seed 7 and rho = 1 all
        series = gen_synthetic_series(num_samples=4200, seed=3)
        cells = build_cells(rhos, (0.5, 1.0), (5, 10), (1.0, 4.0))
        expected = _per_cell_sweep(series, cells, kind, 7, 200, 200)
        for workers in (1, 2):
            assert run_sweep(series, cells, kind, 7, 200, 200, workers=workers) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("errors, raised, message", [
        ({(5, 0.5): ConstructionError, (100, 1.0): ConstructionError},
         ConstructionError, "k=100 level=1.0"),
        ({(5, 0.5): OverflowError, (100, 1.0): ConstructionError},
         ConstructionError, "k=100 level=1.0"),
        ({(5, 0.5): OverflowError}, OverflowError, "k=5 level=0.5"),
    ])
    def test_the_first_failing_cell_in_key_order_raises(
        self, monkeypatch, workers, errors, raised, message
    ):
        # groups run in (error level, k, theta multiplier) order, so the group
        # (level 0.5, k = 5) runs first, though its one cell, at rho = 0.4,
        # comes last in key order
        real = harness_mod.adjust_error

        def failing(stream, level):
            error = errors.get((stream.k, level))
            if error is not None:
                raise error(f"k={stream.k} level={level}")
            return real(stream, level)

        monkeypatch.setattr(harness_mod, "adjust_error", failing)
        series = gen_synthetic_series(num_samples=2200, seed=3)
        cells = (SweepCell(0.4, 0.5, 5, 1.0), SweepCell(0.0, 1.0, 5, 1.0),
                 SweepCell(0.0, 1.0, 100, 1.0))
        with pytest.raises(raised, match=f"^{message}$"):
            run_sweep(series, cells, ProblemKind.MAX, 7, 200, 200, workers=workers)

    def test_pool_has_at_most_one_worker_per_group(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        series = gen_synthetic_series(num_samples=2200, seed=3)
        two_groups = build_cells((0.0, 0.4), (1.0,), (5, 10), (1.0,))
        serial = run_sweep(series, two_groups, ProblemKind.MAX, 7, 200, 200)
        assert run_sweep(series, two_groups, ProblemKind.MAX, 7, 200, 200, workers=4) == serial
        assert sizes == [2]
        one_group = build_cells((0.0, 0.4), (1.0,), (5,), (1.0,))
        run_sweep(series, one_group, ProblemKind.MAX, 7, 200, 200, workers=4)
        assert sizes == [2]  # one group runs in this process


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
