"""Confidence-factor learner: weights, sampling, updates, and regret."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ksearch import (
    ExperimentWindow,
    InvalidInputError,
    PInstanceSpec,
    PriceBounds,
    PriceSeries,
    ProblemKind,
    RegretRecord,
    SearchInstance,
    adjust_error,
    design,
    evaluate_windows,
    gen_p_instance,
    gen_synthetic_series,
    offline_opt,
    ota_total,
    run_learning,
    sliding_windows,
    worst_case_thresholds,
)
from ksearch import core
from ksearch import learner as learner_mod
from ksearch.learner import GRID, _replay_ratios, _replay_window_bytes

BOUNDS = PriceBounds(5.0, 50.0)


def _stream(n_windows: int, k: int = 8, kind: ProblemKind = ProblemKind.MAX,
            perfect: bool = True, seed: int = 7):
    """Small window stream cut from one synthetic series, cycled to length."""
    series = gen_synthetic_series(num_samples=900, seed=seed)
    wins = sliding_windows(series, window_len=100, stride=100, k=k, kind=kind)
    if perfect:
        wins = tuple(adjust_error(w, 0.0, kind) for w in wins)
    reps = [wins[i % len(wins)] for i in range(n_windows)]
    return reps, wins[0].instance.bounds


def _adversarial_stream(n_windows: int, k: int = 8,
                        kind: ProblemKind = ProblemKind.MAX, p: float = 20.0):
    """Identical perfectly-predicted ladder windows: the extreme is held for
    exactly k arrivals, so full trust achieves the optimum and every higher
    confidence is strictly worse -- the regime the consistency bound covers."""
    spec = PInstanceSpec(kind, p=p, bounds=BOUNDS, k=k, step=0.5)
    window = ExperimentWindow(gen_p_instance(spec), p)
    return [window] * n_windows, BOUNDS


def _overstated_stream(n_windows: int, k: int = 8):
    """Identical ladder windows whose prediction overstates the extreme:
    full distrust (lambda = 1) is the unique best grid point."""
    spec = PInstanceSpec(ProblemKind.MAX, p=20.0, bounds=BOUNDS, k=k, step=0.5)
    return [ExperimentWindow(gen_p_instance(spec), 45.0)] * n_windows


def _underflow_stream():
    """Windows on which lambda = 0 loses a ratio near 1e5 in the first round,
    so its weight underflows to 0.0 at once."""
    block_a = [100000.0] + [1.0] * 287
    block_b = [99999.0] * 10 + [1.0] * 278
    series = PriceSeries((block_a + block_b) * 6)
    return sliding_windows(series, 288, 288, 10, ProblemKind.MAX)


def _one_round(window, kind=ProblemKind.MAX):
    """The grid ratios of one window, as the learner's replay computes them."""
    return _replay_ratios((window,), kind)[0].tolist()


class TestLearnerType:
    def test_default_factory(self):
        assert len(GRID) == 33
        assert GRID[0] == 0.0 and GRID[-1] == 1.0
        assert all(b > a for a, b in zip(GRID, GRID[1:]))

    def test_regret_record_validation(self):
        with pytest.raises(InvalidInputError):
            RegretRecord(0, 0.5, 1.2, 1.1, 0.1)
        with pytest.raises(InvalidInputError):
            RegretRecord(1, 0.5, 0.8, 1.1, 0.1)


class TestSelectLambda:
    """Each round draws a grid confidence with probability proportional to
    its weight, from a Philox stream keyed by (seed, round)."""

    def test_two_point_reproducible(self):
        # two runs at one seed draw the same grid points
        windows, _ = _stream(40, k=5, perfect=False)
        _, hist, matrix = run_learning(windows, ProblemKind.MAX, seed=3)
        assert run_learning(windows, ProblemKind.MAX, seed=3)[1] == hist
        for t, rec in enumerate(hist):
            # the recorded ratio is the drawn confidence's column of its round
            assert rec.chosen_ratio == matrix[t, GRID.index(rec.chosen_lambda)]

    def test_concentrated_weights(self):
        weights, hist, _ = run_learning(_overstated_stream(200), ProblemKind.MAX, seed=0)
        assert weights[-1] > 1.0 - 1e-6
        assert sum(rec.chosen_lambda == 1.0 for rec in hist[-100:]) >= 95

    def test_zero_weight_never_drawn(self):
        windows = _underflow_stream()
        for seed in range(20):
            weights, hist, _ = run_learning(windows, ProblemKind.MAX, seed)
            assert weights[0] == 0.0
            assert all(rec.chosen_lambda != 0.0 for rec in hist[1:])


class TestObserveRound:
    """One full-information round: replay the window under every grid
    confidence, then apply the Hedge update."""

    def test_equal_losses_leave_weights_uniform(self):
        # degenerate bounds: every design is flat, every ratio is exactly 1
        bounds = PriceBounds(5.0, 5.0)
        inst = SearchInstance((5.0,) * 10, 2, bounds)
        window = ExperimentWindow(inst, 5.0)
        weights, _, _ = run_learning([window] * 10, ProblemKind.MAX, seed=0)
        assert all(w == pytest.approx(1.0 / 33, rel=1e-12) for w in weights)

    def test_unit_loss_gap_grows_weight_by_e(self):
        # each unit of rate * loss gap is a factor e between two weights:
        # w_0 / w_j = exp(rate * (r_j - r_0)), rate = sqrt(8 ln 33 / rounds)
        windows, _ = _stream(1, k=8, perfect=False)
        weights, _, matrix = run_learning(windows, ProblemKind.MAX, seed=0)
        rate = math.sqrt(8 * math.log(33) / 1)
        ratios = matrix[0].tolist()
        assert len(set(ratios)) > 2
        for w, r in zip(weights, ratios):
            assert w / weights[0] == pytest.approx(
                math.exp(-rate * (r - ratios[0])), rel=1e-12)

    def test_zero_weights_stay_zero_when_every_weight_underflows(self):
        # round 1 zeroes every confidence that waits past 5e5; in round 2
        # every design waits past 999.0, so every weight underflows at once
        bounds = PriceBounds(1.0, 1e6)
        windows = [ExperimentWindow(SearchInstance((p,) + (1.0,) * 9, 1, bounds), 1e6)
                   for p in (5e5, 999.0)]
        weights, _, matrix = run_learning(windows, ProblemKind.MAX, seed=0)
        survivors = [r < 2.0 for r in matrix[0].tolist()]
        assert 0 < sum(survivors) < 33
        assert weights == tuple(1.0 / sum(survivors) if s else 0.0 for s in survivors)

    def test_adversarial_perfect_stream_concentrates_full_trust(self):
        windows, _ = _adversarial_stream(200, k=8)
        weights, _, _ = run_learning(windows, ProblemKind.MAX, seed=0)
        best = max(range(33), key=lambda i: weights[i])
        # the extreme is held for k arrivals, so full trust is exactly optimal
        assert GRID[best] == 0.0

    def test_real_stream_concentrates_on_empirically_best_lambda(self):
        windows, _ = _stream(198, k=8)
        weights, _, matrix = run_learning(windows, ProblemKind.MAX, seed=0)
        # the heaviest weight sits on the grid point with the lowest total loss
        totals = matrix.sum(axis=0).tolist()
        best_weight = max(range(33), key=lambda i: weights[i])
        best_total = min(range(33), key=lambda i: totals[i])
        assert best_weight == best_total

    def test_weights_stay_positive_and_finite(self):
        windows, _ = _stream(120, k=5, perfect=False)
        weights, _, _ = run_learning(windows, ProblemKind.MAX, seed=0)
        assert all(w > 0 and math.isfinite(w) for w in weights)
        assert math.fsum(weights) == pytest.approx(1.0, rel=1e-12)


class TestRoundRatios:
    def test_ratios_at_least_one(self):
        windows, _ = _stream(4, k=8, perfect=False)
        for window in windows[:4]:
            for r in _one_round(window):
                assert r >= 1.0 - 1e-12

    def test_full_trust_is_optimal_when_extreme_is_held(self):
        # When the predicted extreme actually recurs k times, zero confidence
        # in the fallback (lambda = 0) attains the offline optimum.
        for kind in (ProblemKind.MAX, ProblemKind.MIN):
            windows, _ = _adversarial_stream(1, k=8, kind=kind)
            ratios = dict(zip(GRID, _one_round(windows[0], kind)))
            assert ratios[0.0] <= 1.0 + 1e-6
            # trusting less is monotonically worse on this stream
            assert ratios[0.0] <= ratios[0.5] + 1e-12
            assert ratios[0.5] <= ratios[1.0] + 1e-12

    def test_consistency_bounds_held_extreme_not_window_optimum(self):
        # The eta guarantee benchmarks against k copies of the predicted
        # extreme; a real window holds its extreme once, so the empirical
        # ratio may exceed eta(0)=1 even though the design's analytic
        # consistency quantity never does.
        from ksearch import design
        from ksearch.augmented import prediction_ratio

        windows, bounds = _stream(4, k=8, perfect=True)
        empirical = []
        for window in windows[:4]:
            target = design(window.prediction, 0.0, bounds, 8, ProblemKind.MAX)
            assert prediction_ratio(target.schedule, window.prediction) <= 1.0 + 1e-9
            empirical.append(_one_round(window)[0])
        assert max(empirical) > 1.0 + 1e-6


def _oracle_ratios(window, kind, bounds, k, schedules):
    """Per-schedule ota_total ratios: the replay the block kernel replaces."""
    opt = offline_opt(window.instance, kind)
    prices = np.asarray(window.instance.prices)
    out = []
    for schedule in schedules:
        total, _ = ota_total(schedule, prices)
        out.append(opt / total if kind.is_max else total / opt)
    return out


def _grid_schedules(window, kind, bounds, k, grid):
    return [design(window.prediction, lam, bounds, k, kind).schedule for lam in grid]


@pytest.fixture
def block_sizes(monkeypatch):
    """The window count of every block the learner hands to the kernel."""
    sizes = []
    kernel = learner_mod.ota_totals

    def spy(thresholds, prices, rows, kind):
        sizes.append(len(prices))
        return kernel(thresholds, prices, rows, kind)

    monkeypatch.setattr(learner_mod, "ota_totals", spy)
    return sizes


class TestBlockReplay:
    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_round_ratios_equal_per_schedule_replay(self, kind):
        windows, bounds = _stream(8, k=6, kind=kind, perfect=False)
        for window in windows:
            expected = _oracle_ratios(
                window, kind, bounds, 6, _grid_schedules(window, kind, bounds, 6, GRID))
            assert _one_round(window, kind) == expected

    CUTS = [
        (1, -1, [1] * 7),  # a budget below one window still replays one
        (1, 0, [1] * 7),
        (3, 0, [3, 3, 1]),  # a partial last block
        (3, -1, [2, 2, 2, 1]),
        (7, 0, [7]),
        (50, 0, [7]),
    ]

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("per_block,budget_offset,sizes", CUTS)
    def test_blocks_cut_at_the_budget(self, kind, per_block, budget_offset, sizes,
                                      block_sizes, monkeypatch):
        assert not core._by_events(5, 100)  # k = 5 over 100 prices: lockstep
        self._check_cuts(kind, 5, per_block, budget_offset, sizes, block_sizes, monkeypatch)

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("per_block,budget_offset,sizes", CUTS)
    def test_event_blocks_cut_at_the_budget(self, kind, per_block, budget_offset, sizes,
                                            block_sizes, monkeypatch):
        assert core._by_events(3, 100)  # k = 3 over 100 prices: by event
        self._check_cuts(kind, 3, per_block, budget_offset, sizes, block_sizes, monkeypatch)

    @staticmethod
    def _check_cuts(kind, k, per_block, budget_offset, sizes, block_sizes, monkeypatch):
        windows, bounds = _stream(7, k=k, kind=kind, perfect=False)
        extra = (worst_case_thresholds(bounds, k, kind).schedule,)
        runs = len(GRID) + len(extra)
        budget = per_block * _replay_window_bytes(windows[0].instance.horizon, k, runs)
        monkeypatch.setattr(learner_mod, "_REPLAY_BLOCK_BYTES", budget + budget_offset)
        ratios = _replay_ratios(tuple(windows), kind, extra)
        assert block_sizes == sizes
        for window, row in zip(windows, ratios.tolist()):
            schedules = _grid_schedules(window, kind, bounds, k, GRID) + list(extra)
            assert row == _oracle_ratios(window, kind, bounds, k, schedules)

    def test_blocks_cut_where_the_horizon_changes(self, block_sizes):
        windows = []
        for horizon in (20, 20, 30, 20, 20):
            spec = PInstanceSpec(ProblemKind.MAX, p=20.0, bounds=BOUNDS, k=4, step=0.5)
            prices = gen_p_instance(spec).prices
            inst = SearchInstance(np.tile(prices, 3)[:horizon], 4, BOUNDS)
            windows.append(ExperimentWindow(inst, 20.0))
        ratios = _replay_ratios(tuple(windows), ProblemKind.MAX)
        assert block_sizes == [2, 1, 2]
        for window, row in zip(windows, ratios.tolist()):
            schedules = _grid_schedules(window, ProblemKind.MAX, BOUNDS, 4, GRID)
            assert row == _oracle_ratios(window, ProblemKind.MAX, BOUNDS, 4, schedules)

    def test_every_window_is_checked(self):
        windows, bounds = _stream(3, k=8)
        other_budget, _ = _stream(1, k=9)
        first = windows[0]
        wider = PriceBounds(bounds.p_min, 2 * bounds.p_max)
        other_band = ExperimentWindow(
            SearchInstance(first.instance.prices, 8, wider), first.prediction)
        for later in (other_budget[0], other_band):
            stream = (*windows, later)
            with pytest.raises(InvalidInputError):
                _replay_ratios(stream, ProblemKind.MAX)
            with pytest.raises(InvalidInputError):
                run_learning(stream, ProblemKind.MAX, seed=0)
            with pytest.raises(InvalidInputError):
                evaluate_windows(stream, ProblemKind.MAX, seed=0)


class TestRunLearningAndRegret:
    def test_deterministic(self):
        windows, _ = _stream(60, k=5)
        _, hist_a, _ = run_learning(windows, ProblemKind.MAX, seed=42)
        _, hist_b, _ = run_learning(windows, ProblemKind.MAX, seed=42)
        assert hist_a == hist_b
        _, hist_c, _ = run_learning(windows, ProblemKind.MAX, seed=43)
        assert hist_a != hist_c

    def test_record_invariants(self):
        windows, _ = _stream(50, k=5)
        weights, hist, _ = run_learning(windows, ProblemKind.MAX, seed=1)
        assert len(weights) == len(GRID)
        assert [r.round for r in hist] == list(range(1, 51))
        cum = 0.0
        for rec in hist:
            cum += rec.chosen_ratio - rec.best_fixed_ratio
            assert rec.cumulative_regret == pytest.approx(cum, abs=1e-12)
        # the baseline is a fixed grid point: per-round best ratios must be
        # achievable, so cumulative regret of the best fixed choice is zero
        assert hist[-1].cumulative_regret >= -1e-9

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_matrix_rows_are_round_ratios(self, kind):
        # the stream's blocks replay to the same bits as one window at a time
        windows, bounds = _stream(9, k=5, kind=kind, perfect=False)
        extra = (worst_case_thresholds(bounds, 5, kind).schedule,)
        _, _, matrix = run_learning(windows, kind, seed=3, extra=extra)
        assert matrix.shape == (9, len(GRID) + 1)
        for window, row in zip(windows, matrix[:, : len(GRID)].tolist()):
            assert row == _one_round(window, kind)

    def test_regret_curve_matches_records(self):
        # the average regret after round n is the mean of the first n gaps
        windows, _ = _stream(40, k=5)
        _, hist, _ = run_learning(windows, ProblemKind.MAX, seed=2)
        gaps = [rec.chosen_ratio - rec.best_fixed_ratio for rec in hist]
        for n, rec in enumerate(hist, start=1):
            assert rec.cumulative_regret / rec.round == pytest.approx(
                math.fsum(gaps[:n]) / n, abs=1e-12)

    def test_regret_curve_trivial_cases(self):
        # a stream on which every grid point ties has no regret at all
        inst = SearchInstance((5.0,) * 10, 2, PriceBounds(5.0, 5.0))
        window = ExperimentWindow(inst, 5.0)
        for n in (1, 5):
            _, hist, _ = run_learning([window] * n, ProblemKind.MAX, seed=0)
            assert [rec.cumulative_regret for rec in hist] == [0.0] * n

    def test_average_regret_decreasing_tail(self):
        windows, _ = _stream(400, k=5)
        _, hist, _ = run_learning(windows, ProblemKind.MAX, seed=11)
        tail = [rec.cumulative_regret / rec.round for rec in hist[-100:]]
        assert tail[-1] <= tail[0]
        # the trend is downward: occasional off-grid draws can nudge single
        # rounds up, so compare smoothed quarter means instead of every step
        assert sum(tail[-25:]) / 25 <= sum(tail[:25]) / 25

    def test_empty_stream_rejected(self):
        with pytest.raises(InvalidInputError):
            run_learning((), ProblemKind.MAX, seed=0)
