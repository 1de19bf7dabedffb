"""Confidence-factor learner: weights, sampling, updates, and regret."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ksearch import (
    ConstructionError,
    InvalidInputError,
    KSearchError,
    PriceBounds,
    PriceSeries,
    ProblemKind,
    RegretHistory,
    SearchInstance,
    adjust_error,
    design,
    gen_synthetic_series,
    offline_opt,
    run_learning,
    sliding_windows,
    worst_case_thresholds,
)
from ksearch import augmented as augmented_mod
from ksearch import learner as learner_mod
from ksearch.learner import GRID, _gather_bytes, _replay_window_bytes
from adversaries import PInstanceSpec, gen_p_instance
from conftest import band_cases, band_prediction, design_or_error, replay_ratios, stream_of
from oracle import ota_total

BOUNDS = PriceBounds(5.0, 50.0)


def _stream(n_windows: int, k: int = 8, kind: ProblemKind = ProblemKind.MAX,
            perfect: bool = True, seed: int = 7):
    """Small window stream cut from one synthetic series, cycled to length:
    the stream and its (prices, prediction) windows."""
    series = gen_synthetic_series(num_samples=900, seed=seed)
    cut = sliding_windows(series, window_len=100, stride=100, k=k, kind=kind)
    if perfect:
        cut = adjust_error(cut, 0.0)
    wins = list(zip(cut.rows(), cut.predictions.tolist()))
    reps = [wins[i % len(wins)] for i in range(n_windows)]
    return stream_of(reps, k, cut.bounds, kind), reps


def _adversarial_stream(n_windows: int, k: int = 8,
                        kind: ProblemKind = ProblemKind.MAX, p: float = 20.0):
    """Identical perfectly-predicted ladder windows: the extreme is held for
    exactly k arrivals, so full trust achieves the optimum and every higher
    confidence is strictly worse -- the regime the consistency bound covers."""
    spec = PInstanceSpec(kind, p=p, bounds=BOUNDS, k=k, step=0.5)
    return stream_of([(gen_p_instance(spec).prices, p)] * n_windows, k, BOUNDS, kind)


def _overstated_stream(n_windows: int, k: int = 8):
    """Identical ladder windows whose prediction overstates the extreme:
    full distrust (lambda = 1) is the unique best grid point."""
    spec = PInstanceSpec(ProblemKind.MAX, p=20.0, bounds=BOUNDS, k=k, step=0.5)
    return stream_of([(gen_p_instance(spec).prices, 45.0)] * n_windows, k, BOUNDS,
                     ProblemKind.MAX)


def _underflow_stream():
    """Windows on which lambda = 0 loses a ratio near 1e5 in the first round,
    so its weight underflows to 0.0 at once."""
    block_a = [100000.0] + [1.0] * 287
    block_b = [99999.0] * 10 + [1.0] * 278
    series = PriceSeries((block_a + block_b) * 6)
    return sliding_windows(series, 288, 288, 10, ProblemKind.MAX)


def _one_round(window, stream):
    """The grid ratios of one (prices, prediction) window with the stream's
    budget, band and kind, as the learner's replay computes them."""
    return replay_ratios(stream_of((window,), stream.k, stream.bounds, stream.kind))[0].tolist()


class TestLearnerType:
    def test_default_factory(self):
        assert len(GRID) == 33
        assert GRID[0] == 0.0 and GRID[-1] == 1.0
        assert all(b > a for a, b in zip(GRID, GRID[1:]))

    @pytest.mark.parametrize("seed", [1.5, "1", None])
    def test_seed_that_is_not_an_integer_raises_typed(self, seed):
        stream, _ = _stream(3, k=5)
        with pytest.raises(InvalidInputError, match="^seed must be an integer, got "):
            run_learning(stream, seed)

    def test_seed_keys_stay_philox_keys(self):
        # a negative seed's keys fall below 0; a numpy integer is its int
        stream, _ = _stream(3, k=5)
        with pytest.raises(InvalidInputError, match=r"^Philox keys are ints in \[0, 2\^128\)"):
            run_learning(stream, -1)
        assert run_learning(stream, np.int64(7)) == run_learning(stream, 7)

    def test_hedge_rejects_a_ratio_below_one(self):
        # whatever round 2 draws, its ratio is below 1 - 1e-9 and is named
        ratios = np.full((3, len(GRID)), 1.5)
        ratios[1] = 0.75
        with pytest.raises(InvalidInputError, match=r"ratios are >= 1, got 0\.75$"):
            learner_mod._hedge(ratios, seed=0)
        ratios[1] = 1.0 - 1e-10  # within the tolerance
        _, hist = learner_mod._hedge(ratios, seed=0)
        assert isinstance(hist, RegretHistory)
        assert hist.chosen_ratio == [1.5, 1.0 - 1e-10, 1.5]


class TestSelectLambda:
    """Each round draws a grid confidence with probability proportional to
    its weight, from a Philox stream keyed by (seed, round)."""

    def test_two_point_reproducible(self):
        # two runs at one seed draw the same grid points
        windows, _ = _stream(40, k=5, perfect=False)
        _, hist = run_learning(windows, seed=3)
        matrix = replay_ratios(windows)
        assert run_learning(windows, seed=3)[1] == hist
        for t, (lam, ratio) in enumerate(zip(hist.chosen_lambda, hist.chosen_ratio)):
            # the recorded ratio is the drawn confidence's column of its round
            assert ratio == matrix[t, GRID.index(lam)]

    def test_concentrated_weights(self):
        weights, hist = run_learning(_overstated_stream(200), seed=0)
        assert weights[-1] > 1.0 - 1e-6
        assert sum(lam == 1.0 for lam in hist.chosen_lambda[-100:]) >= 95

    def test_zero_weight_never_drawn(self):
        windows = _underflow_stream()
        for seed in range(20):
            weights, hist = run_learning(windows, seed)
            assert weights[0] == 0.0
            assert all(lam != 0.0 for lam in hist.chosen_lambda[1:])

    def test_underflow_stream_draws_are_pinned(self):
        # recorded while each round still drew with Generator.choice
        first = [0, 1, 17, 31, 24, 28, 9, 21, 29, 0, 26, 14, 3, 18, 31, 5, 0, 17, 8, 17]
        matrix = replay_ratios(_underflow_stream())
        for seed, j in enumerate(first):
            weights, hist = run_learning(_underflow_stream(), seed)
            assert [GRID.index(lam) for lam in hist.chosen_lambda] == [j] + [32] * 10
            assert hist.chosen_ratio == matrix[range(11), [j] + [32] * 10].tolist()
            assert hist.cumulative_regret[-1] == matrix[0, j] - 1.0
            assert weights == (0.0,) + (4.0375695847931746e-38,) * 31 + (1.0,)

    def test_draws_are_generator_choice(self, monkeypatch):
        held = []  # the weights and keys of the underflow stream's rounds
        draws = learner_mod._draws
        monkeypatch.setattr(learner_mod, "_draws",
                            lambda weights, keys: held.append((weights, keys)) or draws(weights, keys))
        for seed in range(20):
            run_learning(_underflow_stream(), seed)
        rng = np.random.default_rng(14)
        n, g = 4000, len(GRID)
        zeros = rng.random((n, g))
        zeros[rng.random((n, g)) < 0.5] = 0.0
        zeros[np.arange(n), rng.integers(g, size=n)] = rng.random(n) + 0.5
        subnormal = rng.integers(0, 1 << 20, (n, g)) * 5e-324
        subnormal[: n // 2] += rng.random((n // 2, g)) * (rng.random((n // 2, g)) < 0.1)
        subnormal[n // 2:, 0] += 1.0
        blocks = [
            rng.random((n, g)),
            np.exp(rng.normal(0.0, 30.0, (n, g))),  # from 1e-300 to 1e300
            zeros,
            subnormal,
            np.eye(g)[rng.integers(g, size=n)],  # one-hot
        ] + [weights for weights, _ in held]
        keys = [tuple(rng.integers(1 << 40, size=n).tolist()) for _ in range(5)]
        keys += [tuple(drawn) for _, drawn in held]
        checked = 0
        for weights, block_keys in zip(blocks, keys):
            got = learner_mod._draws(weights, block_keys).tolist()
            want = [int(np.random.Generator(np.random.Philox(int(key))).choice(g, p=w / w.sum()))
                    for w, key in zip(weights, block_keys)]
            assert got == want
            checked += len(want)
        assert checked >= 20_000

    @pytest.mark.parametrize("weights", [[0.0] * 33, [1.0] * 32 + [-0.5], [1.0] * 32 + [math.nan]])
    def test_draws_reject_what_generator_choice_rejects(self, weights):
        w = np.array(weights)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            np.random.Generator(np.random.Philox(0)).choice(33, p=w / w.sum())
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            learner_mod._draws(w[None, :], (0,))


def _key_ranges():
    """Philox key ranges: ranges whose keys cross a 32-bit word boundary,
    and the Hedge and hardening ranges of the largest CLI seed."""
    top = (2**64 - 1) << 20
    firsts = st.one_of(
        st.builds(lambda word, back: 2**word - back, st.sampled_from([32, 64, 96]),
                  st.integers(0, 8)),
        st.builds(top.__add__, st.integers(0, 4000)),
        st.builds((top + 2**63).__add__, st.integers(0, 4000)),
    )
    return st.builds(lambda first, count: range(first, first + count), firsts,
                     st.integers(1, 16))


class TestUniforms:
    """``_uniforms`` is the library's one Philox uniform: the Hedge draws
    and the sweep's hardening draws both read it."""

    def test_uniforms_are_generator_random(self):
        rng = np.random.default_rng(15)
        keys = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, *range(2, 2000)]
        # the sweep's hardening keys, the last seed's past 2^64
        keys += [seed * 2**20 + idx + 2**63 for seed in (0, 1, 2**43) for idx in range(2000)]
        keys += rng.integers(0, 2**64, size=7000, dtype=np.uint64).tolist()
        assert len(keys) >= 15_000
        want = [np.random.Generator(np.random.Philox(key)).random() for key in keys]
        assert learner_mod._uniforms(tuple(keys)).tolist() == want

    def test_branch_frequency_matches_rho(self):
        rho = 0.3
        hits = sum(u < rho for u in learner_mod._uniforms(range(10_000)).tolist())
        assert abs(hits / 10_000 - rho) < 0.02

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=12), span=_key_ranges())
    @example(keys=[2**128 - 1, 2**100 + 7, 2**96 - 1, 2**96], span=range(2**64 - 5, 2**64 + 5))
    @example(keys=[0, 2**32 - 1, 2**32], span=range(2**32 - 5, 2**32 + 5))
    def test_kernel_is_generator_random_across_key_words(self, keys, span):
        # any key below 2^128, and ranges whose keys carry into a further word
        for drawn in (tuple(keys), span):
            want = [np.random.Generator(np.random.Philox(key)).random() for key in drawn]
            assert learner_mod._uniforms(drawn).tolist() == want

    def test_keys_outside_the_philox_domain_raise_typed(self):
        # a negative library seed keys its rounds below 0
        ratios = 1.0 + np.random.default_rng(16).random((4, len(GRID)))
        with pytest.raises(InvalidInputError, match=r"got -1048576$"):
            learner_mod._hedge(ratios, seed=-1)
        for bad in (2**128, -1, 1.0, "1", None):
            with pytest.raises(InvalidInputError, match=re.escape(f"got {bad!r}")):
                learner_mod._uniforms((0, 2**128 - 1, bad))

    def test_a_key_range_draws_the_same_again(self):
        # a second Hedge pass or hardening batch of the same seed and count
        # reads the same draws
        from ksearch import harness as harness_mod

        ratios = 1.0 + np.random.default_rng(16).random((40, len(GRID)))
        hedged = learner_mod._hedge(ratios, seed=3)
        hard = harness_mod._hardening_draws(3, 40)
        assert learner_mod._hedge(ratios, seed=3) == hedged
        assert harness_mod._hardening_draws(3, 40) == hard


class TestObserveRound:
    """One full-information round: replay the window under every grid
    confidence, then apply the Hedge update."""

    def test_equal_losses_leave_weights_uniform(self):
        # degenerate bounds: every design is flat, every ratio is exactly 1
        bounds = PriceBounds(5.0, 5.0)
        window = ((5.0,) * 10, 5.0)
        weights, _ = run_learning(stream_of([window] * 10, 2, bounds, ProblemKind.MAX), seed=0)
        assert all(w == pytest.approx(1.0 / 33, rel=1e-12) for w in weights)

    def test_unit_loss_gap_grows_weight_by_e(self):
        # each unit of rate * loss gap is a factor e between two weights:
        # w_0 / w_j = exp(rate * (r_j - r_0)), rate = sqrt(8 ln 33 / rounds)
        windows, _ = _stream(1, k=8, perfect=False)
        weights, _ = run_learning(windows, seed=0)
        matrix = replay_ratios(windows)
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
        windows = stream_of([((p,) + (1.0,) * 9, 1e6) for p in (5e5, 999.0)], 1, bounds,
                            ProblemKind.MAX)
        weights, _ = run_learning(windows, seed=0)
        matrix = replay_ratios(windows)
        survivors = [r < 2.0 for r in matrix[0].tolist()]
        assert 0 < sum(survivors) < 33
        assert weights == tuple(1.0 / sum(survivors) if s else 0.0 for s in survivors)

    def test_adversarial_perfect_stream_concentrates_full_trust(self):
        windows = _adversarial_stream(200, k=8)
        weights, _ = run_learning(windows, seed=0)
        best = max(range(33), key=lambda i: weights[i])
        # the extreme is held for k arrivals, so full trust is exactly optimal
        assert GRID[best] == 0.0

    def test_real_stream_concentrates_on_empirically_best_lambda(self):
        windows, _ = _stream(198, k=8)
        weights, _ = run_learning(windows, seed=0)
        matrix = replay_ratios(windows)
        # the heaviest weight sits on the grid point with the lowest total loss
        totals = matrix.sum(axis=0).tolist()
        best_weight = max(range(33), key=lambda i: weights[i])
        best_total = min(range(33), key=lambda i: totals[i])
        assert best_weight == best_total

    def test_weights_stay_positive_and_finite(self):
        windows, _ = _stream(120, k=5, perfect=False)
        weights, _ = run_learning(windows, seed=0)
        assert all(w > 0 and math.isfinite(w) for w in weights)
        assert math.fsum(weights) == pytest.approx(1.0, rel=1e-12)


class TestRoundRatios:
    def test_ratios_at_least_one(self):
        stream, windows = _stream(4, k=8, perfect=False)
        for window in windows[:4]:
            for r in _one_round(window, stream):
                assert r >= 1.0 - 1e-12

    def test_full_trust_is_optimal_when_extreme_is_held(self):
        # When the predicted extreme actually recurs k times, zero confidence
        # in the fallback (lambda = 0) attains the offline optimum.
        for kind in (ProblemKind.MAX, ProblemKind.MIN):
            windows = _adversarial_stream(1, k=8, kind=kind)
            ratios = dict(zip(GRID, replay_ratios(windows)[0].tolist()))
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

        stream, windows = _stream(4, k=8, perfect=True)
        bounds = stream.bounds
        empirical = []
        for window in windows[:4]:
            target = design(window[1], 0.0, bounds, 8, ProblemKind.MAX)
            assert prediction_ratio(target.schedule, window[1]) <= 1.0 + 1e-9
            empirical.append(_one_round(window, stream)[0])
        assert max(empirical) > 1.0 + 1e-6


def _oracle_ratios(window, kind, bounds, k, schedules):
    """Per-schedule ota_total ratios: the replay the block kernel replaces."""
    opt = offline_opt(SearchInstance(window[0], k, bounds), kind)
    prices = np.asarray(window[0])
    out = []
    for schedule in schedules:
        total, _ = ota_total(schedule, prices)
        out.append(opt / total if kind.is_max else total / opt)
    return out


def _grid_schedules(window, kind, bounds, k, grid):
    return [design(window[1], lam, bounds, k, kind).schedule for lam in grid]


@pytest.fixture
def block_sizes(monkeypatch):
    """The window count of every block the learner hands to the kernel."""
    sizes = []
    kernel = learner_mod.ota_totals

    def spy(thresholds, stream, rows, *hardened):
        sizes.append(int(rows.max() - rows.min()) + 1)  # the windows the kernel lays out
        return kernel(thresholds, stream, rows, *hardened)

    monkeypatch.setattr(learner_mod, "ota_totals", spy)
    return sizes


class TestGridArrays:
    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("prediction", [5.0, 17.25, 50.0])
    def test_rows_are_the_grid_designs(self, kind, prediction):
        grids = learner_mod._design_grids([prediction], BOUNDS, 6, kind)
        assert grids.shape == (1, len(GRID), 6) and grids.dtype == np.float64
        for g, lam in enumerate(GRID):
            expected = design(prediction, lam, BOUNDS, 6, kind).schedule.values
            assert tuple(grids[0][g].tolist()) == expected

    def test_a_block_designs_its_distinct_predictions_in_one_batch(self, monkeypatch):
        batches, kernel_rows = [], []
        construct, kernel = learner_mod._construct_grid, learner_mod.ota_totals

        def construct_spy(predictions, *args):
            batches.append(list(predictions))
            return construct(predictions, *args)

        def kernel_spy(thresholds, *args):
            kernel_rows.append(thresholds.reshape(-1, len(GRID), 6))
            return kernel(thresholds, *args)

        monkeypatch.setattr(learner_mod, "_construct_grid", construct_spy)
        monkeypatch.setattr(learner_mod, "ota_totals", kernel_spy)
        instance = SearchInstance(np.geomspace(BOUNDS.p_max, BOUNDS.p_min, 12), 6, BOUNDS)
        predictions = (30.0, 20.0, 10.0, 30.0)
        windows = stream_of([(instance.prices, prediction) for prediction in predictions], 6,
                            BOUNDS, ProblemKind.MAX)
        first = replay_ratios(windows)
        assert batches == [[30.0, 20.0, 10.0]]
        [rows] = kernel_rows
        assert (rows[0] == rows[3]).all()
        for prediction, window_rows in zip(predictions, rows):
            assert window_rows.tolist() == [
                list(design(prediction, lam, BOUNDS, 6, ProblemKind.MAX).schedule.values)
                for lam in GRID]
        # nothing is kept between replays: the same replay designs the same batch
        assert (replay_ratios(windows) == first).all()
        assert batches == [[30.0, 20.0, 10.0]] * 2

    def test_a_raising_batch_falls_back_to_each_design(self, monkeypatch):
        def overflowing(*args):
            raise OverflowError("a power table overflowed")

        monkeypatch.setattr(learner_mod, "_construct_grid", overflowing)
        predictions = [30.0, 5.0, 50.0]
        grids = learner_mod._design_grids(predictions, BOUNDS, 6, ProblemKind.MIN)
        assert grids.shape == (3, len(GRID), 6) and grids.dtype == np.float64
        assert grids.tolist() == [
            [list(design(prediction, lam, BOUNDS, 6, ProblemKind.MIN).schedule.values)
             for lam in GRID] for prediction in predictions]

    def test_failure_is_the_first_failing_designs_own(self):
        # a design-grid failure point: robustness fails at lambda = 7/32 first
        prediction, bounds, k = 1.0, PriceBounds(1.0, 5623.413251903491), 100
        kind = ProblemKind.MIN
        with pytest.raises(ConstructionError) as first:
            for lam in GRID:
                design(prediction, lam, bounds, k, kind)
        with pytest.raises(ConstructionError) as info:
            learner_mod._design_grids([prediction], bounds, k, kind)
        got, want = info.value, first.value
        assert want.lam == 0.21875 and str(want).startswith("robustness violated")
        assert type(got) is type(want) and str(got) == str(want)
        assert (got.kind, got.bounds, got.k, got.lam, got.prediction) == (
            want.kind, want.bounds, want.k, want.lam, want.prediction)

    def test_design_failure_keeps_stream_order(self):
        # a window whose designs succeed, then one whose design fails
        # (robustness at lambda = 5/8)
        bounds, k = PriceBounds(1.0, 10000.0), 20
        prices = np.geomspace(bounds.p_max, bounds.p_min, 2 * k)
        good, failing = (prices, 100.0), (prices, 1.0)
        with pytest.raises(ConstructionError) as info:
            replay_ratios(stream_of((good, failing), k, bounds, ProblemKind.MIN))
        assert str(info.value).startswith("robustness violated")
        assert (info.value.lam, info.value.prediction) == (0.625, 1.0)


def _batched_rows(predictions, bounds, k, kind):
    """The batched construction's rows of each prediction as lists, or None
    where it raises."""
    snapped = [augmented_mod._snap_prediction(p, bounds) for p in predictions]
    try:
        rows = augmented_mod._construct_grid(snapped, GRID, bounds, k, kind).tolist()
    except (KSearchError, ArithmeticError, ValueError):
        return None
    return [rows[at:at + len(GRID)] for at in range(0, len(rows), len(GRID))]


# pinned points: an exact tie in an i* scan; a 19-term prefix sum and an
# 11-term running sum, long enough for a pairwise sum to round otherwise;
# a pivot on the near side of P by float noise; P one ulp past p_max
@example(case=(ProblemKind.MIN, 1.0, 10.0, 2, [("i_star", 1, 0.0, 1.0, -1)]))
@example(case=(ProblemKind.MIN, 5.0, 10.0**0.5, 19, [("inside", 0, 1.0, 0.25, 0)]))
@example(case=(ProblemKind.MAX, 1.0, 10.0**0.3671875, 11, [("i_star", 6, 0.0, 1.0, 1)]))
@example(case=(ProblemKind.MIN, 1.0, 10.0, 1, [("p_max", 0, 0.0, 0.0, -1)]))
@example(case=(ProblemKind.MIN, 10.0625, 10.0**0.375, 11, [("p_max", 0, 0.0, 0.0, 1)]))
# blocks of several predictions in a band where the designs at p_min fail
# (robustness at lambda = 5/8) and those at sqrt(theta) succeed
@example(case=(ProblemKind.MIN, 1.0, 1e4, 20,
               [("inside", 0, 0.5, 0.5, 0), ("p_min", 0, 0.0, 0.0, 0),
                ("p_max", 0, 0.0, 0.0, -1), ("p_min", 0, 0.0, 0.0, 2)]))
@example(case=(ProblemKind.MIN, 1.0, 1e4, 20,
               [("inside", g % len(GRID), g / 59, 1.0, 0) for g in range(60)]))
@example(case=(ProblemKind.MAX, 1.0, 1e3, 20,
               [(where, g % len(GRID), g / 59, 1.0, g % 5 - 2)
                for g, where in enumerate(["p_min", "p_max", "tilde_1", "tilde_2", "inside"] * 12)]))
@settings(max_examples=150, deadline=None)
@given(case=band_cases())
def test_batched_rows_are_the_per_lambda_designs(case):
    kind, p_min, theta, k, spots = case
    bounds = PriceBounds(p_min, p_min * theta)
    predictions = [band_prediction(spot, bounds, k, kind) for spot in spots]
    found = [[design_or_error(p, lam, bounds, k, kind) for lam in GRID] for p in predictions]
    errors = [d for row in found for d in row if isinstance(d, Exception)]
    expected = [None if any(isinstance(d, Exception) for d in row)
                else [list(d.schedule.values) for d in row] for row in found]
    # no power table overflows in this domain, so a batch returns exactly
    # where every design succeeds, and with their values
    for prediction, want in zip(predictions, expected):
        assert _batched_rows([prediction], bounds, k, kind) == (None if want is None else [want])
    assert _batched_rows(predictions, bounds, k, kind) == (None if errors else expected)
    # the learner designs the block as each prediction's rows, or raises
    # the first failing prediction's first failing design's own error
    try:
        grids = learner_mod._design_grids(predictions, bounds, k, kind)
    except (KSearchError, ArithmeticError, ValueError) as error:
        assert errors and _described(error) == _described(errors[0])
    else:
        assert not errors and grids.tolist() == expected


# predictions where j* sits within an ulp of rounding the other way, so a
# log or log1p from numpy instead of ``math`` would change the rows
@pytest.mark.parametrize("kind,bounds,k,prediction", [
    (ProblemKind.MAX, PriceBounds(1.0, 4.17), 3, 2.9885129321424184),
    (ProblemKind.MAX, PriceBounds(1.0, 96.19), 50, 17.96881973482242),
    (ProblemKind.MIN, PriceBounds(1.0, 3.53), 5, 1.1224296889515988),
    (ProblemKind.MIN, PriceBounds(1.0, 18.59), 7, 1.8647776808165517),
])
def test_batched_prefix_lengths_round_as_the_designs_do(kind, bounds, k, prediction):
    designs = [list(design(prediction, lam, bounds, k, kind).schedule.values) for lam in GRID]
    assert _batched_rows([prediction], bounds, k, kind) == [designs]


@pytest.mark.parametrize("kind", list(ProblemKind))
@pytest.mark.parametrize("prediction", [1.0, 3.0, 10.0])
@pytest.mark.parametrize("gamma", [1.0, 2.5])
def test_batched_prefix_lengths_fail_where_the_scalar_one_does(kind, prediction, gamma):
    bounds, k = PriceBounds(1.0, 10.0), 7
    log_grow = math.log1p(gamma / k) if kind.is_max else math.log1p(1.0 / (gamma * k))
    try:
        want = augmented_mod._prefix_length(prediction, gamma, bounds, k, kind)
    except (ArithmeticError, ValueError):
        want = None
    try:
        with np.errstate(all="ignore"):  # as the batched construction runs it
            [got] = augmented_mod._prefix_lengths(
                np.array([prediction]), np.array([gamma]), np.array([log_grow]),
                bounds, k, kind).tolist()
    except (KSearchError, ArithmeticError, ValueError):
        got = None
    assert got == want


def _described(error):
    """An error's class, message and the call it carries."""
    call = ("kind", "bounds", "k", "lam", "prediction")
    return type(error), str(error), tuple(getattr(error, name, None) for name in call)


class TestBlockReplay:
    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_round_ratios_equal_per_schedule_replay(self, kind):
        stream, windows = _stream(8, k=6, kind=kind, perfect=False)
        bounds = stream.bounds
        for window in windows:
            expected = _oracle_ratios(
                window, kind, bounds, 6, _grid_schedules(window, kind, bounds, 6, GRID))
            assert _one_round(window, stream) == expected

    CUTS = [
        (1, -1, [1] * 7),  # a budget below one window still replays one
        (1, 0, [1] * 7),
        (3, 0, [3, 3, 1]),  # a partial last block
        (3, -1, [2, 2, 2, 1]),
        (7, 0, [7]),
        (50, 0, [7]),
    ]

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("per_block,budget_offset,sizes", CUTS)
    def test_blocks_cut_at_the_budget(self, kind, k, per_block, budget_offset, sizes,
                                      block_sizes, monkeypatch):
        stream, windows = _stream(7, k=k, kind=kind, perfect=False)
        bounds = stream.bounds
        extra = (worst_case_thresholds(bounds, k, kind).schedule,)
        runs = len(GRID) + len(extra)
        budget = _gather_bytes(k) + per_block * _replay_window_bytes(
            stream.horizon, k, runs, stream.horizon, False)
        monkeypatch.setattr(learner_mod, "_REPLAY_BLOCK_BYTES", budget + budget_offset)
        # these are the replay's cuts: each window's prediction is new, and
        # the design batch's bound would cut first
        monkeypatch.setattr(learner_mod, "_design_bytes", lambda k: 1)
        ratios = replay_ratios(stream, extra)
        assert block_sizes == sizes
        for window, row in zip(windows, ratios.tolist()):
            schedules = _grid_schedules(window, kind, bounds, k, GRID) + list(extra)
            assert row == _oracle_ratios(window, kind, bounds, k, schedules)

    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_overlapping_windows_pack_more_per_block(self, k, monkeypatch):
        # one budget, windows of 100 prices that start 20 apart or 100 apart:
        # a window after the first is charged only the prices it adds
        series = gen_synthetic_series(num_samples=4400, seed=7)
        runs = len(GRID) + 1
        first = _replay_window_bytes(100, k, runs, 100, False)
        budget = _gather_bytes(k) + 20 * first
        monkeypatch.setattr(learner_mod, "_REPLAY_BLOCK_BYTES", budget)
        monkeypatch.setattr(learner_mod, "_design_bytes", lambda k: 1)  # the replay's cuts
        sizes = {}
        for stride in (20, 100):
            stream = sliding_windows(series, 100, stride, k, ProblemKind.MAX)
            blocks = learner_mod._blocks(stream, runs, np.zeros(len(stream), dtype=bool))
            sizes[stride] = [stop - start for start, stop in blocks]
            assert sum(sizes[stride]) == len(stream)
        overlapping = 1 + (budget - _gather_bytes(k) - first) // _replay_window_bytes(
            100, k, runs, 20, False)
        assert sizes[100][0] == 20 < overlapping == sizes[20][0]

    @pytest.mark.parametrize("designs,budget_offset,sizes", [
        (2, 0, [5, 2]),  # a a b b b | c a
        (2, -1, [2, 3, 1, 1]),  # one prediction a block
        (3, 0, [6, 1]),
        (4, 0, [7]),  # a counts twice, as it follows c
    ])
    def test_blocks_cut_at_the_design_budget(self, designs, budget_offset, sizes, monkeypatch):
        # at k = 50 a prediction's design batch outweighs the replay of all
        # seven windows, so the batch's bound cuts the blocks
        base, windows = _stream(7, k=50)
        a, b, c = (prediction for _, prediction in windows[:3])
        predictions = [a, a, b, b, b, c, a]
        stream = stream_of([(prices, p) for (prices, _), p in zip(windows, predictions)], 50,
                           base.bounds, ProblemKind.MAX)
        runs = len(GRID) + 1
        budget = designs * learner_mod._design_bytes(50) + budget_offset
        assert _gather_bytes(50) + 7 * _replay_window_bytes(100, 50, runs, 100, False) < budget
        monkeypatch.setattr(learner_mod, "_REPLAY_BLOCK_BYTES", budget)
        blocks = learner_mod._blocks(stream, runs, np.zeros(7, dtype=bool))
        assert [hi - lo for lo, hi in blocks] == sizes


class TestBlockCounts:
    """How many blocks a stream of the CLI's shapes replays in: the kernel's
    fixed cost per call is most of a block's time, so fewer is faster."""

    def test_the_sweep_replays_its_k_100_group_in_at_most_14_blocks(self):
        # the 5-year feed in windows of 3,024 prices, 432 apart, at error
        # level 1, a fifth of them hardened, and the 33 grid runs and the
        # worst case on each: 24 blocks while a run-slot was charged 32 bytes
        from ksearch import harness as harness_mod

        series = gen_synthetic_series(seed=11)
        stream = adjust_error(sliding_windows(series, 3024, 432, 100, ProblemKind.MAX), 1.0)
        hard = np.array(harness_mod._hardening_draws(11, len(stream))) < 0.2
        assert len(list(learner_mod._blocks(stream, len(GRID) + 1, hard))) <= 14

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_learn_daily_replays_in_no_more_blocks_than_before(self, kind):
        # 1,239 days of 10-minute prices in windows of 288, 48 apart, k = 10
        # and the 33 grid runs: 15 blocks a kind at a 32-byte run-slot
        series = gen_synthetic_series(1239 * 144, seed=11)
        stream = sliding_windows(series, 288, 48, 10, kind)
        hard = np.zeros(len(stream), dtype=bool)
        assert len(list(learner_mod._blocks(stream, len(GRID), hard))) <= 15


class TestDesignBatchCharge:
    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("k", [5, 10, 100])
    @pytest.mark.parametrize("count", [1, 4, 16])
    def test_peak_stays_within_the_charge(self, kind, k, count):
        # predictions in the band's far half, where nearly every grid row
        # builds its flat block and i* scan (cases II/III, V/VI)
        low, high = BOUNDS.p_min, BOUNDS.p_max
        middle = math.sqrt(low * high)
        edges = (middle, high) if kind.is_max else (low, middle)
        predictions = np.geomspace(*edges, count).tolist()
        tilde_1 = augmented_mod._grid_frame(GRID, BOUNDS, k, kind).tilde_1
        beyond = [p > tilde_1 if kind.is_max else p <= tilde_1 for p in predictions]
        assert np.mean(beyond) > 0.9
        learner_mod._design_grids(predictions, BOUNDS, k, kind)  # the grid frame is cached
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            learner_mod._design_grids(predictions, BOUNDS, k, kind)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= count * learner_mod._design_bytes(k)


class TestRunLearningAndRegret:
    def test_deterministic(self):
        windows, _ = _stream(60, k=5)
        _, hist_a = run_learning(windows, seed=42)
        _, hist_b = run_learning(windows, seed=42)
        assert hist_a == hist_b
        _, hist_c = run_learning(windows, seed=43)
        assert hist_a != hist_c

    def test_record_invariants(self):
        windows, _ = _stream(50, k=5)
        weights, hist = run_learning(windows, seed=1)
        assert len(weights) == len(GRID)
        # round t is entry t - 1 of every column, each a list of Python floats
        assert [len(column) for column in hist] == [50] * 4
        assert {type(value) for column in hist for value in column} == {float}
        cum = 0.0
        for chosen, best, regret in zip(hist.chosen_ratio, hist.best_fixed_ratio,
                                        hist.cumulative_regret):
            cum += chosen - best
            assert regret == cum  # summed left to right, to the bit
        # the baseline is a fixed grid point: per-round best ratios must be
        # achievable, so cumulative regret of the best fixed choice is zero
        assert hist.cumulative_regret[-1] >= -1e-9

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_matrix_rows_are_round_ratios(self, kind):
        # the stream's blocks replay to the same bits as one window at a time
        stream, windows = _stream(9, k=5, kind=kind, perfect=False)
        extra = (worst_case_thresholds(stream.bounds, 5, kind).schedule,)
        matrix = replay_ratios(stream, extra)
        assert matrix.shape == (9, len(GRID) + 1)
        for window, row in zip(windows, matrix[:, : len(GRID)].tolist()):
            assert row == _one_round(window, stream)

    def test_regret_curve_matches_records(self):
        # the average regret after round n is the mean of the first n gaps
        windows, _ = _stream(40, k=5)
        _, hist = run_learning(windows, seed=2)
        gaps = [chosen - best for chosen, best in zip(hist.chosen_ratio, hist.best_fixed_ratio)]
        for n, regret in enumerate(hist.cumulative_regret, start=1):
            assert regret / n == pytest.approx(
                math.fsum(gaps[:n]) / n, abs=1e-12)

    def test_regret_curve_trivial_cases(self):
        # a stream on which every grid point ties has no regret at all
        window = ((5.0,) * 10, 5.0)
        for n in (1, 5):
            stream = stream_of([window] * n, 2, PriceBounds(5.0, 5.0), ProblemKind.MAX)
            _, hist = run_learning(stream, seed=0)
            assert hist.cumulative_regret == [0.0] * n

    def test_average_regret_decreasing_tail(self):
        windows, _ = _stream(400, k=5)
        _, hist = run_learning(windows, seed=11)
        tail = [regret / n for n, regret in enumerate(hist.cumulative_regret, start=1)][-100:]
        assert tail[-1] <= tail[0]
        # the trend is downward: occasional off-grid draws can nudge single
        # rounds up, so compare smoothed quarter means instead of every step
        assert sum(tail[-25:]) / 25 <= sum(tail[:25]) / 25

    def test_empty_stream_rejected(self):
        with pytest.raises(InvalidInputError):
            run_learning(stream_of((), 1, BOUNDS, ProblemKind.MAX), seed=0)
