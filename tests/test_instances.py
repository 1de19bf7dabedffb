"""Instance generation, experiment transformations, and data ingestion."""

from __future__ import annotations

import csv
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksearch import (
    DataFormatError,
    DomainError,
    ExperimentWindow,
    InvalidInputError,
    PInstanceSpec,
    PriceBounds,
    PriceSeries,
    ProblemKind,
    SearchInstance,
    ThresholdSchedule,
    adjust_error,
    apply_rho_hard,
    gen_p_instance,
    gen_synthetic_series,
    gen_worst_case_sequence,
    ingest_csv,
    interval_ratios,
    offline_opt,
    run_ota,
    scale_theta,
    sliding_windows,
    solve_alpha_star,
    worst_case_thresholds,
)
from ksearch.instances import FIVE_YEAR_SAMPLES, STRIDE_SAMPLES, WINDOW_SAMPLES

BOUNDS = PriceBounds(5.0, 50.0)


# --------------------------------------------------------------------------
# gen_p_instance


class TestGenPInstance:
    def test_frozen_example(self):
        spec = PInstanceSpec(ProblemKind.MAX, p=7.0, bounds=BOUNDS, k=2, step=1.0)
        inst = gen_p_instance(spec)
        assert inst.prices.tolist() == [5.0, 5.0, 6.0, 6.0, 7.0, 7.0, 5.0, 5.0]
        assert inst.k == 2

    def test_degenerate_single_level(self):
        spec = PInstanceSpec(ProblemKind.MAX, p=5.0, bounds=BOUNDS, k=3)
        inst = gen_p_instance(spec)
        assert inst.prices.tolist() == [5.0] * 6

    def test_min_mirror(self):
        spec = PInstanceSpec(ProblemKind.MIN, p=48.0, bounds=BOUNDS, k=2, step=1.0)
        inst = gen_p_instance(spec)
        assert inst.prices.tolist() == [50.0, 50.0, 49.0, 49.0, 48.0, 48.0, 50.0, 50.0]

    def test_offline_opt_is_k_times_p(self):
        for p in (5.0, 9.7, 23.0, 50.0):
            for k in (1, 2, 7):
                spec = PInstanceSpec(ProblemKind.MAX, p=p, bounds=BOUNDS, k=k)
                assert offline_opt(gen_p_instance(spec), ProblemKind.MAX) == pytest.approx(
                    k * p, rel=1e-12
                )
                spec = PInstanceSpec(ProblemKind.MIN, p=p, bounds=BOUNDS, k=k)
                assert offline_opt(gen_p_instance(spec), ProblemKind.MIN) == pytest.approx(
                    k * min(p, 50.0), rel=1e-12
                )

    def test_noninteger_gap_still_ends_at_p(self):
        spec = PInstanceSpec(ProblemKind.MAX, p=7.5, bounds=BOUNDS, k=1, step=1.0)
        inst = gen_p_instance(spec)
        assert inst.prices.tolist() == [5.0, 6.0, 7.0, 7.5, 5.0]

    def test_default_step_resolution(self):
        spec = PInstanceSpec(ProblemKind.MAX, p=50.0, bounds=BOUNDS, k=1)
        assert spec.step == pytest.approx(0.045)
        inst = gen_p_instance(spec)
        assert len(inst.prices) == 1002  # 1001 levels + 1 tail price
        assert inst.prices[-2] == 50.0

    def test_rejects_target_outside_bounds(self):
        with pytest.raises(InvalidInputError):
            PInstanceSpec(ProblemKind.MAX, p=55.0, bounds=BOUNDS, k=1)
        with pytest.raises(InvalidInputError):
            PInstanceSpec(ProblemKind.MAX, p=float("nan"), bounds=BOUNDS, k=1)

    def test_rejects_step_coarser_than_gap(self):
        with pytest.raises(InvalidInputError):
            PInstanceSpec(ProblemKind.MAX, p=5.1, bounds=BOUNDS, k=1, step=0.5)
        with pytest.raises(InvalidInputError):
            PInstanceSpec(ProblemKind.MIN, p=49.9, bounds=BOUNDS, k=1, step=0.5)

    def test_rejects_bad_step_and_k(self):
        with pytest.raises(InvalidInputError):
            PInstanceSpec(ProblemKind.MAX, p=7.0, bounds=BOUNDS, k=1, step=0.0)
        with pytest.raises(InvalidInputError):
            PInstanceSpec(ProblemKind.MAX, p=7.0, bounds=BOUNDS, k=0)

    @given(
        p=st.floats(min_value=5.0, max_value=50.0),
        k=st.integers(min_value=1, max_value=6),
        kind=st.sampled_from([ProblemKind.MAX, ProblemKind.MIN]),
    )
    @settings(max_examples=60, deadline=None)
    def test_instance_invariants(self, p, k, kind):
        gap = p - BOUNDS.p_min if kind.is_max else BOUNDS.p_max - p
        step = None if gap == 0 else min(0.045, gap)
        spec = PInstanceSpec(kind, p=p, bounds=BOUNDS, k=k, step=step)
        inst = gen_p_instance(spec)
        assert inst.k == k
        assert all(BOUNDS.contains(q) for q in inst.prices)
        extreme = max(inst.prices) if kind.is_max else min(inst.prices)
        assert extreme == pytest.approx(p, rel=1e-12)
        # every ladder level is held for exactly k arrivals
        assert len(inst.prices) % k == 0


# --------------------------------------------------------------------------
# gen_worst_case_sequence


class TestWorstCaseSequence:
    def test_i_zero_structure_and_ratio(self):
        sched = worst_case_thresholds(BOUNDS, 4, ProblemKind.MAX).schedule
        eps = 1e-6 * BOUNDS.p_min
        inst = gen_worst_case_sequence(sched, 0)
        assert inst.prices.tolist() == [sched.values[0] - eps] * 4 + [5.0] * 4
        trace = run_ota(sched, inst)
        ratio = offline_opt(inst, ProblemKind.MAX) / trace.total_value
        assert ratio == pytest.approx(4 * (sched.values[0] - eps) / (4 * 5.0), rel=1e-12)

    @pytest.mark.parametrize("kind", [ProblemKind.MAX, ProblemKind.MIN])
    def test_ratio_approaches_interval_ratio(self, kind):
        k = 6
        sched = worst_case_thresholds(BOUNDS, k, kind).schedule
        cr = solve_alpha_star(BOUNDS, k) if kind.is_max else None
        for i in (0, 2, k):
            inst = gen_worst_case_sequence(sched, i)
            trace = run_ota(sched, inst)
            opt = offline_opt(inst, kind)
            ratio = opt / trace.total_value if kind.is_max else trace.total_value / opt
            interval = interval_ratios(sched)[i]
            assert ratio == pytest.approx(interval, abs=1e-4)
            if cr is not None:
                assert ratio == pytest.approx(cr, abs=1e-4)

    @pytest.mark.parametrize("kind", [ProblemKind.MAX, ProblemKind.MIN])
    def test_selects_exactly_i_voluntarily(self, kind):
        k = 5
        sched = worst_case_thresholds(BOUNDS, k, kind).schedule
        for i in range(k + 1):
            trace = run_ota(sched, gen_worst_case_sequence(sched, i))
            voluntary = sum(
                1 for d in trace.decisions if d.selected and not d.compulsory
            )
            assert voluntary == i
            assert trace.num_selected == k

    def test_clipping_at_boundary(self):
        flat = ThresholdSchedule(ProblemKind.MAX, (5.0,) * 3, BOUNDS)
        inst = gen_worst_case_sequence(flat, 0)
        assert inst.prices.tolist() == [5.0] * 6  # phi_1 - eps clipped up to p_min
        flat_min = ThresholdSchedule(ProblemKind.MIN, (50.0,) * 3, BOUNDS)
        inst = gen_worst_case_sequence(flat_min, 0)
        assert inst.prices.tolist() == [50.0] * 6

    def test_domain_errors(self):
        sched = worst_case_thresholds(BOUNDS, 3, ProblemKind.MAX).schedule
        with pytest.raises(DomainError):
            gen_worst_case_sequence(sched, -1)
        with pytest.raises(DomainError):
            gen_worst_case_sequence(sched, 4)


# --------------------------------------------------------------------------
# apply_rho_hard


class TestRhoHard:
    def _instance(self):
        return SearchInstance((7.0, 30.0, 12.0, 45.0, 9.0, 20.0), 2, BOUNDS)

    def test_rho_zero_identity(self):
        inst = self._instance()
        assert apply_rho_hard(inst, 0.0, seed=1, kind=ProblemKind.MAX) is inst

    def test_rho_one_forced_max(self):
        out = apply_rho_hard(self._instance(), 1.0, seed=1, kind=ProblemKind.MAX)
        assert out.prices.tolist() == [7.0, 30.0, 12.0, 45.0, 5.0, 5.0]

    def test_rho_one_forced_min(self):
        out = apply_rho_hard(self._instance(), 1.0, seed=1, kind=ProblemKind.MIN)
        assert out.prices.tolist() == [7.0, 30.0, 12.0, 45.0, 50.0, 50.0]

    def test_deterministic_in_seed(self):
        inst = self._instance()
        a = apply_rho_hard(inst, 0.5, seed=42, kind=ProblemKind.MAX)
        b = apply_rho_hard(inst, 0.5, seed=42, kind=ProblemKind.MAX)
        assert a.prices.tolist() == b.prices.tolist()

    def test_branch_frequency_matches_rho(self):
        inst = self._instance()
        rho = 0.3
        hits = sum(
            apply_rho_hard(inst, rho, seed=s, kind=ProblemKind.MAX) is not inst
            for s in range(10_000)
        )
        assert abs(hits / 10_000 - rho) < 0.02

    def test_rho_out_of_range(self):
        with pytest.raises(DomainError):
            apply_rho_hard(self._instance(), -0.1, seed=1, kind=ProblemKind.MAX)
        with pytest.raises(DomainError):
            apply_rho_hard(self._instance(), 1.1, seed=1, kind=ProblemKind.MAX)


# --------------------------------------------------------------------------
# scale_theta


class TestScaleTheta:
    def test_identity(self):
        series = PriceSeries((2.0, 8.0, 3.0))
        out = scale_theta(series, 1.0)
        assert out.prices == series.prices

    def test_hand_example(self):
        out = scale_theta(PriceSeries((2.0, 8.0)), 4.0)
        assert out.prices == pytest.approx((1.0, 16.0), rel=1e-12)

    def test_ratio_multiplication_property(self):
        import random

        rng = random.Random(5)
        for _ in range(50):
            prices = tuple(rng.uniform(1.0, 100.0) for _ in range(20))
            mean = sum(prices) / len(prices)
            if not (min(prices) < mean < max(prices)):
                continue
            x = rng.uniform(1.0, 4.0)
            out = scale_theta(PriceSeries(prices), x)
            before = max(prices) / min(prices)
            after = max(out.prices) / min(out.prices)
            assert after == pytest.approx(x * before, rel=1e-9)

    def test_timestamps_preserved(self):
        series = PriceSeries((2.0, 8.0), (10, 20))
        assert scale_theta(series, 2.0).timestamps == (10, 20)

    def test_rejects_multiplier_below_one(self):
        with pytest.raises(DomainError):
            scale_theta(PriceSeries((2.0, 8.0)), 0.9)


# --------------------------------------------------------------------------
# ingest_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngestCsv:
    def test_two_rows(self, tmp_path):
        series = ingest_csv(_write(tmp_path, "timestamp,price\n1,5.0\n2,6.0\n"))
        assert series.prices == (5.0, 6.0)
        assert series.timestamps == (1, 2)

    def test_price_only(self, tmp_path):
        series = ingest_csv(_write(tmp_path, "price\n5.0\n6.0\n"))
        assert series.prices == (5.0, 6.0)
        assert series.timestamps is None

    def test_negative_price_names_row(self, tmp_path):
        path = _write(tmp_path, "timestamp,price\n1,5.0\n2,-1\n")
        with pytest.raises(DataFormatError, match="row 2") as info:
            ingest_csv(path)
        assert info.value.row == 2

    def test_non_numeric_price_names_row(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 1"):
            ingest_csv(_write(tmp_path, "price\nabc\n"))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ingest_csv(_write(tmp_path, "timestamp,price\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ingest_csv(_write(tmp_path, ""))

    def test_missing_price_column(self, tmp_path):
        with pytest.raises(InvalidInputError, match="price"):
            ingest_csv(_write(tmp_path, "timestamp,close\n1,5.0\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 2"):
            ingest_csv(_write(tmp_path, "timestamp,price\n1,5.0\n2\n"))

    def test_non_increasing_timestamps(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 2"):
            ingest_csv(_write(tmp_path, "timestamp,price\n5,5.0\n5,6.0\n"))

    def test_bad_timestamp(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 1"):
            ingest_csv(_write(tmp_path, "timestamp,price\nnoon,5.0\n"))

    def test_round_trip(self, tmp_path):
        prices = (5.25, 17.0, 42.125)
        path = tmp_path / "round.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "price"])
            for i, p in enumerate(prices):
                writer.writerow([i, repr(p)])
        series = ingest_csv(path)
        assert series.prices == prices

    def test_byte_order_mark_before_price_header(self, tmp_path):
        series = ingest_csv(_write(tmp_path, "\ufeffprice\n5.0\n6.0\n"))
        assert series.prices == (5.0, 6.0)

    def test_byte_order_mark_keeps_the_timestamp_column(self, tmp_path):
        series = ingest_csv(_write(tmp_path, "\ufefftimestamp,price\n1,5.0\n2,6.0\n"))
        assert series.timestamps == (1, 2)
        with pytest.raises(DataFormatError, match="row 2"):
            ingest_csv(_write(tmp_path, "\ufefftimestamp,price\n5,5.0\n3,6.0\n7,7.0\n"))


# --------------------------------------------------------------------------
# sliding_windows / adjust_error


class TestSlidingWindows:
    def test_single_window(self):
        series = PriceSeries(tuple([10.0, 20.0, 30.0, 40.0] + [15.0, 25.0, 35.0, 12.0]))
        wins = sliding_windows(series, window_len=4, stride=4, k=2, kind=ProblemKind.MAX)
        assert len(wins) == 1
        w = wins[0]
        assert w.instance.prices.tolist() == [15.0, 25.0, 35.0, 12.0]
        assert w.prediction == 40.0  # max of the first half
        assert max(w.instance.prices) == 35.0

    def test_min_kind_prediction(self):
        series = PriceSeries((10.0, 20.0, 30.0, 40.0, 15.0, 25.0, 35.0, 12.0))
        w = sliding_windows(series, 4, 4, 2, ProblemKind.MIN)[0]
        assert w.prediction == 10.0
        assert min(w.instance.prices) == 12.0

    def test_count_formula(self):
        import random

        rng = random.Random(11)
        for _ in range(30):
            t = rng.randint(2, 10)
            stride = rng.randint(1, 7)
            n = rng.randint(2 * t, 6 * t)
            prices = tuple(rng.uniform(5.0, 50.0) for _ in range(n))
            wins = sliding_windows(PriceSeries(prices), t, stride, 1, ProblemKind.MAX)
            assert len(wins) == (n - 2 * t) // stride + 1

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            sliding_windows(PriceSeries((5.0,) * 7), 4, 1, 1, ProblemKind.MAX)

    def test_shared_global_bounds(self):
        series = PriceSeries((10.0, 20.0, 30.0, 40.0, 15.0, 25.0, 35.0, 12.0, 11.0, 13.0))
        wins = sliding_windows(series, 4, 2, 2, ProblemKind.MAX)
        assert len(wins) == 2
        for w in wins:
            assert w.instance.bounds == PriceBounds(10.0, 40.0)

    def test_canonical_preset_count(self):
        # shrunken replica of the canonical windowing: same stride ratio
        n = 2 * WINDOW_SAMPLES + 3 * STRIDE_SAMPLES
        series = gen_synthetic_series(num_samples=n, seed=3)
        wins = sliding_windows(series, WINDOW_SAMPLES, STRIDE_SAMPLES, 10, ProblemKind.MAX)
        assert len(wins) == 4

    def test_five_year_constant_consistency(self):
        assert FIVE_YEAR_SAMPLES == 1770 * 144
        assert (FIVE_YEAR_SAMPLES - 2 * WINDOW_SAMPLES) // STRIDE_SAMPLES + 1 == 577


class TestWindowViews:
    """Windows are read-only views of their series' one price array."""

    def _cut(self, kind=ProblemKind.MAX):
        series = gen_synthetic_series(num_samples=700, seed=5)
        return series, sliding_windows(series, 100, 30, 3, kind)

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_windows_view_the_series(self, kind):
        series, wins = self._cut(kind)
        pick = max if kind.is_max else min
        for i, w in enumerate(wins):
            start = 100 + 30 * i
            assert np.shares_memory(w.instance.prices, series.array)
            assert w.instance.prices.tolist() == list(series.prices[start : start + 100])
            assert w.prediction == pick(series.prices[start - 100 : start])
            assert type(w.prediction) is float

    def test_prices_are_read_only(self):
        series, wins = self._cut()
        with pytest.raises(ValueError):
            wins[0].instance.prices[0] = 5.0
        with pytest.raises(ValueError):
            series.array[0] = 5.0
        assert {type(p) for p in series.prices} == {float}

    def test_hardening_copies_the_window(self):
        series, wins = self._cut()
        before = series.array.tobytes()
        out = apply_rho_hard(wins[0].instance, 1.0, seed=0, kind=ProblemKind.MAX)
        assert not np.shares_memory(out.prices, series.array)
        assert not out.prices.flags.writeable
        assert series.array.tobytes() == before

    def test_equal_content_is_equal(self):
        _, wins = self._cut()
        inst = wins[0].instance
        copy = SearchInstance(inst.prices.tolist(), inst.k, inst.bounds)
        assert copy == inst and hash(copy) == hash(inst)
        assert SearchInstance(inst.prices, 2, inst.bounds) != inst
        assert wins[1].instance != inst

    def test_pickle_keeps_equality(self):
        series, wins = self._cut()
        again = pickle.loads(pickle.dumps((series, wins)))
        assert again == (series, wins)
        assert not again[0].array.flags.writeable
        assert not again[1][0].instance.prices.flags.writeable


class TestAdjustError:
    def _window(self):
        inst = SearchInstance((60.0, 100.0, 30.0), 1, PriceBounds(1.0, 200.0))
        return ExperimentWindow(inst, prediction=60.0)

    def test_level_zero_perfect(self):
        out = adjust_error(self._window(), 0.0, ProblemKind.MAX)
        assert out.prediction == 100.0

    def test_level_one_unchanged(self):
        out = adjust_error(self._window(), 1.0, ProblemKind.MAX)
        assert out.prediction == 60.0

    def test_midpoint_example(self):
        out = adjust_error(self._window(), 0.5, ProblemKind.MAX)
        assert out.prediction == pytest.approx(80.0, rel=1e-12)

    def test_level_out_of_range(self):
        with pytest.raises(DomainError):
            adjust_error(self._window(), -0.01, ProblemKind.MAX)
        with pytest.raises(DomainError):
            adjust_error(self._window(), 1.01, ProblemKind.MAX)

    def test_window_invariants(self):
        inst = SearchInstance((60.0, 100.0), 1, PriceBounds(1.0, 200.0))
        with pytest.raises(InvalidInputError):
            ExperimentWindow(inst, prediction=300.0)


# --------------------------------------------------------------------------
# synthetic series


class TestSyntheticSeries:
    def test_deterministic(self):
        a = gen_synthetic_series(num_samples=500, seed=9)
        b = gen_synthetic_series(num_samples=500, seed=9)
        assert a.prices == b.prices
        assert a.timestamps == b.timestamps

    def test_seed_changes_series(self):
        a = gen_synthetic_series(num_samples=500, seed=9)
        b = gen_synthetic_series(num_samples=500, seed=10)
        assert a.prices != b.prices

    def test_bounds_and_spacing(self):
        series = gen_synthetic_series(num_samples=2000, seed=1)
        assert len(series) == 2000
        assert all(5.0 <= p <= 50.0 for p in series.prices)
        assert series.timestamps[1] - series.timestamps[0] == 600

    def test_timestamps_are_ten_minute_range(self):
        series = gen_synthetic_series(num_samples=700, seed=4)
        assert tuple(series.timestamps) == tuple(range(0, 700 * 600, 600))
        assert isinstance(series.timestamps, range)  # not a tuple of 700 ints
        assert scale_theta(series, 2.0).timestamps == series.timestamps

    def test_pickle_round_trips(self):
        series = gen_synthetic_series(num_samples=300, seed=4)
        again = pickle.loads(pickle.dumps(series))
        assert again == series
        assert again.timestamps == range(0, 300 * 600, 600)

    def test_explores_the_band(self):
        series = gen_synthetic_series(num_samples=WINDOW_SAMPLES * 2, seed=2)
        assert max(series.prices) / min(series.prices) > 2.0


# --------------------------------------------------------------------------
# PriceSeries invariants


class TestPriceSeries:
    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            PriceSeries(())

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            PriceSeries((5.0, 0.0))
        with pytest.raises(InvalidInputError):
            PriceSeries((5.0, math.inf))
        with pytest.raises(InvalidInputError):
            PriceSeries((5.0, math.nan, 6.0))

    def test_rejects_misaligned_timestamps(self):
        with pytest.raises(InvalidInputError):
            PriceSeries((5.0, 6.0), (1,))
        with pytest.raises(InvalidInputError):
            PriceSeries((5.0, 6.0), (2, 1))

    def test_range_timestamps(self):
        assert PriceSeries((5.0, 6.0), range(10, 30, 10)).timestamps == range(10, 30, 10)
        assert PriceSeries((5.0, 6.0), [1, 2]).timestamps == (1, 2)
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            PriceSeries((5.0, 6.0), range(30, 10, -10))
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            PriceSeries((5.0,), range(30, 20, -10))  # one stamp, but a falling range
        with pytest.raises(InvalidInputError):
            PriceSeries((5.0, 6.0), range(0, 30, 10))
