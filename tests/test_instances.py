"""Instance generation, experiment transformations, and data ingestion."""

from __future__ import annotations

import csv
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksearch
from ksearch import (
    DataFormatError,
    DomainError,
    InvalidInputError,
    PriceBounds,
    PriceSeries,
    ProblemKind,
    SearchInstance,
    ThresholdSchedule,
    WindowStream,
    adjust_error,
    gen_synthetic_series,
    ingest_csv,
    interval_ratios,
    offline_opt,
    run_ota,
    scale_theta,
    sliding_windows,
    solve_cr,
    worst_case_thresholds,
)
from ksearch import instances as instances_mod
from ksearch.learner import _stream_ratios
from ksearch.instances import FIVE_YEAR_SAMPLES, STRIDE_SAMPLES, WINDOW_SAMPLES
from adversaries import PInstanceSpec, gen_p_instance, gen_worst_case_sequence
from conftest import replay_ratios, stream_of
from oracle import adjust_error_reference, harden_reference

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
        cr = solve_cr(BOUNDS, k, ProblemKind.MAX) if kind.is_max else None
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
    path.write_text(text, encoding="utf-8", newline="")
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
        with pytest.raises(DataFormatError, match="row 2"):
            ingest_csv(path)

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

    @pytest.mark.parametrize("raw", [b"timestamp,price\n1,5.0\n2,\xff6.0\n", b"\xffprice\n5.0\n"])
    def test_not_utf8_is_invalid_input(self, tmp_path, raw):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        with pytest.raises(InvalidInputError, match="not UTF-8 text"):
            ingest_csv(path)


def _row_loop_refused(path):
    raise AssertionError(f"{path} reached the row loop")


# each feed's series (prices, timestamps) or error (class, message after the
# path), as the row loop gave them before feeds were parsed in bulk
INGEST_CASES = {
    "csv_writer_crlf": ("timestamp,price\r\n1,5.0\r\n2,6.25\r\n3,0.1\r\n",
                        ((5.0, 6.25, 0.1), (1, 2, 3))),
    "byte_order_mark": ("\ufefftimestamp,price\n1,5.0\n2,6.0\n", ((5.0, 6.0), (1, 2))),
    "lone_cr": ("timestamp,price\r1,5.0\r2,6.0\r", ((5.0, 6.0), (1, 2))),
    "no_final_newline": ("timestamp,price\n1,5.0\n2,6.0", ((5.0, 6.0), (1, 2))),
    "subnormal": ("timestamp,price\n1,5e-324\n2,1.5e-320\n", ((5e-324, 1.5e-320), (1, 2))),
    "quoted": ('timestamp,price\n1,"5.0"\n"2",6.0\n', ((5.0, 6.0), (1, 2))),
    "blank_line": ("timestamp,price\n1,5.0\n\n2,6.0\n",
                   (DataFormatError, ": row 2 has 0 fields, expected 2")),
    "blank_last_line": ("timestamp,price\n1,5.0\n2,6.0\n\n",
                        (DataFormatError, ": row 3 has 0 fields, expected 2")),
    "blank_crlf_line": ("timestamp,price\r\n1,5.0\r\n\r\n",
                        (DataFormatError, ": row 2 has 0 fields, expected 2")),
    "whitespace_line": ("timestamp,price\n1,5.0\n \n",
                        (DataFormatError, ": row 2 has 1 fields, expected 2")),
    "padded": ("timestamp,price\n 1 , 5.0 \n2\t,\t6.0\n", ((5.0, 6.0), (1, 2))),
    "price_first": ("price,timestamp\n5.0,1\n6.0,2\n", ((5.0, 6.0), (1, 2))),
    "extra_column": ("timestamp,price,volume\n1,5.0,3\n2,6.0,4\n", ((5.0, 6.0), (1, 2))),
    "underscores": ("timestamp,price\n1_0,5.0\n2_0,6_0\n", ((5.0, 60.0), (10, 20))),
    "nan": ("timestamp,price\n1,5.0\n2,nan\n",
            (DataFormatError, ": row 2: price must be positive, got nan")),
    "inf": ("timestamp,price\n1,inf\n",
            (DataFormatError, ": row 1: price must be positive, got inf")),
    "overflow": ("timestamp,price\n1,5.0\n2,1e400\n",
                 (DataFormatError, ": row 2: price must be positive, got 1e400")),
    "zero": ("timestamp,price\n1,5.0\n2,0\n",
             (DataFormatError, ": row 2: price must be positive, got 0")),
    "negative": ("timestamp,price\n1,-5.0\n",
                 (DataFormatError, ": row 1: price must be positive, got -5.0")),
    "repeated_timestamp": ("timestamp,price\n1,5.0\n1,6.0\n",
                           (DataFormatError, ": row 2: timestamp 1 not strictly increasing")),
    "float_timestamp": ("timestamp,price\n1.0,5.0\n",
                        (DataFormatError, ": row 1: timestamp '1.0' is not an integer")),
    "missing_price": ("timestamp,price\n1,\n",
                      (DataFormatError, ": row 1: price '' is not numeric")),
    "beyond_int64": ("timestamp,price\n99999999999999999999,5.0\n100000000000000000000,6.0\n",
                     ((5.0, 6.0), (99999999999999999999, 100000000000000000000))),
    "unicode_digits": ("timestamp,price\n\u0661,\u0665\n\u0662,6.0\n", ((5.0, 6.0), (1, 2))),
    "header_only": ("timestamp,price\n", (InvalidInputError, ": no data rows")),
    # a field over the csv module's 131,072-character limit, in a row or the header
    "huge_field": ("timestamp,price\n1,5.0\n2," + "9" * 131_073 + "\n3,6.0\n",
                   (DataFormatError, ": row 2: field larger than field limit (131072)")),
    "huge_header": ("timestamp," + "p" * 131_073 + "\n1,5.0\n",
                    (DataFormatError, ": row 0: field larger than field limit (131072)")),
}


class TestBulkIngest:
    """A plain timestamp,price feed is parsed in bulk; every feed gives what
    the row loop gives."""

    @pytest.mark.parametrize("name", list(INGEST_CASES))
    def test_same_series_or_error_as_the_row_loop(self, tmp_path, name):
        text, expected = INGEST_CASES[name]
        path = _write(tmp_path, text)
        for ingest in (ingest_csv, instances_mod._row_series):
            if isinstance(expected[0], type):
                with pytest.raises(expected[0]) as info:
                    ingest(path)
                assert str(info.value) == f"{path}{expected[1]}"
            else:
                series = ingest(path)
                assert (series.prices, series.timestamps) == expected

    @pytest.mark.parametrize("name", ["csv_writer_crlf", "byte_order_mark", "lone_cr",
                                      "no_final_newline", "subnormal"])
    def test_plain_feeds_skip_the_row_loop(self, tmp_path, monkeypatch, name):
        text, expected = INGEST_CASES[name]
        path = _write(tmp_path, text)
        monkeypatch.setattr(instances_mod, "_row_series", _row_loop_refused)
        series = ingest_csv(path)
        assert (series.prices, series.timestamps) == expected

    def test_a_synthetic_feed_never_reaches_the_row_loop(self, tmp_path, monkeypatch):
        # written as the benchmark writes its feeds: one "{t},{p!r}" line per sample
        series = gen_synthetic_series(5000, seed=11)
        path = tmp_path / "feed.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("timestamp,price\n")
            fh.writelines(f"{t},{p!r}\n" for t, p in zip(series.timestamps, series.prices))
        expected = instances_mod._row_series(path)
        monkeypatch.setattr(instances_mod, "_row_series", _row_loop_refused)
        bulk = ingest_csv(path)
        assert np.array_equal(bulk.array, expected.array)
        assert bulk.timestamps == expected.timestamps
        assert expected.prices == series.prices
        assert expected.timestamps == tuple(series.timestamps)


# --------------------------------------------------------------------------
# sliding_windows / adjust_error


class TestSlidingWindows:
    def test_single_window(self):
        series = PriceSeries(tuple([10.0, 20.0, 30.0, 40.0] + [15.0, 25.0, 35.0, 12.0]))
        wins = sliding_windows(series, window_len=4, stride=4, k=2, kind=ProblemKind.MAX)
        assert len(wins) == 1
        prices, prediction = wins.rows()[0], wins.predictions[0]
        assert prices.tolist() == [15.0, 25.0, 35.0, 12.0]
        assert prediction == 40.0  # max of the first half
        assert max(prices) == 35.0

    def test_min_kind_prediction(self):
        series = PriceSeries((10.0, 20.0, 30.0, 40.0, 15.0, 25.0, 35.0, 12.0))
        w = sliding_windows(series, 4, 4, 2, ProblemKind.MIN)
        assert w.predictions[0] == 10.0
        assert min(w.rows()[0]) == 12.0

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

    @pytest.mark.parametrize("kind", ["max", "min", None, 1])
    def test_kind_that_is_not_a_problem_kind_raises_typed(self, kind):
        series = gen_synthetic_series(400, seed=1)
        with pytest.raises(InvalidInputError, match=r"^kind must be a ProblemKind, got "):
            sliding_windows(series, 100, 50, 3, kind)

    def test_shared_global_bounds(self):
        series = PriceSeries((10.0, 20.0, 30.0, 40.0, 15.0, 25.0, 35.0, 12.0, 11.0, 13.0))
        wins = sliding_windows(series, 4, 2, 2, ProblemKind.MAX)
        assert len(wins) == 2
        assert wins.bounds == PriceBounds(10.0, 40.0)

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
        for i, (prices, prediction) in enumerate(zip(wins.rows(), wins.predictions.tolist())):
            start = 100 + 30 * i
            assert np.shares_memory(prices, series.array)
            assert prices.tolist() == list(series.prices[start : start + 100])
            assert prediction == pick(series.prices[start - 100 : start])
            assert type(prediction) is float

    def test_prices_are_read_only(self):
        series, wins = self._cut()
        with pytest.raises(ValueError):
            wins.rows()[0][0] = 5.0
        with pytest.raises(ValueError):
            series.array[0] = 5.0
        assert {type(p) for p in series.prices} == {float}

    def test_hardening_leaves_the_series_as_it_is(self):
        # hardened rows are derived from the plain windows' replay, which
        # neither copies nor writes the series
        series, stream = self._cut()
        before = series.array.tobytes()
        ratios = _stream_ratios(stream, (), [0, 2])
        hard = harden_reference(stream, 1.0, seed=0)
        picked = dataclasses.replace(hard, starts=hard.starts[0:3:2],
                                     predictions=hard.predictions[0:3:2])
        assert ratios[len(stream):].tolist() == replay_ratios(picked).tolist()
        assert series.array.tobytes() == before

    def test_pickle_keeps_equality(self):
        series, _ = self._cut()
        again = pickle.loads(pickle.dumps(series))
        assert np.array_equal(again.array, series.array)
        assert again.timestamps == series.timestamps
        assert not again.array.flags.writeable


class TestWindowStream:
    """The pipeline's windows: offsets into the series' one array."""

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("stride", [1, 30, 100, 170])
    def test_stream_is_the_sliding_windows(self, kind, stride):
        series = gen_synthetic_series(num_samples=700, seed=5)
        stream = sliding_windows(series, 100, stride, 3, kind)
        pick = np.max if kind.is_max else np.min
        starts = list(range(100, 601, stride))
        assert (len(stream), stream.horizon, stream.k) == (len(starts), 100, 3)
        assert stream.starts.tolist() == starts
        assert stream.bounds == PriceBounds(min(series.prices), max(series.prices))
        assert stream.predictions.tolist() == [pick(series.array[s - 100:s]) for s in starts]
        rows = stream.rows()
        assert rows.tolist() == [series.array[s:s + 100].tolist() for s in starts]
        assert np.shares_memory(rows, series.array) and not rows.flags.writeable

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @given(level=st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0, 1])))
    @settings(max_examples=60, deadline=None)
    def test_dialled_is_adjust_error(self, kind, level):
        series = gen_synthetic_series(num_samples=900, seed=9)
        stream = sliding_windows(series, 100, 40, 3, kind)
        expected = [adjust_error_reference(prices, prediction, level, kind, stream.bounds)
                    for prices, prediction in zip(stream.rows(), stream.predictions.tolist())]
        assert adjust_error(stream, level).predictions.tolist() == expected

    def test_each_stream_is_dialled_for_its_own_kind(self):
        # a perfect prediction is the window's own extreme of the stream's kind
        series = gen_synthetic_series(num_samples=900, seed=9)
        for kind, pick in ((ProblemKind.MAX, np.max), (ProblemKind.MIN, np.min)):
            stream = adjust_error(sliding_windows(series, 100, 40, 3, kind), 0.0)
            assert stream.kind is kind
            assert stream.predictions.tolist() == pick(stream.rows(), axis=1).tolist()

    @pytest.mark.parametrize("level", [-0.01, 1.01, math.nan, "0.5", None])
    def test_dial_rejects_levels_outside_the_unit_interval(self, level):
        series = gen_synthetic_series(num_samples=300, seed=9)
        stream = sliding_windows(series, 100, 40, 3, ProblemKind.MAX)
        # a level that is no real number is of the wrong type
        error, message = ((DomainError, "error level must lie in") if isinstance(level, float)
                          else (InvalidInputError, "error level must be a real number"))
        with pytest.raises(error, match=message):
            adjust_error(stream, level)

    @pytest.mark.parametrize("k", [0, 5, 2.0, True])
    def test_budget_is_checked_once_as_an_instance_checks_it(self, k):
        series = PriceSeries((10.0, 20.0, 30.0, 40.0, 15.0, 25.0, 35.0, 12.0))
        with pytest.raises(InvalidInputError) as instance:
            SearchInstance((15.0, 25.0, 35.0, 12.0), k, PriceBounds(10.0, 40.0))
        with pytest.raises(InvalidInputError) as info:
            sliding_windows(series, 4, 4, k, ProblemKind.MAX)
        assert str(info.value) == str(instance.value)

    # two windows of 4 of a 12-price array, 4 apart, budget 2, band [5, 100]
    VALID = dict(prices=np.linspace(10.0, 80.0, 12), starts=[0, 4], horizon=4, k=2,
                 bounds=PriceBounds(5.0, 100.0), predictions=[20.0, 30.0], kind=ProblemKind.MAX)

    @pytest.mark.parametrize("changed", [
        {"starts": [0, 2, 5], "predictions": [20.0, 30.0, 40.0]},  # uneven
        {"starts": [0, 4, 0], "predictions": [20.0, 30.0, 40.0]},  # turns back
        {"starts": [4, 0]},  # descending
        {"starts": [4, 4]},  # a zero stride
        {"starts": [], "predictions": []},
        {"starts": [0.0, 4.0]},
        {"starts": [0, 9]},  # the second window runs past the array's end
        {"starts": [-4, 0]},
        {"k": 0},
        {"k": 5},  # above T
        {"k": True},
        {"horizon": 4.0},
        {"prices": np.r_[10.0, 10.0, 10.0, 4.0, np.full(8, 10.0)]},  # below p_min
        {"prices": np.r_[np.full(7, 10.0), math.nan, np.full(4, 10.0)]},
        {"predictions": [20.0, 100.5]},  # out of band
        {"predictions": [20.0]},  # fewer predictions than windows
        {"predictions": [20.0, 30.0, 40.0]},
        {"kind": "max"},  # not a ProblemKind
    ])
    def test_constructor_checks_its_windows(self, changed):
        stream = WindowStream(**self.VALID)
        assert stream.rows().tolist() == [self.VALID["prices"][:4].tolist(),
                                          self.VALID["prices"][4:8].tolist()]
        with pytest.raises(InvalidInputError):
            WindowStream(**{**self.VALID, **changed})

    def test_constructor_caps_the_rounds(self):
        # Hedge draws round t from the Philox key seed * 2^20 + t
        prices, rounds = np.full((1 << 20) + 3, 20.0), (1 << 20) - 1
        valid = {**self.VALID, "prices": prices}
        assert len(WindowStream(**{**valid, "starts": np.arange(rounds),
                                   "predictions": np.full(rounds, 20.0)})) == rounds
        with pytest.raises(InvalidInputError, match=r"^window streams beyond 2\^20 rounds"):
            WindowStream(**{**valid, "starts": np.arange(rounds + 1),
                            "predictions": np.full(rounds + 1, 20.0)})

    def test_the_stream_lives_in_core(self):
        assert ksearch.WindowStream is instances_mod.WindowStream is ksearch.core.WindowStream

    def test_only_the_covered_span_is_checked(self):
        # prices past the last window need not lie in the band
        prices = np.r_[np.full(8, 10.0), 1e9, 1e-9, 0.0, math.nan]
        stream = WindowStream(**{**self.VALID, "prices": prices})
        assert len(stream) == 2 and not stream.prices.flags.writeable


class TestAdjustError:
    def _window(self):
        return stream_of([((60.0, 100.0, 30.0), 60.0)], 1, PriceBounds(1.0, 200.0),
                         ProblemKind.MAX)

    def test_level_zero_perfect(self):
        out = adjust_error(self._window(), 0.0)
        assert out.predictions[0] == 100.0

    def test_level_one_unchanged(self):
        out = adjust_error(self._window(), 1.0)
        assert out.predictions[0] == 60.0

    def test_midpoint_example(self):
        out = adjust_error(self._window(), 0.5)
        assert out.predictions[0] == pytest.approx(80.0, rel=1e-12)

    def test_level_out_of_range(self):
        with pytest.raises(DomainError):
            adjust_error(self._window(), -0.01)
        with pytest.raises(DomainError):
            adjust_error(self._window(), 1.01)

    def test_window_invariants(self):
        with pytest.raises(InvalidInputError):
            stream_of([((60.0, 100.0), 300.0)], 1, PriceBounds(1.0, 200.0), ProblemKind.MAX)


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
        assert np.array_equal(again.array, series.array)
        assert again.timestamps == series.timestamps == range(0, 300 * 600, 600)

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", None])
    def test_seed_that_is_not_a_non_negative_integer_raises_typed(self, seed):
        with pytest.raises(InvalidInputError, match="^seed must be an integer >= 0, got "):
            gen_synthetic_series(num_samples=10, seed=seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        a = gen_synthetic_series(num_samples=50, seed=np.uint64(9))
        assert a.prices == gen_synthetic_series(num_samples=50, seed=9).prices

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

    @pytest.mark.parametrize("stamps", [(5, 5), (2, 1), (1, 3, 2), (1, 2, 3, 3)])
    def test_non_increasing_stamps_raise_alike_from_an_array_or_a_tuple(self, stamps, tmp_path):
        # a parsed feed's int64 stamps are checked in one numpy pass, the row
        # loop's tuple one pair at a time: both raise the same error, and
        # ingest_csv gives the same row error from a bulk feed and from one
        # only the row loop reads (an extra column)
        prices = tuple(5.0 + i for i in range(len(stamps)))
        errors = []
        for given in (np.array(stamps, dtype=np.int64), stamps):
            with pytest.raises(InvalidInputError) as info:
                PriceSeries(prices, given)
            errors.append(str(info.value))
        assert errors == ["timestamps must be strictly increasing"] * 2
        rows = [f"{t},{p}" for t, p in zip(stamps, prices)]
        bulk = _write(tmp_path, "timestamp,price\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError) as by_bulk:
            ingest_csv(bulk)
        extra = _write(tmp_path, "timestamp,price,note\n" + "".join(f"{row},x\n" for row in rows),
                       name="extra.csv")
        with pytest.raises(DataFormatError) as by_rows:
            ingest_csv(extra)
        assert str(by_bulk.value).split(": ", 1)[1] == str(by_rows.value).split(": ", 1)[1]

    def test_array_stamps_are_kept_as_a_tuple(self):
        series = PriceSeries((5.0, 6.0), np.array([1, 2], dtype=np.int64))
        assert series.timestamps == (1, 2)
        assert series.array.tolist() == [5.0, 6.0]
        assert {type(stamp) for stamp in series.timestamps} == {int}

    def test_range_timestamps(self):
        assert PriceSeries((5.0, 6.0), range(10, 30, 10)).timestamps == range(10, 30, 10)
        assert PriceSeries((5.0, 6.0), [1, 2]).timestamps == (1, 2)
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            PriceSeries((5.0, 6.0), range(30, 10, -10))
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            PriceSeries((5.0,), range(30, 20, -10))  # one stamp, but a falling range
        with pytest.raises(InvalidInputError):
            PriceSeries((5.0, 6.0), range(0, 30, 10))
