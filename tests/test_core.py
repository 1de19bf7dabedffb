"""Core engine tests: trace semantics, offline oracle, ratio arithmetic."""

import ast
import copy
import dataclasses
from fractions import Fraction
import itertools
import math
import pathlib
import pickle
import re
import struct
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import ksearch
from ksearch import core as core_mod
from conftest import kinds, price_bounds, schedule_and_instance
from oracle import ota_total, schedule_check_reference
from ksearch import (
    FrontierSpec,
    InvalidInputError,
    ParetoPoint,
    PriceBounds,
    ProblemKind,
    SearchInstance,
    ThresholdSchedule,
    WindowStream,
    design,
    offline_opt,
    ota_totals,
    run_ota,
    solve_cr,
    worst_case_thresholds,
)
from ksearch.core import (
    _gather_bytes,
    _offline_optima,
    _replay_window_bytes,
)

B = PriceBounds(5.0, 50.0)


def stream_over(series, starts, horizon, k, kind=ProblemKind.MAX, bounds=B):
    """The stream of ``series``' windows at ``starts``, each predicted at
    p_min (the replay reads no prediction)."""
    return WindowStream(series, starts, horizon, k, bounds, np.full(len(starts), bounds.p_min),
                        kind)


def make_max(values, prices, k=None, bounds=B):
    sched = ThresholdSchedule(ProblemKind.MAX, tuple(values), bounds)
    inst = SearchInstance(tuple(prices), k or len(values), bounds)
    return sched, inst


class TestRunOta:
    def test_threshold_selection_example(self):
        sched, inst = make_max([10, 20], [5, 10, 25, 5, 5])
        trace = run_ota(sched, inst)
        assert [d.selected for d in trace.decisions] == [False, True, True, False, False]
        assert trace.total_value == 35.0
        assert trace.num_selected == 2
        assert not any(d.compulsory for d in trace.decisions)

    def test_compulsory_tail_example(self):
        sched, inst = make_max([49, 50], [5, 5, 5, 5])
        trace = run_ota(sched, inst)
        assert [d.selected for d in trace.decisions] == [False, False, True, True]
        assert [d.compulsory for d in trace.decisions] == [False, False, True, True]
        assert trace.total_value == 10.0

    def test_equality_selects(self):
        sched, inst = make_max([10.0], [10.0, 50.0], k=1)
        trace = run_ota(sched, inst)
        assert trace.decisions[0].selected

    def test_min_kind_mirrors(self):
        sched = ThresholdSchedule(ProblemKind.MIN, (7.0,), B)
        inst = SearchInstance((9.0, 7.0, 5.0), 1, B)
        trace = run_ota(sched, inst)
        assert [d.selected for d in trace.decisions] == [False, True, False]

    def test_budget_equals_horizon_is_all_compulsory(self):
        sched, inst = make_max([50, 50, 50], [6, 7, 8])
        trace = run_ota(sched, inst)
        assert all(d.compulsory for d in trace.decisions)
        assert trace.total_value == 21.0

    def test_dimension_mismatch_rejected(self):
        sched = ThresholdSchedule(ProblemKind.MAX, (10, 20), B)
        inst = SearchInstance((5, 6, 7), 3, B)
        with pytest.raises(InvalidInputError):
            run_ota(sched, inst)

    def test_bounds_mismatch_rejected(self):
        sched = ThresholdSchedule(ProblemKind.MAX, (10, 20), B)
        inst = SearchInstance((5, 6, 7), 2, PriceBounds(5.0, 60.0))
        with pytest.raises(InvalidInputError):
            run_ota(sched, inst)


@given(schedule_and_instance())
@settings(max_examples=200)
def test_trace_invariants(case):
    schedule, instance, kind = case
    trace = run_ota(schedule, instance)
    k = instance.k
    T = instance.horizon
    assert trace.num_selected == k
    assert sum(d.selected for d in trace.decisions) == k
    assert abs(trace.total_value - sum(d.price for d in trace.decisions if d.selected)) < 1e-9
    # compulsory flags only in the last k steps
    assert all(not d.compulsory for d in trace.decisions[: T - k])
    # threshold consistency of every voluntary decision
    m = 0
    for d in trace.decisions:
        if not d.compulsory and m < k:
            meets = d.price >= schedule.values[m] if kind.is_max else d.price <= schedule.values[m]
            assert d.selected == meets
        if d.selected:
            m += 1


@given(schedule_and_instance())
@settings(max_examples=200)
def test_fast_total_matches_trace(case):
    schedule, instance, _ = case
    trace = run_ota(schedule, instance)
    total, voluntary = ota_total(schedule, np.asarray(instance.prices))
    assert total == pytest.approx(trace.total_value, rel=1e-12)
    compulsory = sum(d.compulsory for d in trace.decisions)
    assert voluntary == trace.num_selected - compulsory


@st.composite
def replay_blocks(draw, max_k=6, max_horizon=30):
    """(kind, bounds, (R, k) thresholds, (B, T) prices, R rows) of one block.

    Prices and thresholds are drawn from a few shared levels as often as
    from the whole band, so prices meeting a threshold exactly are common;
    some windows end in a hardened tail of k boundary prices.  Now and then
    each drawn price is held for ten steps, so horizons reach ten times
    ``max_horizon`` and the event kernel's descent crosses several table
    levels.
    """
    kind = draw(kinds)
    bounds = draw(price_bounds())
    k = draw(st.integers(min_value=1, max_value=max_k))
    hold = draw(st.sampled_from((1, 1, 10)))
    horizon = draw(st.integers(min_value=k, max_value=hold * max_horizon))
    in_range = st.floats(min_value=bounds.p_min, max_value=bounds.p_max)
    levels = draw(st.lists(in_range, min_size=1, max_size=4))
    value = st.one_of(st.sampled_from(levels), in_range)
    prices = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        drawn = -(-horizon // hold)
        window = draw(st.lists(value, min_size=drawn, max_size=drawn))
        window = [price for price in window for _ in range(hold)][:horizon]
        if draw(st.booleans()):
            tail = bounds.p_min if kind.is_max else bounds.p_max
            window[horizon - k :] = [tail] * k
        prices.append(window)
    runs = draw(st.integers(min_value=1, max_value=8))
    thresholds = [
        sorted(draw(st.lists(value, min_size=k, max_size=k)), reverse=not kind.is_max)
        for _ in range(runs)
    ]
    rows = draw(st.lists(st.integers(min_value=0, max_value=len(prices) - 1),
                         min_size=runs, max_size=runs))
    return kind, bounds, thresholds, prices, rows


def laid_end_to_end(thresholds, windows, rows, kind, bounds=B):
    """``ota_totals`` over (B, T) windows copied end to end into one series,
    as a stream of stride T: window b starts at b * T."""
    windows = np.asarray(windows, dtype=float)
    count, horizon = windows.shape
    thresholds = np.asarray(thresholds, dtype=float)
    stream = stream_over(windows.reshape(-1), np.arange(count) * horizon, horizon,
                         thresholds.shape[1], kind, bounds)
    return ota_totals(thresholds, stream, rows)


@given(replay_blocks())
@settings(max_examples=200)
def test_batched_replay_equals_ota_total(case):
    kind, bounds, thresholds, prices, rows = case
    totals, voluntary = laid_end_to_end(np.array(thresholds), prices, rows, kind, bounds)
    for r, row in enumerate(rows):
        schedule = ThresholdSchedule(kind, tuple(thresholds[r]), bounds)
        total, vol = ota_total(schedule, np.asarray(prices[row]))
        assert totals[r] == total
        assert voluntary[r] == vol


MOVES = ("overlap", "touch", "gap")


@st.composite
def start_blocks(draw, max_k=6, max_horizon=40):
    """(kind, bounds, (R, k) thresholds, series, B starts, T, R rows,
    hardened) of one block of windows cut from one series.

    The windows start one stride apart, drawn by one of ``MOVES``: 1 to
    T - 1 prices (the windows overlap), T (they touch) or T + 1 to 2T (they
    leave gaps).  ``hardened`` names some windows, replayed too with their
    last k prices set to the tail, the kind's worst price; now and then a
    schedule's first thresholds are that price, so a run can take the tail
    voluntarily, and horizons below 2k are as common as longer ones.
    """
    kind = draw(kinds)
    bounds = draw(price_bounds())
    k = draw(st.integers(min_value=1, max_value=max_k))
    horizon = draw(st.one_of(st.integers(min_value=k, max_value=2 * k),
                             st.integers(min_value=k, max_value=max_horizon)))
    count = draw(st.integers(min_value=1, max_value=6))
    stride = {"overlap": (1, max(1, horizon - 1)), "touch": (horizon, horizon),
              "gap": (horizon + 1, 2 * horizon)}[draw(st.sampled_from(MOVES))]
    starts = np.arange(count) * draw(st.integers(*stride))
    in_range = st.floats(min_value=bounds.p_min, max_value=bounds.p_max)
    levels = draw(st.lists(in_range, min_size=1, max_size=4))
    value = st.one_of(st.sampled_from(levels), in_range)
    size = int(starts[-1]) + horizon + draw(st.integers(min_value=0, max_value=3))
    series = np.array(draw(st.lists(value, min_size=size, max_size=size)))
    series.flags.writeable = False
    hardened = draw(st.lists(st.integers(min_value=0, max_value=count - 1), unique=True))
    tail = bounds.p_min if kind.is_max else bounds.p_max
    runs = draw(st.integers(min_value=1, max_value=8))
    thresholds = []
    for _ in range(runs):
        schedule = sorted(draw(st.lists(value, min_size=k, max_size=k)), reverse=not kind.is_max)
        leading = draw(st.integers(min_value=0, max_value=k))
        schedule[:leading] = [tail] * leading
        thresholds.append(schedule)
    rows = draw(st.lists(st.integers(min_value=0, max_value=count - 1),
                         min_size=runs, max_size=runs))
    return kind, bounds, thresholds, series, starts, horizon, rows, hardened


def hardened_window(series, start, horizon, k, bounds, kind):
    """The window's prices with the last k set to the kind's worst price."""
    window = np.array(series[start:start + horizon])
    window[horizon - k:] = bounds.p_min if kind.is_max else bounds.p_max
    return window


@given(start_blocks())
@settings(max_examples=300)
def test_span_replay_equals_ota_total(case):
    check_span_replay(case)


@given(start_blocks())
@settings(max_examples=100)
def test_span_replay_a_run_or_two_at_a_time_equals_ota_total(case):
    # the totals and early picks take slices of one run or two
    with mock.patch.object(core_mod, "_GATHER_ENTRIES", 2):
        check_span_replay(case)


def check_span_replay(case):
    """Every run of a drawn block, plain and hardened, against the oracle."""
    kind, bounds, thresholds, series, starts, horizon, rows, hardened = case
    k = len(thresholds[0])
    stream = stream_over(series, starts, horizon, k, kind, bounds)
    totals, voluntary = ota_totals(np.array(thresholds), stream, rows, hardened)
    # the runs on hardened windows follow the R runs, in run order
    picked = [r for r, row in enumerate(rows) if row in hardened]
    assert totals.shape == voluntary.shape == (len(rows) + len(picked),)
    for r, row in enumerate(rows):
        schedule = ThresholdSchedule(kind, tuple(thresholds[r]), bounds)
        window = series[starts[row]:starts[row] + horizon]
        assert (totals[r], voluntary[r]) == ota_total(schedule, window)
    for r, total, vol in zip(picked, totals[len(rows):], voluntary[len(rows):]):
        schedule = ThresholdSchedule(kind, tuple(thresholds[r]), bounds)
        window = hardened_window(series, starts[rows[r]], horizon, k, bounds, kind)
        assert (total, vol) == ota_total(schedule, window)


class TestHardenedReplay:
    """Runs on a hardened window are derived from the plain run's
    selections before step T - k, not replayed."""

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("horizon,k", [(5, 3), (7, 4), (8, 2), (6, 6), (1, 1), (6, 5), (9, 8)])
    def test_every_tail_path_equals_ota_total(self, kind, horizon, k):
        # window w takes its first w prices above the bar, the rest below it
        # (but not below the tail); schedule n starts with n tail bars, so its
        # runs take the first n prices, and with k > T - k a run whose
        # selections fill the T - k steps before the tail takes the tail too
        good, bad, bar = (45.0, 10.0, 30.0) if kind.is_max else (10.0, 45.0, 30.0)
        tail = B.p_min if kind.is_max else B.p_max
        windows = [[good] * w + [bad] * (horizon - w) for w in range(horizon + 1)]
        schedules = [(tail,) * n + (bar,) * (k - n) for n in range(k + 1)]
        pairs = list(itertools.product(range(len(windows)), range(len(schedules))))
        rows = [w for w, _ in pairs]
        thresholds = np.array([schedules[n] for _, n in pairs])
        series = np.array(windows).reshape(-1)
        starts = np.arange(len(windows)) * horizon
        totals, voluntary = ota_totals(thresholds, stream_over(series, starts, horizon, k, kind),
                                       rows, range(len(windows)))
        paths = set()
        for r, (w, n) in enumerate(pairs):
            schedule = ThresholdSchedule(kind, schedules[n], B)
            window = hardened_window(series, starts[w], horizon, k, B, kind)
            derived = (totals[len(pairs) + r], voluntary[len(pairs) + r])
            assert derived == ota_total(schedule, window)
            plain = SearchInstance(series[starts[w]:starts[w] + horizon], k, B)
            before = sum(d.selected for d in run_ota(schedule, plain).decisions[:horizon - k])
            paths.add("none before the tail" if not before
                      else "tail taken" if derived[1] > before else "tail filled")
        assert "none before the tail" in paths
        if 0 < horizon - k < k:
            assert "tail taken" in paths

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_a_run_with_no_selection_before_the_tail_fills_it(self, kind):
        # the first T - k prices all miss the bar, so the compulsory rule
        # takes every tail step, as it takes the plain window's last prices
        tail, miss = (5.0, 10.0) if kind.is_max else (50.0, 45.0)
        totals, voluntary = ota_totals([(30.0, 30.0)], stream_over([miss] * 6, [0], 6, 2, kind),
                                       [0], [0])
        assert totals.tolist() == [2 * miss, 2 * tail] and voluntary.tolist() == [0, 0]

    @pytest.mark.parametrize("hardened", [
        [2],  # no window 2
        [-1],  # before the first window
        [0.5],  # not an index
        [[0]],  # not 1-D
        [True],  # a cast would harden window 1
    ])
    def test_rejects_bad_hardened_windows(self, hardened):
        with pytest.raises(InvalidInputError):
            ota_totals(np.full((2, 2), 20.0), TWO_WINDOWS, [0, 1], hardened)

    @pytest.mark.parametrize("hardened", [(), [], np.array([]), np.array([], dtype=int)])
    def test_no_hardened_window_is_the_plain_replay(self, hardened):
        thresholds, series = [(20.0, 30.0), (30.0, 30.0)], [10.0, 25.0, 40.0, 5.0, 35.0, 5.0]
        plain = ota_totals(thresholds, stream_over(series, [0, 2], 4, 2), [0, 1])
        none = ota_totals(thresholds, stream_over(series, [0, 2], 4, 2), [0, 1], hardened)
        assert [part.tolist() for part in none] == [part.tolist() for part in plain]


# two windows of 4 prices, 4 apart, budget 2
TWO_WINDOWS = stream_over(np.full(8, 20.0), [0, 4], 4, 2)


class TestSpanReplay:
    @pytest.mark.parametrize("at", [0, 3, 7, 8, 9, 15, 23])
    @pytest.mark.parametrize("starts,horizon", [
        (range(0, 17, 4), 10),  # windows 4 apart overlap: one stretch of prices
        (range(17), 10),  # a window at every price
        (range(0, 21, 5), 3),  # gaps of 2 after each window: a copy of the rows
    ], ids=["overlapping", "dense", "gapped"])
    def test_rejects_nan_in_any_sample(self, at, starts, horizon):
        # a NaN anywhere in the span the windows cover, gaps included, is
        # rejected before a replay; one past the last window is never read,
        # so the replay is the NaN-free one
        prices = 10.0 + np.arange(26.0)
        thresholds = np.tile([20.0, 30.0], (len(starts), 1))
        clean = ota_totals(thresholds, stream_over(prices, starts, horizon, 2), range(len(starts)))
        prices[at] = math.nan
        if at < starts[-1] + horizon:
            with pytest.raises(InvalidInputError, match="nan"):
                stream_over(prices, starts, horizon, 2)
        else:
            replay = ota_totals(thresholds, stream_over(prices, starts, horizon, 2),
                                range(len(starts)))
            assert [part.tolist() for part in replay] == [part.tolist() for part in clean]

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("k", [1, 5, 100])
    @pytest.mark.parametrize("stride", [1, 48, 288, None])  # None: gaps of T between windows
    @pytest.mark.parametrize("hardened", [0, 1, 3], ids=["plain", "all-hardened", "third-hardened"])
    def test_peak_stays_within_the_byte_charge(self, kind, k, stride, hardened):
        # a learner-sized block: 24 windows of 288 prices, 34 runs each, and
        # none, all or every third of them hardened too; min-search reads
        # its bars through the sign
        peak, charge = self.traced_block(288, k, stride or 2 * 288, 34, kind=kind,
                                         hardened=hardened)
        assert peak <= charge

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("k", [1, 5, 100])
    @pytest.mark.parametrize("hardened", [0, 1], ids=["plain", "all-hardened"])
    def test_peak_stays_within_the_charge_when_every_pick_is_voluntary(self, kind, k, hardened):
        # every bar at the band's near end: each run takes its first k
        # prices, so one group of voluntary counts holds every run
        peak, charge = self.traced_block(288, k, 48, 34, kind=kind, hardened=hardened,
                                         eager=True)
        assert peak <= charge

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("eager", [False, True], ids=["drawn", "eager"])
    @pytest.mark.parametrize("hardened", [0, 1], ids=["plain", "all-hardened"])
    def test_peak_stays_within_the_charge_at_k_1000(self, kind, eager, hardened):
        # four windows of 2,000 prices, 34 runs each: the early picks take
        # four runs (4,000 entries) at a time, the totals four to eight
        peak, charge = self.traced_block(2000, 1000, 500, 34, count=4, kind=kind,
                                         hardened=hardened, eager=eager)
        assert peak <= charge

    @pytest.mark.parametrize("hardened", [0, 1], ids=["plain", "all-hardened"])
    def test_the_optimum_of_long_windows_a_price_apart_is_charged(self, hardened):
        # such windows add one table column each to the kernel, but the
        # optimum copies all T prices of each, and a hardened window's
        # optimum copies them again once the plain copy is freed
        peak, charge = self.traced_block(3024, 1, 1, 2, hardened=hardened)
        assert 8 * 24 * 3024 < peak <= charge

    @staticmethod
    def traced_block(horizon, k, stride, runs, count=24, kind=ProblemKind.MAX, hardened=0,
                     eager=False):
        """The traced peak of one block's replay and then of its windows'
        offline optima next to the totals, as the learner runs them (it
        covers every array either allocates), and the block's charge; with
        ``hardened``, every such window from the first is hardened too, and
        with ``eager``, every bar is the band's near end."""
        rng = np.random.default_rng(k)
        series = rng.uniform(5.0, 50.0, (count - 1) * stride + horizon)
        stream = stream_over(series, np.arange(count) * stride, horizon, k, kind)
        windows = stream.rows()
        if eager:
            thresholds = np.full((count * runs, k), kind.near(B))
        else:
            thresholds = np.sort(rng.uniform(5.0, 50.0, (count * runs, k)), axis=1)
            thresholds = thresholds if kind.is_max else thresholds[:, ::-1].copy()
        rows = np.repeat(np.arange(count), runs)
        hard = np.zeros(count, dtype=bool)
        if hardened:
            hard[::hardened] = True
        picks = np.flatnonzero(hard)
        # the first window adds its whole horizon to the span, each other one
        # min(stride, T) prices; the block holds one slice of its totals
        steps = np.full(count, min(stride, horizon))
        steps[0] = horizon
        charge = _replay_window_bytes(horizon, k, runs, steps, hard).sum() + _gather_bytes(k)

        def replay():
            # the thresholds and rows are the block's own, as in the learner
            totals = ota_totals(thresholds.copy(), stream, rows.copy(), picks)[0]
            optima = _offline_optima(windows.copy(), k, kind)
            if picks.size:
                worst = windows[picks]
                worst[:, horizon - k:] = kind.near(B)
                return totals, optima, _offline_optima(worst, k, kind)
            return totals, optima

        replay()  # numpy's first-call setup
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            replay()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak, charge


class TestBatchedReplay:
    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("horizon,k", [(7, 3), (5, 5), (1, 1), (9, 1), (12, 4)])
    def test_fill_starts_after_every_voluntary_count(self, kind, horizon, k):
        # window m takes m prices above the (flat) schedule, then only prices
        # below it, so the compulsory fill starts after m voluntary picks;
        # when k = T the fill starts at once
        good, bad = (45.0, 10.0) if kind.is_max else (10.0, 45.0)
        prices = [[good] * m + [bad] * (horizon - m) for m in range(k + 1)]
        rows = list(range(k + 1))
        thresholds = np.full((k + 1, k), 30.0)
        totals, voluntary = laid_end_to_end(thresholds, prices, rows, kind)
        schedule = ThresholdSchedule(kind, (30.0,) * k, B)
        for m in rows:
            total, vol = ota_total(schedule, np.asarray(prices[m]))
            assert (totals[m], voluntary[m]) == (total, vol)
            assert vol == (0 if k == horizon else m)

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_groups_several_slices_long_equal_ota_total(self, kind):
        # window w takes w % (k + 1) random prices above the flat schedule,
        # then random ones below it; its runs, interleaved with the other
        # windows', make groups of 3,000 runs, which the totals take in
        # slices of 4,096 // max(m, k - m) runs: three to four a group
        k, horizon = 5, 12
        rng = np.random.default_rng(k)
        count = 6 * (k + 1)
        good, bad = (rng.uniform(31.0, 50.0, (count, horizon)),
                     rng.uniform(5.0, 29.0, (count, horizon)))
        if not kind.is_max:
            good, bad = bad, good
        counts = np.arange(count) % (k + 1)
        prices = np.where(np.arange(horizon) < counts[:, None], good, bad)
        rows = rng.permutation(np.repeat(np.arange(count), 500))
        totals, voluntary = laid_end_to_end(np.full((rows.size, k), 30.0), prices, rows, kind)
        schedule = ThresholdSchedule(kind, (30.0,) * k, B)
        expected = [ota_total(schedule, window) for window in prices]
        assert list(zip(totals, voluntary)) == [expected[row] for row in rows]
        for m in range(k + 1):
            assert np.count_nonzero(voluntary == m) > 2 * (4096 // max(m, k - m))

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("horizon,k", [
        (horizon, k) for horizon in (31, 32, 33, 288)  # 31..33 sit on table level edges
        for k in (1, horizon // 4, horizon - 1, horizon)
    ])
    def test_large_budgets_equal_ota_total(self, kind, horizon, k):
        # budgets near the horizon, where most runs end in a compulsory fill
        rng = np.random.default_rng(horizon * 1000 + k)
        prices = rng.choice([5.0, 20.0, 30.0, 50.0], size=(3, horizon))
        prices[1] = rng.uniform(5.0, 50.0, horizon)
        thresholds = np.sort(rng.choice([5.0, 20.0, 30.0, 41.0, 50.0], size=(6, k)), axis=1)
        if not kind.is_max:
            thresholds = thresholds[:, ::-1]
        rows = [0, 1, 2, 2, 1, 0]
        totals, voluntary = laid_end_to_end(thresholds, prices, rows, kind)
        for r, row in enumerate(rows):
            schedule = ThresholdSchedule(kind, tuple(thresholds[r]), B)
            assert (totals[r], voluntary[r]) == ota_total(schedule, prices[row])

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("horizon", [5, 6, 11, 13])
    def test_runs_that_meet_no_bar_stop_at_the_window_end(self, kind, horizon):
        # every run passes every price, so each descent ends on the table's
        # end entry; were it -inf, the descent would skip past the end (off
        # the table for the last window) at these horizons
        rng = np.random.default_rng(horizon)
        prices = rng.uniform(10.0, 40.0, size=(3, horizon))
        bar = 45.0 if kind.is_max else 5.0
        thresholds = np.full((6, 2), bar)
        rows = [0, 1, 2, 2, 1, 0]
        totals, voluntary = laid_end_to_end(thresholds, prices, rows, kind)
        schedule = ThresholdSchedule(kind, (bar, bar), B)
        for r, row in enumerate(rows):
            assert (totals[r], voluntary[r]) == ota_total(schedule, prices[row])
        assert not voluntary.any()

    def test_accepts_nested_sequences(self):
        thresholds = [(20.0, 30.0), (10.0, 40.0)]
        prices = [(5.0, 25.0, 35.0, 5.0), (45.0, 5.0, 5.0, 50.0)]
        series = [price for window in prices for price in window]
        totals, voluntary = ota_totals(thresholds, stream_over(series, [0, 4], 4, 2), [1, 0])
        expected = [ota_total(ThresholdSchedule(ProblemKind.MAX, t, B), np.asarray(prices[r]))
                    for t, r in zip(thresholds, (1, 0))]
        assert list(zip(totals.tolist(), voluntary.tolist())) == expected

    @pytest.mark.parametrize("thresholds,stream,rows,hardened", [
        (np.full((2, 3), 20.0), stream_over(np.full(2, 20.0), [0], 2, 2), [0, 0], []),  # k > T
        (np.full((2, 2), 20.0), TWO_WINDOWS, [0], []),  # one row for two runs
        (np.full((2, 2), 20.0), TWO_WINDOWS, [0, 2], []),  # no window 2
        (np.full((2, 0), 20.0), TWO_WINDOWS, [0, 0], []),  # k = 0
        (np.full((2, 1), 20.0), TWO_WINDOWS, [0, 0], []),  # k is not the stream's
        (np.full((2, 2), 20.0), TWO_WINDOWS, [-1, 0], []),  # before the first window
        (np.full((2, 2), 20.0), TWO_WINDOWS, [[0], [0]], []),  # rows not 1-D
        (np.full(2, 20.0), TWO_WINDOWS, [0, 0], []),  # thresholds not 2-D
        (np.full((2, 2, 1), 20.0), TWO_WINDOWS, [0, 0], []),  # nor 3-D
        (np.full((2, 2), 20.0), np.full(8, 20.0), [0, 0], []),  # a plain array
        (np.full((2, 2), 20.0), None, [0, 0], []),  # no stream
        (np.full((2, 2), 20.0), TWO_WINDOWS, [0, 0], [2]),  # hardened past the stream
    ])
    def test_rejects_inconsistent_shapes(self, thresholds, stream, rows, hardened):
        with pytest.raises(InvalidInputError):
            ota_totals(thresholds, stream, rows, hardened)

    @pytest.mark.parametrize("rows", [[0.9], [1.7], [True], np.array([0.0])])
    def test_rejects_rows_that_are_not_integers(self, rows):
        # a cast would replay window 0 for 0.9 and window 1 for 1.7 or True
        with pytest.raises(InvalidInputError, match="integer window indices"):
            ota_totals(np.full((1, 2), 20.0), TWO_WINDOWS, rows)

    @pytest.mark.parametrize("rows", [[], np.array([], dtype=float), np.array([], dtype=bool)])
    def test_accepts_empty_rows(self, rows):
        totals, voluntary = ota_totals(np.empty((0, 2)), TWO_WINDOWS, rows)
        assert totals.shape == voluntary.shape == (0,)

    @pytest.mark.parametrize("thresholds,prices", [
        ([(math.nan, 30.0)], [10.0, 20.0, 30.0, 40.0, 10.0, 10.0, 10.0, 10.0]),
        ([(20.0, 30.0), (20.0, math.nan)], [10.0, 20.0, 30.0, 40.0, 10.0, 10.0, 10.0, 10.0]),
    ])
    def test_rejects_nan(self, thresholds, prices):
        with pytest.raises(InvalidInputError):
            ota_totals(thresholds, stream_over(prices, [0], len(prices), 2), [0] * len(thresholds))


class TestOfflineOpt:
    def test_examples(self):
        inst = SearchInstance((5, 10, 25, 5, 5), 2, B)
        assert offline_opt(inst, ProblemKind.MAX) == 35.0
        assert offline_opt(inst, ProblemKind.MIN) == 10.0

    def test_budget_equals_horizon(self):
        inst = SearchInstance((5, 10, 25), 3, B)
        assert offline_opt(inst, ProblemKind.MAX) == offline_opt(inst, ProblemKind.MIN) == 40.0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            T = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(T, 4) + 1))
            prices = tuple(rng.uniform(5.0, 50.0, size=T).round(3))
            inst = SearchInstance(prices, k, B)
            best_max = max(sum(c) for c in itertools.combinations(prices, k))
            best_min = min(sum(c) for c in itertools.combinations(prices, k))
            assert offline_opt(inst, ProblemKind.MAX) == pytest.approx(best_max)
            assert offline_opt(inst, ProblemKind.MIN) == pytest.approx(best_min)

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_bit_identical_to_sorted_sum_with_ties(self, kind):
        rng = np.random.default_rng(11)
        windows = [(12.5,), (12.5,) * 9, (5.0, 50.0, 5.0, 50.0, 20.0)]
        # one decimal over [5, 50] gives many tied prices in the longer windows
        windows += [tuple(rng.uniform(5.0, 50.0, T).round(1).tolist())
                    for T in (7, 64, 3024)]
        for prices in windows:
            for k in sorted({1, max(1, len(prices) // 3), len(prices)}):
                inst = SearchInstance(prices, k, B)
                expected = float(sum(sorted(prices, reverse=kind.is_max)[:k]))
                assert offline_opt(inst, kind) == expected

    def test_sum_rounds_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16 at each step; a compensated sum
        # (the built-in ``sum`` from Python 3.12 on) would give 1e16 + 2
        inst = SearchInstance((1.0, 1e16, 1.0), 3, PriceBounds(1.0, 1e16))
        assert offline_opt(inst, ProblemKind.MAX) == 1e16


@st.composite
def optimum_blocks(draw, max_horizon=40):
    """(kind, bounds, (B, T) windows, k) with k in {1, 2, T - 1, T}: rows of
    a ``sliding_window_view`` of one series, as the learner passes them,
    whose prices come from a few levels (so many tie) as often as not."""
    kind = draw(kinds)
    bounds = draw(price_bounds())
    horizon = draw(st.integers(min_value=1, max_value=max_horizon))
    k = draw(st.sampled_from(sorted({1, 2, horizon - 1, horizon} & set(range(1, horizon + 1)))))
    stride = draw(st.integers(min_value=1, max_value=2 * horizon))
    count = draw(st.integers(min_value=1, max_value=6))
    in_range = st.floats(min_value=bounds.p_min, max_value=bounds.p_max)
    levels = draw(st.lists(in_range, min_size=1, max_size=3))
    value = st.sampled_from(levels) if draw(st.booleans()) else st.one_of(
        st.sampled_from(levels), in_range)
    size = (count - 1) * stride + horizon
    series = np.array(draw(st.lists(value, min_size=size, max_size=size)))
    series.flags.writeable = False
    windows = np.lib.stride_tricks.sliding_window_view(series, horizon)[::stride]
    return kind, bounds, windows, k


@given(optimum_blocks(), st.booleans())
@settings(max_examples=600)
def test_batched_optima_equal_offline_opt(case, hardened):
    # the windows as they are, or hardened: each with its last k prices set
    # to the kind's worst price (all of them when k = T)
    kind, bounds, windows, k = case
    if hardened:
        windows = np.array([hardened_window(window, 0, windows.shape[1], k, bounds, kind)
                            for window in windows])
    optima = _offline_optima(windows.copy(), k, kind).tolist()
    assert optima == [offline_opt(SearchInstance(window, k, bounds), kind) for window in windows]


@given(schedule_and_instance())
@settings(max_examples=150)
def test_empirical_ratio_at_least_one(case):
    schedule, instance, kind = case
    trace = run_ota(schedule, instance)
    opt = offline_opt(instance, kind)
    ratio = opt / trace.total_value if kind.is_max else trace.total_value / opt
    assert ratio >= 1.0 - 1e-12


class TestTypeInvariants:
    def test_bad_bounds(self):
        with pytest.raises(InvalidInputError):
            PriceBounds(0.0, 10.0)
        with pytest.raises(InvalidInputError):
            PriceBounds(10.0, 5.0)
        with pytest.raises(InvalidInputError, match="theta"):
            PriceBounds(1e-320, 1.0)  # p_max/p_min overflows

    def test_theta_is_derived(self):
        assert PriceBounds(5.0, 50.0).theta == 10.0

    def test_prices_become_a_read_only_array_and_thresholds_python_floats(self):
        inst = SearchInstance((5, np.float64(6.5), np.float32(7.0)), 1, B)
        sched = ThresholdSchedule(ProblemKind.MAX, (np.float32(10.0), 20), B)
        assert inst.prices.dtype == np.float64 and inst.prices.ndim == 1
        assert not inst.prices.flags.writeable
        assert inst.prices.tolist() == [5.0, 6.5, 7.0] and sched.values == (10.0, 20.0)
        assert {type(v) for v in sched.values} == {float}
        for text in ("7", "abc"):  # a string is no price, whatever it spells
            with pytest.raises(InvalidInputError, match="^prices must be real numbers$"):
                SearchInstance((5.0, text), 1, B)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_price_rejected(self, at):
        prices = [5.0, 6.0, 7.0]
        prices[at] = math.nan
        with pytest.raises(InvalidInputError):
            SearchInstance(tuple(prices), 1, B)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_non_integer_budget_rejected(self, k):
        with pytest.raises(InvalidInputError):
            SearchInstance((5.0, 6.0, 7.0), k, B)

    def test_out_of_bounds_price_rejected(self):
        with pytest.raises(InvalidInputError):
            SearchInstance((4.0, 10.0), 1, B)

    def test_budget_too_large_rejected(self):
        with pytest.raises(InvalidInputError):
            SearchInstance((10.0,), 2, B)

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected_at_every_position(self, kind, k, bad):
        # the band is checked at the two ends only, after the order: a bad
        # value anywhere must still fail one of the two checks
        values = np.linspace(10.0, 40.0, k).tolist()
        values = values if kind.is_max else values[::-1]
        for at in range(k):
            with pytest.raises(InvalidInputError):
                ThresholdSchedule(kind, (*values[:at], bad, *values[at + 1:]), B)

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_flat_schedule_at_a_band_end_accepted(self, kind, k):
        for end in (B.p_min, B.p_max):
            assert ThresholdSchedule(kind, (end,) * k, B).values == (end,) * k

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_thresholds_are_also_one_read_only_float64_array(self, kind, k):
        values = np.linspace(10.0, 40.0, k).tolist()
        values = values if kind.is_max else values[::-1]
        schedule = ThresholdSchedule(kind, (np.float32(values[0]), *values[1:]), B)
        array = schedule._array
        assert array.dtype == np.float64 and array.shape == (k,)
        assert array.tobytes() == struct.pack(f"{k}d", *schedule.values)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 20.0

    def test_the_array_is_no_field(self):
        one = ThresholdSchedule(ProblemKind.MAX, (10.0, 20.0), B)
        other = ThresholdSchedule(ProblemKind.MAX, [10, np.float64(20.0)], B)
        assert one == other and one._array is not other._array
        assert hash(one) == hash(other) == hash((one.kind, one.values, one.bounds))
        assert repr(one) == (f"ThresholdSchedule(kind={one.kind!r}, values={one.values!r}, "
                             f"bounds={one.bounds!r})")
        assert [field.name for field in dataclasses.fields(one)] == ["kind", "values", "bounds"]

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_an_array_gives_the_schedule_of_its_tuple(self, kind, k):
        values = np.linspace(10.0, 40.0, k)
        values = values if kind.is_max else values[::-1]
        from_array = ThresholdSchedule(kind, values, B)
        from_tuple = ThresholdSchedule(kind, tuple(values.tolist()), B)
        assert {type(v) for v in from_array.values} == {float}
        assert (struct.pack(f"{k}d", *from_array.values)
                == struct.pack(f"{k}d", *from_tuple.values) == values.tobytes())
        assert from_array._array.tobytes() == from_tuple._array.tobytes()
        assert from_array == from_tuple and hash(from_array) == hash(from_tuple)
        assert repr(from_array) == repr(from_tuple)

    @pytest.mark.parametrize("make", [
        lambda: np.array([10.0, 20.0, 30.0]),
        lambda: np.array([10.0, 99.0, 20.0, 99.0, 30.0])[::2],  # a strided view
        lambda: np.array([10.0, 20.0, 30.0], dtype=np.float32),
    ], ids=["float64", "view", "float32"])
    def test_writing_the_callers_array_leaves_the_schedule(self, make):
        values = make()
        schedule = ThresholdSchedule(ProblemKind.MAX, values, B)
        assert not np.shares_memory(schedule._array, values)
        values[:] = 45.0
        assert schedule.values == (10.0, 20.0, 30.0)
        assert schedule._array.tolist() == [10.0, 20.0, 30.0]

    @settings(max_examples=200, deadline=None)
    @given(kinds, st.lists(st.one_of(
        st.integers(2**53, 2**70), st.just(True), st.floats(1e-3, 1e30).map(np.float32),
        st.fractions(Fraction(1, 1000), Fraction(10**25)), st.floats(1e-3, 1e25),
    ), min_size=1, max_size=6), st.sampled_from([tuple, list, iter, np.array]))
    def test_mixed_entries_are_their_floats_bit_for_bit(self, kind, entries, container):
        """Ints above 2^53, bools, float32s and Fractions, in any mix and
        in any container, hold ``float(v)`` of each entry."""
        entries = sorted(entries, key=float, reverse=not kind.is_max)
        floats = [float(v) for v in entries]
        bounds = PriceBounds(min(floats), max(floats))
        schedule = ThresholdSchedule(kind, container(entries), bounds)
        assert struct.pack(f"{len(floats)}d", *schedule.values) == struct.pack(
            f"{len(floats)}d", *floats) == schedule._array.tobytes()

    def test_a_list_and_a_generator_are_accepted(self):
        assert ThresholdSchedule(ProblemKind.MAX, [10, 20.0], B).values == (10.0, 20.0)
        assert ThresholdSchedule(ProblemKind.MAX, (v for v in (10, 20.0)), B).values == (10.0, 20.0)

    @pytest.mark.parametrize("values", [
        (10.0, (20.0, 30.0)), ((10.0,), (20.0,)), [[10.0, 20.0]], np.array([[10.0, 20.0]]),
        np.array(10.0), (10.0, "20"), (10.0, None), [None], "10", 10.0, None,
        (10.0, 10**400), (10.0, 1 + 2j),
    ], ids=["ragged", "nested", "nested-list", "2-d", "0-d", "string", "none", "none-only",
            "text", "float", "no-sequence", "huge-int", "complex"])
    def test_thresholds_that_are_no_sequence_of_reals_raise(self, values):
        with pytest.raises(InvalidInputError, match="^(an entry of )?thresholds "):
            ThresholdSchedule(ProblemKind.MAX, values, B)

    @pytest.mark.parametrize("clone", [
        lambda s: pickle.loads(pickle.dumps(s)),
        lambda s: pickle.loads(pickle.dumps(s, protocol=2)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
        lambda s: dataclasses.replace(s, values=(15.0, 30.0)),
    ], ids=["pickle", "pickle-2", "copy", "deepcopy", "replace", "replace-values"])
    def test_a_copy_holds_a_read_only_array_of_its_values(self, clone):
        schedule = ThresholdSchedule(ProblemKind.MAX, (10.0, 20.0), B)
        copied = clone(schedule)
        assert not copied._array.flags.writeable
        assert copied._array.tobytes() == struct.pack("2d", *copied.values)
        assert copied.values in (schedule.values, (15.0, 30.0))

    @settings(max_examples=300, deadline=None)
    @given(kinds, st.lists(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, B.p_min,
                                            B.p_max, 20.0, 60.0]) | st.floats(), max_size=6),
           st.sampled_from(["as drawn", "ascending", "descending"]), st.booleans())
    def test_order_and_band_messages_are_the_tuple_checks(self, kind, values, order, as_array):
        """The array's order check and the band check raise what the checks
        on a tuple of Python floats raised, for NaN, infinities, -0.0 and
        values in any order, given as a tuple or as a float64 array."""
        if order != "as drawn":
            values = sorted(values, reverse=order == "descending")
        try:
            ThresholdSchedule(kind, np.array(values, dtype=float) if as_array else tuple(values), B)
            message = None
        except InvalidInputError as exc:
            message = str(exc)
        assert message == schedule_check_reference(kind, tuple(values), B)

    def test_non_monotone_schedule_rejected(self):
        with pytest.raises(InvalidInputError):
            ThresholdSchedule(ProblemKind.MAX, (20.0, 10.0), B)
        with pytest.raises(InvalidInputError):
            ThresholdSchedule(ProblemKind.MIN, (10.0, 20.0), B)
        # out of order and out of band: the order is checked first
        with pytest.raises(InvalidInputError, match="not monotone"):
            ThresholdSchedule(ProblemKind.MAX, (60.0, 10.0), B)
        with pytest.raises(InvalidInputError, match="not monotone"):
            ThresholdSchedule(ProblemKind.MIN, (4.0, 20.0), B)

    @pytest.mark.parametrize("call", [
        lambda: design(20.0, 0.5, B, 10, "max"),
        lambda: worst_case_thresholds(B, 10, "max"),
        lambda: solve_cr(B, 10, None),
        lambda: solve_cr(PriceBounds(5.0, 5.0), 10, "min"),  # theta = 1 reads no kind
        lambda: FrontierSpec(B, 10, "min"),
        lambda: ThresholdSchedule("max", (6.0, 7.0), B),
        lambda: offline_opt(SearchInstance((6.0, 7.0, 8.0), 2, B), "max"),
    ], ids=["design", "worst_case_thresholds", "solve_cr", "solve_cr-theta-1", "FrontierSpec",
            "ThresholdSchedule", "offline_opt"])
    def test_kind_that_is_not_a_problem_kind_raises_typed(self, call):
        with pytest.raises(InvalidInputError, match="^kind must be a ProblemKind, got "):
            call()

    def test_pareto_point_ordering_enforced(self):
        ParetoPoint(0.5, 1.5, 2.5)
        with pytest.raises(InvalidInputError):
            ParetoPoint(0.5, 2.5, 1.5)
        with pytest.raises(InvalidInputError):
            ParetoPoint(1.5, 1.5, 2.5)


@settings(max_examples=500, deadline=None)
@given(
    kind=kinds,
    r=st.floats(min_value=1.0, max_value=1e4, exclude_min=True),
    k=st.integers(min_value=1, max_value=5000),
    p_min=st.floats(min_value=1e-2, max_value=1e2),
    total=st.floats(min_value=1e-2, max_value=1e6),
    optimum=st.floats(min_value=1e-2, max_value=1e6),
    rows=st.lists(st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=3, max_size=3),
                  min_size=1, max_size=3),
)
def test_kind_rules_are_the_inline_spellings(kind, r, k, p_min, total, optimum, rows):
    """Each ``ProblemKind`` rule rounds as the per-kind spelling it
    replaced, written out here, bit for bit: a drift such as (1/r)/k for
    1/(r*k) changes designs."""
    bounds = PriceBounds(p_min, p_min * r)
    rows = np.array(rows)
    if kind is ProblemKind.MAX:
        expected = (1.0, bounds.p_min, bounds.p_max, r - 1.0, 1.0 + r / k,
                    math.log1p(r / k), optimum / total, rows.max(axis=1))
    else:
        expected = (-1.0, bounds.p_max, bounds.p_min, 1.0 - 1.0 / r, 1.0 + 1.0 / (k * r),
                    math.log1p(1.0 / (r * k)), total / optimum, rows.min(axis=1))
    found = (kind.sign, kind.near(bounds), kind.far(bounds), kind.spread(r), kind.growth(r, k),
             kind.log_growth(r, k), kind.ratio(total, optimum), kind.extreme(rows))
    assert [float(x).hex() for x in found[:-1]] == [float(x).hex() for x in expected[:-1]]
    assert found[-1].tolist() == expected[-1].tolist()
    # the grid path applies spread, growth and ratio to arrays, elementwise
    many = np.array([r, 1.0 + (r - 1.0) / 2.0])
    for rule in (kind.spread, lambda x: kind.growth(x, k), lambda x: kind.ratio(x, optimum)):
        assert rule(many).tolist() == [rule(float(x)) for x in many]


def test_library_has_no_assert_statements():
    """Invariants raise typed errors, so they still hold under python -O."""
    package = pathlib.Path(ksearch.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_unused_imports():
    """Every name a module imports is referenced in it (the package's
    ``__init__`` re-exports and ``__future__`` features excepted)."""
    package = pathlib.Path(ksearch.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


# numpy rounds some powers, exponentials and logs differently from Python's
# ``**`` and ``math`` (numpy's power and ``**`` disagree on 8,126 of 200,000
# growth-rate pairs), and a threshold or j* one ulp off changes a design.
# Only the synthetic feed takes ``np.exp``; its prices fix the CSV digests.
_NUMPY_TRANSCENDENTALS = {"power", "float_power", "exp", "expm1", "log", "log1p"}
_NUMPY_TRANSCENDENTALS_ALLOWED = {("instances.py", "gen_synthetic_series", "exp")}


def _numpy_transcendentals(node, numpy_names, scope):
    """(enclosing function, name) of each numpy power, exp or log under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                and child.value.id in numpy_names and child.attr in _NUMPY_TRANSCENDENTALS):
            yield scope, child.attr
        elif isinstance(child, ast.ImportFrom) and child.module == "numpy":
            yield from ((scope, alias.name) for alias in child.names
                        if alias.name in _NUMPY_TRANSCENDENTALS)
        yield from _numpy_transcendentals(child, numpy_names, inner)


def _library_modules():
    """(file name, syntax tree, names numpy is imported as) of each module
    of the library."""
    package = pathlib.Path(ksearch.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield path.name, tree, {alias.asname or alias.name for node in ast.walk(tree)
                                if isinstance(node, ast.Import)
                                for alias in node.names if alias.name == "numpy"}


def test_library_takes_no_power_exp_or_log_from_numpy():
    """Powers come from ``**``, exponentials and logs from ``math``."""
    found = {(name, scope, call) for name, tree, numpy_names in _library_modules()
             for scope, call in _numpy_transcendentals(tree, numpy_names, None)}
    assert found == _NUMPY_TRANSCENDENTALS_ALLOWED  # the allowed call is seen too


# ``ProblemKind.near``/``far`` give the band ends and ``ProblemKind.extreme``
# the extremes; a condition on the kind outside ``ProblemKind`` that only
# picks p_min or p_max, or .max or .min, would spell one of them out again.
_MIRRORED = {"p_min": "p_max", "p_max": "p_min", "max": "min", "min": "max"}


def _mirrored(node):
    """A copy of node with p_min and p_max, and max and min, swapped."""
    node = copy.deepcopy(node)
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            child.id = _MIRRORED.get(child.id, child.id)
        elif isinstance(child, ast.Attribute):
            child.attr = _MIRRORED.get(child.attr, child.attr)
    return node


def _tests_the_kind(test) -> bool:
    """Whether a condition reads ``is_max`` or ``ProblemKind.MAX``."""
    return any(isinstance(node, ast.Name) and node.id == "is_max"
               or isinstance(node, ast.Attribute) and node.attr == "is_max"
               or isinstance(node, ast.Attribute) and node.attr == "MAX"
               and isinstance(node.value, ast.Name) and node.value.id == "ProblemKind"
               for node in ast.walk(test))


def _band_end_picks(tree):
    """Line of each condition on the kind, outside ``class ProblemKind``,
    whose branches differ only by p_min against p_max or max against min."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and top.name == "ProblemKind":
            continue
        for node in ast.walk(top):
            if not isinstance(node, (ast.IfExp, ast.If)) or not _tests_the_kind(node.test):
                continue
            if isinstance(node, ast.If):
                body = ast.Module(body=node.body, type_ignores=[])
                orelse = ast.Module(body=node.orelse, type_ignores=[])
            else:
                body, orelse = node.body, node.orelse
            mirror = ast.dump(_mirrored(body))
            if mirror != ast.dump(body) and mirror == ast.dump(orelse):
                yield node.lineno


def test_band_ends_and_extremes_come_from_problem_kind():
    """No library module picks p_min or p_max, or .max or .min, by the kind."""
    found = [f"{name}:{line}" for name, tree, _ in _library_modules()
             for line in _band_end_picks(tree)]
    assert found == []


# The library draws its Philox first doubles without numpy.random
# (``learner._uniforms``); only the synthetic feed's noise comes from it,
# and the CSV digests fix that noise, so a draw taken any other way would be
# a second copy of it to keep bit-equal.
_NUMPY_RANDOM_ALLOWED = {("instances.py", "gen_synthetic_series")}


def _numpy_random_scopes(node, numpy_names, scope):
    """The enclosing function of each use of ``numpy.random`` under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                and child.value.id in numpy_names and child.attr == "random"):
            yield scope
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            prefix = f"{child.module}." if isinstance(child, ast.ImportFrom) else ""
            if any(f"{prefix}{alias.name}.".startswith("numpy.random.") for alias in child.names):
                yield scope
        yield from _numpy_random_scopes(child, numpy_names, inner)


def test_library_draws_from_numpy_random_only_in_the_feed():
    """``np.random`` (and so ``Philox``) is opened only by
    ``instances.gen_synthetic_series``."""
    found = {(name, scope) for name, tree, numpy_names in _library_modules()
             for scope in _numpy_random_scopes(tree, numpy_names, None)}
    assert found == _NUMPY_RANDOM_ALLOWED  # the allowed use is seen too


def test_every_export_is_used_by_program_code():
    """Each name in ``ksearch.__all__`` and each public top-level def, class
    and constant of a library module is referenced by library code outside
    ``__init__``, by a script or by the benchmark, not only by tests."""
    root = pathlib.Path(__file__).resolve().parent.parent
    modules = sorted((root / "src" / "ksearch").glob("*.py"))
    public = set(ksearch.__all__)
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            public.update(name for name in names if not name.startswith("_"))
    paths = [path for path in modules if path.name != "__init__.py"]
    paths += [*(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert sorted(public - used) == []


def test_readme_library_example_runs():
    """The README's library example runs, and every value it prints with a
    ``# <= bound`` comment meets that bound."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    claims = [re.fullmatch(r"print\((.*)\)  # <= (.*)", line) for line in code.splitlines()]
    claims = [claim.groups() for claim in claims if claim]
    assert claims
    for value, bound in claims:
        assert eval(value, namespace) <= eval(bound, namespace)
