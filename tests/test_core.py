"""Core engine tests: trace semantics, offline oracle, ratio arithmetic."""

import ast
import itertools
import math
import pathlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import ksearch
from ksearch import core
from conftest import kinds, price_bounds, schedule_and_instance
from ksearch import (
    InvalidInputError,
    ParetoPoint,
    PriceBounds,
    ProblemKind,
    SearchInstance,
    ThresholdSchedule,
    offline_opt,
    ota_total,
    ota_totals,
    run_ota,
)

B = PriceBounds(5.0, 50.0)


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


@given(replay_blocks())
@settings(max_examples=200)
def test_batched_replay_equals_ota_total(case):
    # through ota_totals and through each kernel body, whichever the shape picks
    kind, bounds, thresholds, prices, rows = case
    thr, windows = np.array(thresholds), list(np.array(prices))
    replays = [
        ota_totals(thr, windows, rows, kind),
        core._lockstep_totals(thr, windows, np.asarray(rows, np.intp), kind),
        core._event_totals(thr, windows, np.asarray(rows, np.intp), kind),
    ]
    for r, row in enumerate(rows):
        schedule = ThresholdSchedule(kind, tuple(thresholds[r]), bounds)
        total, vol = ota_total(schedule, np.asarray(prices[row]))
        for totals, voluntary in replays:
            assert totals[r] == total
            assert voluntary[r] == vol


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
        totals, voluntary = ota_totals(thresholds, prices, rows, kind)
        schedule = ThresholdSchedule(kind, (30.0,) * k, B)
        for m in rows:
            total, vol = ota_total(schedule, np.asarray(prices[m]))
            assert (totals[m], voluntary[m]) == (total, vol)
            assert vol == (0 if k == horizon else m)

    @pytest.mark.parametrize("k,kernel", [(7, "_event_totals"), (8, "_lockstep_totals")])
    def test_shape_picks_the_kernel(self, k, kernel, monkeypatch):
        # 4 * k * (288).bit_length() < 288 holds up to k = 7
        rng = np.random.default_rng(k)
        prices = rng.uniform(5.0, 50.0, (3, 288))
        thresholds = np.sort(rng.uniform(5.0, 50.0, (6, k)), axis=1)
        rows = [0, 1, 2, 2, 1, 0]
        picked = []
        body = getattr(core, kernel)
        monkeypatch.setattr(core, kernel, lambda *args: picked.append(kernel) or body(*args))
        totals, voluntary = ota_totals(thresholds, prices, rows, ProblemKind.MAX)
        assert picked == [kernel]
        for r, row in enumerate(rows):
            schedule = ThresholdSchedule(ProblemKind.MAX, tuple(thresholds[r]), B)
            assert (totals[r], voluntary[r]) == ota_total(schedule, prices[row])

    def test_accepts_nested_sequences(self):
        thresholds = [(20.0, 30.0), (10.0, 40.0)]
        prices = [(5.0, 25.0, 35.0, 5.0), (45.0, 5.0, 5.0, 50.0)]
        totals, voluntary = ota_totals(thresholds, prices, [1, 0], ProblemKind.MAX)
        expected = [ota_total(ThresholdSchedule(ProblemKind.MAX, t, B), np.asarray(prices[r]))
                    for t, r in zip(thresholds, (1, 0))]
        assert list(zip(totals.tolist(), voluntary.tolist())) == expected

    @pytest.mark.parametrize("thresholds,prices,rows", [
        (np.full((2, 3), 20.0), np.full((1, 2), 20.0), [0, 0]),  # k > T
        (np.full((2, 2), 20.0), np.full((1, 4), 20.0), [0]),  # one row for two runs
        (np.full((2, 2), 20.0), np.full((1, 4), 20.0), [0, 1]),  # no window 1
        (np.full((2, 2), 20.0), np.full(4, 20.0), [0, 0]),  # prices not (B, T)
        (np.full((2, 0), 20.0), np.full((1, 4), 20.0), [0, 0]),  # k = 0
    ])
    def test_rejects_inconsistent_shapes(self, thresholds, prices, rows):
        with pytest.raises(InvalidInputError):
            ota_totals(thresholds, prices, rows, ProblemKind.MAX)


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

    def test_theta_is_derived(self):
        assert PriceBounds(5.0, 50.0).theta == 10.0

    def test_prices_become_a_read_only_array_and_thresholds_python_floats(self):
        inst = SearchInstance((5, np.float64(6.5), "7"), 1, B)
        sched = ThresholdSchedule(ProblemKind.MAX, (np.float32(10.0), 20), B)
        assert inst.prices.dtype == np.float64 and inst.prices.ndim == 1
        assert not inst.prices.flags.writeable
        assert inst.prices.tolist() == [5.0, 6.5, 7.0] and sched.values == (10.0, 20.0)
        assert {type(v) for v in sched.values} == {float}
        with pytest.raises(ValueError):
            SearchInstance((5.0, "abc"), 1, B)

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

    def test_non_monotone_schedule_rejected(self):
        with pytest.raises(InvalidInputError):
            ThresholdSchedule(ProblemKind.MAX, (20.0, 10.0), B)
        with pytest.raises(InvalidInputError):
            ThresholdSchedule(ProblemKind.MIN, (10.0, 20.0), B)

    def test_schedule_sentinels(self):
        sched = ThresholdSchedule(ProblemKind.MAX, (10.0, 20.0), B)
        assert sched.value_at(0) == 5.0
        assert sched.value_at(1) == 10.0
        assert sched.value_at(3) == 50.0
        flipped = ThresholdSchedule(ProblemKind.MIN, (20.0, 10.0), B)
        assert flipped.value_at(0) == 50.0
        assert flipped.value_at(3) == 5.0

    def test_pareto_point_ordering_enforced(self):
        ParetoPoint(0.5, 1.5, 2.5)
        with pytest.raises(InvalidInputError):
            ParetoPoint(0.5, 2.5, 1.5)
        with pytest.raises(InvalidInputError):
            ParetoPoint(1.5, 1.5, 2.5)


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


# names a test needs as an oracle or adversary, though no program code calls them
_TEST_ONLY_EXPORTS = {
    "ota_total": "the per-schedule oracle of the batched replay kernel",
    "gen_p_instance": "the acceptance suite's prediction-ladder adversary",
    "gen_worst_case_sequence": "the acceptance suite's worst-case adversary",
}


def test_every_export_is_used_by_program_code():
    """Each name in ``ksearch.__all__`` is referenced by library code outside
    ``__init__``, by a script or by the benchmark, not only by tests."""
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [path for path in (root / "src" / "ksearch").glob("*.py")
             if path.name != "__init__.py"]
    paths += [*(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(ksearch.__all__) - used - set(_TEST_ONLY_EXPORTS))
    assert unused == []
