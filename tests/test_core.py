"""Core engine tests: trace semantics, offline oracle, ratio arithmetic."""

import ast
import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings

import ksearch
from conftest import schedule_and_instance
from ksearch import (
    InvalidInputError,
    ParetoPoint,
    PriceBounds,
    ProblemKind,
    SearchInstance,
    ThresholdSchedule,
    empirical_ratio,
    offline_opt,
    ota_total,
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
        assert trace.num_compulsory == 0

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
    assert voluntary == trace.num_selected - trace.num_compulsory


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


@given(schedule_and_instance())
@settings(max_examples=150)
def test_empirical_ratio_at_least_one(case):
    schedule, instance, kind = case
    trace = run_ota(schedule, instance)
    opt = offline_opt(instance, kind)
    assert empirical_ratio(trace, opt, kind) >= 1.0 - 1e-12


class TestEmpiricalRatio:
    def test_arithmetic(self):
        sched, inst = make_max([10, 20], [5, 10, 25, 5, 5])
        trace = run_ota(sched, inst)
        assert empirical_ratio(trace, 35.0, ProblemKind.MAX) == 1.0
        assert empirical_ratio(trace, 56.0, ProblemKind.MAX) == pytest.approx(1.6)
        assert empirical_ratio(trace, 35.0, ProblemKind.MIN) == 1.0

    def test_nonpositive_rejected(self):
        sched, inst = make_max([10, 20], [5, 10, 25, 5, 5])
        trace = run_ota(sched, inst)
        with pytest.raises(InvalidInputError):
            empirical_ratio(trace, 0.0, ProblemKind.MAX)


class TestTypeInvariants:
    def test_bad_bounds(self):
        with pytest.raises(InvalidInputError):
            PriceBounds(0.0, 10.0)
        with pytest.raises(InvalidInputError):
            PriceBounds(10.0, 5.0)

    def test_theta_is_derived(self):
        assert PriceBounds(5.0, 50.0).theta == 10.0

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
