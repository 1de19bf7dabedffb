"""Prediction-aware threshold designs: ratios, cases I-VI, and tail/prefix robustness."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ksearch import (
    AugmentedDesign,
    ConstructionError,
    DomainError,
    FrontierSpec,
    InvalidInputError,
    KSearchError,
    ParetoPoint,
    PriceBounds,
    ProblemKind,
    SearchInstance,
    ThresholdSchedule,
    design,
    interval_ratios,
    prediction_ratio,
    run_ota,
    target_point,
    worst_case_thresholds,
)
from ksearch import augmented as augmented_mod
from ksearch.learner import GRID
from ksearch.core import left_sum
from ksearch.augmented import (
    _construct,
    _frame,
    _verify,
    sigma_star,
)
from conftest import band_cases, band_prediction
from oracle import (
    construct_reference,
    design_for_target,
    exact_interval_ratios,
    interval_ratios_reference,
    sigma_star_reference,
    verify_reference,
)

BOUNDS = PriceBounds(5.0, 50.0)
K = 20
FIG_TARGET = ParetoPoint(0.94, 1.52, 2.63)


# --------------------------------------------------------------------------
# interval ratios


def test_ratio_alpha_flat_floor_schedule():
    sched = ThresholdSchedule(ProblemKind.MAX, (5.0,) * K, BOUNDS)
    ratios = interval_ratios(sched)
    assert ratios[:K].tolist() == pytest.approx([1.0] * K)
    assert ratios[K] == pytest.approx(BOUNDS.theta)


def test_ratio_beta_flat_ceiling_schedule():
    sched = ThresholdSchedule(ProblemKind.MIN, (50.0,) * K, BOUNDS)
    ratios = interval_ratios(sched)
    assert ratios[:K].tolist() == pytest.approx([1.0] * K)
    assert ratios[K] == pytest.approx(BOUNDS.theta)


def test_ratio_alpha_first_interval_is_first_threshold_over_floor():
    sched = ThresholdSchedule(ProblemKind.MAX, (7.0, 20.0, 30.0), PriceBounds(5.0, 50.0))
    assert interval_ratios(sched)[0] == pytest.approx(7.0 / 5.0)


@st.composite
def schedule_points(draw, tops):
    """(kind, bounds, k, lam, prediction): p_min = 10^U(-2, 2), theta =
    10^U(0, a) and k = round(10^U(0, b)) for (a, b) = tops[kind], lam in
    [0, 1] and the prediction in the band."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    p_min = 10.0 ** draw(st.floats(-2.0, 2.0))
    top_theta, top_k = tops[kind]
    theta = 10.0 ** draw(st.floats(0.0, top_theta))
    k = round(10.0 ** draw(st.floats(0.0, top_k)))
    bounds = PriceBounds(p_min, p_min * theta)
    prediction = min(max(p_min * bounds.theta ** draw(st.floats(0.0, 1.0)), bounds.p_min),
                     bounds.p_max)
    return kind, bounds, k, draw(st.floats(0.0, 1.0)), prediction


@settings(max_examples=150, deadline=None)
@given(schedule_points({ProblemKind.MAX: (4.0, 3.0), ProblemKind.MIN: (3.0, 3.0)}),
       st.booleans())
@example((ProblemKind.MAX, PriceBounds(1.0, 1e4), 1000, 0.5, 30.0), False)
@example((ProblemKind.MIN, PriceBounds(1.0, 1e3), 1000, 0.5, 30.0), True)
def test_interval_ratios_are_the_reference_bit_for_bit(point, worst_case):
    kind, bounds, k, lam, prediction = point
    try:
        schedule = (worst_case_thresholds(bounds, k, kind) if worst_case
                    else design(prediction, lam, bounds, k, kind)).schedule
    except KSearchError:
        return
    reference = np.array(interval_ratios_reference(schedule))
    assert interval_ratios(schedule).tobytes() == reference.tobytes()


@settings(max_examples=150, deadline=None)
@given(schedule_points({ProblemKind.MAX: (4.0, 3.0), ProblemKind.MIN: (math.log10(30.0), 2.0)}))
@example((ProblemKind.MAX, PriceBounds(1.0, 1e4), 1000, 0.5, 30.0))
@example((ProblemKind.MAX, PriceBounds(1.0, 1e4), 1000, 1.0, 1.0))
@example((ProblemKind.MIN, PriceBounds(1.0, 30.0), 100, 0.5, 3.0))
@example((ProblemKind.MIN, PriceBounds(1.0, 30.0), 100, 1.0, 30.0))
def test_design_interval_ratios_are_within_1e_13_of_the_exact_ones(point):
    """Max-search over theta up to 1e4 and k up to 1,000, min-search over
    theta up to 30 and k up to 100 (beyond it min-search's float root
    drifts, ROADMAP item 14)."""
    kind, bounds, k, lam, prediction = point
    try:
        schedule = design(prediction, lam, bounds, k, kind).schedule
    except KSearchError:
        return
    for ratio, exact in zip(interval_ratios(schedule).tolist(), exact_interval_ratios(schedule),
                            strict=True):
        assert abs(Fraction(ratio) - exact) <= Fraction(1e-13) * exact


# --------------------------------------------------------------------------
# prediction_ratio against a run_ota adversary simulation


def simulated_accurate_ratio(schedule: ThresholdSchedule, prediction: float) -> float:
    """Adversary: trigger every reachable threshold, then offer the extreme k
    times, then force compulsory fills at the far bound."""
    k, b = schedule.k, schedule.bounds
    if schedule.kind.is_max:
        triggers = [v for v in schedule.values if v <= prediction]
        pad = b.p_min
    else:
        triggers = [v for v in schedule.values if v >= prediction]
        pad = b.p_max
    s = len(triggers)
    prices = tuple(triggers + [prediction] * k + [pad] * (k - s))
    trace = run_ota(schedule, SearchInstance(prices, k, b))
    opt = k * prediction
    if schedule.kind.is_max:
        return opt / trace.total_value
    return trace.total_value / opt


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("kind", list(ProblemKind))
def test_prediction_ratio_equals_simulated_adversary(lam, kind):
    for P in np.linspace(5.0, 50.0, 7):
        d = design(float(P), lam, BOUNDS, K, kind)
        closed_form = prediction_ratio(d.schedule, float(P))
        simulated = simulated_accurate_ratio(d.schedule, float(P))
        assert closed_form == pytest.approx(simulated, rel=1e-12)


def test_prediction_ratio_rejects_out_of_bounds():
    sched = worst_case_thresholds(BOUNDS, K, ProblemKind.MAX).schedule
    with pytest.raises(InvalidInputError):
        prediction_ratio(sched, 4.9)


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_predictions_snap_by_a_tolerance_of_their_own_band_end(kind):
    """A prediction within 1e-12 (relative) past a band end is that end;
    one further out is rejected, on the p_min side too, where a wide band's
    p_max would allow a millionth."""
    bounds = PriceBounds(1.0, 1e6)
    for outside in (0.999999, 1.0 - 2e-12, 1e6 * (1.0 + 2e-12)):
        with pytest.raises(InvalidInputError, match="^prediction .* outside"):
            design(outside, 0.5, bounds, 10, kind)
    for end, step in ((bounds.p_min, -math.inf), (bounds.p_max, math.inf)):
        assert augmented_mod._snap_prediction(math.nextafter(end, step), bounds) == end
    assert design(math.nextafter(1.0, 0.0), 0.5, bounds, 10, ProblemKind.MAX).prediction == 1.0


# --------------------------------------------------------------------------
# case classification anchor (max-search, eta=1.52, gamma=2.63)


def test_case_classification_anchor():
    expected = {8.0: "I", 12.0: "II", 15.0: "III", 25.0: "III"}
    for P, label in expected.items():
        d = design_for_target(P, FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
        assert d.case_label == label, (P, d.case_label)


def test_anchor_structural_indices():
    d8 = design_for_target(8.0, FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
    assert (d8.j_star, d8.m_star, d8.i_star, d8.sigma_star) == (0, 0, 9, 9)
    assert d8.p_tilde_1 == pytest.approx(9.671663130195487, rel=1e-9)
    assert d8.p_tilde_2 == pytest.approx(13.15, rel=1e-12)
    d12 = design_for_target(12.0, FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
    assert (d12.j_star, d12.m_star, d12.i_star) == (0, 9, 14)
    d15 = design_for_target(15.0, FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
    assert (d15.j_star, d15.m_star, d15.i_star) == (2, 10, 17)
    d25 = design_for_target(25.0, FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
    assert (d25.j_star, d25.m_star, d25.i_star) == (8, 15, 20)


def test_anchor_segment_structure():
    d15 = design_for_target(15.0, FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
    labels = d15.segment_labels()
    assert labels[: d15.j_star] == ("z",) * d15.j_star
    assert labels[d15.j_star : d15.i_star] == ("c",) * (d15.i_star - d15.j_star)
    assert labels[d15.i_star :] == ("r",) * (K - d15.i_star)
    # flat consistency block sits exactly at the prediction
    flat = d15.schedule.values[d15.j_star : d15.m_star]
    assert all(v == pytest.approx(15.0, rel=1e-12) for v in flat)


def test_min_case_labels_move_with_prediction():
    seen = [
        design(float(P), 0.5, BOUNDS, K, ProblemKind.MIN).case_label
        for P in np.linspace(5, 50, 21)
    ]
    order = {"VI": 0, "V": 1, "IV": 2}
    assert seen[0] == "VI" and seen[-1] == "IV"
    assert all(order[a] <= order[b] for a, b in zip(seen, seen[1:]))


def test_case_boundary_flip_at_p_tilde_1():
    d = design_for_target(8.0, FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
    below = design_for_target(
        d.p_tilde_1 * (1 - 1e-9), FIG_TARGET, BOUNDS, K, ProblemKind.MAX
    )
    above = design_for_target(
        d.p_tilde_1 * (1 + 1e-6), FIG_TARGET, BOUNDS, K, ProblemKind.MAX
    )
    assert below.case_label == "I"
    assert above.case_label == "II"


# --------------------------------------------------------------------------
# design guarantees across the (P, lambda) grid


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_designs_meet_both_guarantees(kind):
    for lam in np.linspace(0.0, 1.0, 9):
        for P in np.linspace(5.0, 50.0, 9):
            d = design(float(P), float(lam), BOUNDS, K, kind)
            worst = max(interval_ratios(d.schedule))
            assert worst <= d.target.gamma + 1e-9
            assert prediction_ratio(d.schedule, float(P)) <= d.target.eta + 1e-9
            assert 0 <= d.j_star <= d.m_star <= d.i_star <= K


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_full_robustness_reproduces_worst_case_schedule(kind):
    reference = worst_case_thresholds(BOUNDS, K, kind).schedule
    for P in (5.0, 20.0, 50.0):
        d = design(P, 1.0, BOUNDS, K, kind)
        np.testing.assert_allclose(d.schedule.values, reference.values, rtol=1e-8)


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_full_trust_gives_perfect_consistency(kind):
    for P in np.linspace(5.0, 50.0, 11):
        d = design(float(P), 0.0, BOUNDS, K, kind)
        assert prediction_ratio(d.schedule, float(P)) <= 1.0 + 1e-9


def test_degenerate_equal_bounds():
    flat = PriceBounds(7.0, 7.0)
    for kind in ProblemKind:
        d = design(7.0, 0.5, flat, 4, kind)
        assert set(d.schedule.values) == {7.0}
        assert max(interval_ratios(d.schedule)) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 5, 100])
@pytest.mark.parametrize("kind", list(ProblemKind))
@pytest.mark.parametrize("excess", [5e-13, 1e-12, 2e-12, 1e-11])
def test_near_degenerate_band_reproduces_worst_case(excess, kind, k):
    # theta - 1 below ~3e-12 puts the worst-case root under 1 + 1e-12
    bounds = PriceBounds(1.0, 1.0 + excess)
    reference = np.asarray(worst_case_thresholds(bounds, k, kind).schedule.values)
    for prediction in (bounds.p_min, bounds.p_max):
        d = design(prediction, 1.0, bounds, k, kind)
        assert np.all(np.abs(np.asarray(d.schedule.values) - reference) <= 1e-9 * reference)


def test_input_validation():
    with pytest.raises(InvalidInputError):
        design(4.0, 0.5, BOUNDS, K, ProblemKind.MAX)  # prediction below p_min
    with pytest.raises(InvalidInputError):
        design(51.0, 0.5, BOUNDS, K, ProblemKind.MIN)
    with pytest.raises(DomainError):
        design(10.0, 1.5, BOUNDS, K, ProblemKind.MAX)  # lambda outside [0, 1]
    with pytest.raises(DomainError):
        design(10.0, -0.1, BOUNDS, K, ProblemKind.MIN)


def test_design_dispatch_matches_kind():
    dmax = design(12.0, 0.4, BOUNDS, K, ProblemKind.MAX)
    dmin = design(12.0, 0.4, BOUNDS, K, ProblemKind.MIN)
    assert dmax.schedule.kind is ProblemKind.MAX
    assert dmin.schedule.kind is ProblemKind.MIN
    assert dmax.case_label in {"I", "II", "III"}
    assert dmin.case_label in {"IV", "V", "VI"}


# --------------------------------------------------------------------------
# sigma* scans


def sigma_condition_max(sigma, eta, gamma, theta, k):
    lhs = (1.0 + (theta - 1.0) / (1.0 + gamma / k) ** (k - sigma)) / (
        1.0 + (eta - 1.0) * (1.0 + eta / k) ** sigma
    )
    return lhs <= (gamma / eta) * (1.0 + 1e-9)


def test_sigma_star_max_is_largest_feasible():
    sigma = sigma_star(FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
    assert sigma == 9
    assert sigma_condition_max(sigma, 1.52, 2.63, BOUNDS.theta, K)
    assert not sigma_condition_max(sigma + 1, 1.52, 2.63, BOUNDS.theta, K)


def test_sigma_star_min_in_range_and_boundary():
    target = target_point(0.5, FrontierSpec(BOUNDS, K, ProblemKind.MIN))
    sigma = sigma_star(target, BOUNDS, K, ProblemKind.MIN)
    assert 1 <= sigma <= K
    d = design_for_target(5.0, target, BOUNDS, K, ProblemKind.MIN)
    assert d.sigma_star == sigma


def _result(function, *args):
    """What a call returns, or the class and message of its failure."""
    try:
        return function(*args)
    except (KSearchError, ArithmeticError) as exc:
        return type(exc), str(exc)


# k = 1 ties the junction test at every target: a ratio one or two ulps
# above gamma passes on its slack alone; at k = 1000 no block is feasible
@example(kind=ProblemKind.MAX, p_min=1.0, theta=1.5, k=1, lam=1.0)
@example(kind=ProblemKind.MIN, p_min=1.0, theta=1.5, k=1, lam=1.0)
@example(kind=ProblemKind.MIN, p_min=1.0, theta=1.5, k=1, lam=GRID[6])
@example(kind=ProblemKind.MIN, p_min=1.0, theta=177.82794100389228, k=1000, lam=1.0)
@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(list(ProblemKind)),
    p_min=st.floats(min_value=0.01, max_value=100.0),
    theta=st.floats(min_value=1.0, max_value=1e5),
    k=st.integers(min_value=1, max_value=1000),
    lam=st.sampled_from(GRID + (0, 1)),
)
def test_sigma_star_is_the_reference_scan(kind, p_min, theta, k, lam):
    bounds = PriceBounds(p_min, p_min * theta)
    try:
        target = target_point(lam, FrontierSpec(bounds, k, kind))
    except (KSearchError, ArithmeticError):
        return  # no target at this lambda: no sigma* to scan for
    assert _result(sigma_star, target, bounds, k, kind) == _result(
        sigma_star_reference, target, bounds, k, kind)


def test_infeasible_target_raises_construction_error():
    # eta=1 at an interior gamma sits below the achievable frontier: the
    # flat block needed for perfect consistency would break robustness
    with pytest.raises(ConstructionError):
        design_for_target(50.0, ParetoPoint(0.5, 1.0, 2.63), BOUNDS, K, ProblemKind.MAX)
    with pytest.raises(ConstructionError):
        design_for_target(5.0, ParetoPoint(0.5, 1.0, 5.0), BOUNDS, K, ProblemKind.MIN)


def test_inverted_thresholds_are_a_construction_error():
    # an internal fault, not bad input: it must exit 4, not 3.  A case I
    # head that halves its lead per threshold falls inside the band, and the
    # tail then turns back up
    frame = _frame(ParetoPoint(0.5, 1.5, 2.6), BOUNDS, 10, ProblemKind.MAX)
    with pytest.raises(ConstructionError, match="not monotone"):
        _construct(5.0, frame._replace(grow_eta=0.5), BOUNDS, 10, ProblemKind.MAX)


# --------------------------------------------------------------------------
# robustness of prefixes and tails: interval ratios stay within gamma, and
# _verify rejects a schedule whose prefix or tail is mutated past it


def prefix_budget(schedule: ThresholdSchedule) -> float:
    """The gamma a standard robustness prefix implies, read off threshold 1."""
    if schedule.kind.is_max:
        gamma = schedule.values[0] / schedule.bounds.p_min
    else:
        gamma = schedule.bounds.p_max / schedule.values[0]
    return gamma * (1.0 + 1e-9) + 1e-9


def tail_ratios(d: AugmentedDesign) -> np.ndarray:
    """Interval ratios i*+2 .. k+1, the ones a reserve tail must keep within gamma."""
    return interval_ratios(d.schedule)[d.i_star + 1 :]


def test_beg_predicates_hold_on_worst_case_schedules():
    for kind in ProblemKind:
        sched = worst_case_thresholds(BOUNDS, K, kind).schedule
        assert max(interval_ratios(sched)[:K]) <= prefix_budget(sched)


def test_end_predicates_hold_on_designed_tails():
    d = design_for_target(15.0, FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
    dm = design(15.0, 0.5, BOUNDS, K, ProblemKind.MIN)
    assert d.i_star < K  # a non-empty max-search tail; the min one may be empty
    for built in (d, dm):
        assert np.all(tail_ratios(built) <= built.target.gamma * (1.0 + 1e-9) + 1e-9)


def test_end_max_predicate_flips_under_tail_mutation():
    d = design_for_target(12.0, FIG_TARGET, BOUNDS, K, ProblemKind.MAX)
    i_star = d.i_star  # 14: tail occupies indices 15..20
    values = list(d.schedule.values)
    bump = i_star + 2  # 1-based interval in the checked range
    values[bump - 1] = min(BOUNDS.p_max, values[bump - 1] * 1.05)
    values = tuple(sorted(values))
    mutated = replace(d, schedule=ThresholdSchedule(ProblemKind.MAX, values, BOUNDS))
    assert max(tail_ratios(mutated)) > d.target.gamma + 1e-9
    with pytest.raises(ConstructionError, match="robustness violated"):
        _verify(mutated)


def test_beg_max_predicate_flips_under_prefix_mutation():
    wmax = worst_case_thresholds(BOUNDS, K, ProblemKind.MAX).schedule
    values = list(wmax.values)
    values[1] *= 1.02  # second threshold too greedy for the implied budget
    mutated = ThresholdSchedule(ProblemKind.MAX, tuple(sorted(values)), BOUNDS)
    assert max(interval_ratios(mutated)[:K]) > prefix_budget(mutated)


def test_end_min_predicate_flips_under_tail_mutation():
    dm = design(35.0, 0.6, BOUNDS, K, ProblemKind.MIN)
    i_star = dm.i_star
    assert i_star < K - 1  # this target leaves a tail interval to mutate
    values = list(dm.schedule.values)
    bump = i_star + 2
    values[bump - 1] = max(BOUNDS.p_min, values[bump - 1] * 0.95)
    values = tuple(sorted(values, reverse=True))
    mutated = replace(dm, schedule=ThresholdSchedule(ProblemKind.MIN, values, BOUNDS))
    assert max(tail_ratios(mutated)) > dm.target.gamma + 1e-9
    with pytest.raises(ConstructionError, match="robustness violated"):
        _verify(mutated)


def test_beg_min_predicate_flips_under_prefix_mutation():
    wmin = worst_case_thresholds(BOUNDS, K, ProblemKind.MIN).schedule
    values = list(wmin.values)
    values[1] *= 0.98
    mutated = ThresholdSchedule(ProblemKind.MIN, tuple(sorted(values, reverse=True)), BOUNDS)
    assert max(interval_ratios(mutated)[:K]) > prefix_budget(mutated)


# --------------------------------------------------------------------------
# container invariants


def test_design_container_rejects_broken_index_chain():
    sched = worst_case_thresholds(BOUNDS, K, ProblemKind.MAX).schedule
    with pytest.raises(InvalidInputError):
        AugmentedDesign(sched, "II", 5, 3, 10, 5, 9.0, 13.0, FIG_TARGET, 12.0)
    with pytest.raises(InvalidInputError):
        AugmentedDesign(sched, "VII", 0, 0, 10, 5, 9.0, 13.0, FIG_TARGET, 12.0)


# --------------------------------------------------------------------------
# randomized design sweep


@settings(max_examples=120, deadline=None)
@given(
    theta=st.floats(min_value=1.2, max_value=60.0),
    k=st.integers(min_value=1, max_value=40),
    lam=st.floats(min_value=0.0, max_value=1.0),
    rel=st.floats(min_value=0.0, max_value=1.0),
    kind=st.sampled_from(list(ProblemKind)),
)
def test_random_designs_always_verify(theta, k, lam, rel, kind):
    bounds = PriceBounds(2.0, 2.0 * theta)
    prediction = bounds.p_min + rel * (bounds.p_max - bounds.p_min)
    d = design(prediction, lam, bounds, k, kind)
    assert len(d.schedule.values) == k
    assert max(interval_ratios(d.schedule)) <= d.target.gamma + 1e-9
    assert prediction_ratio(d.schedule, prediction) <= d.target.eta + 1e-9
    assert len(d.segment_labels()) == k


# --------------------------------------------------------------------------
# the frame cache: cache state never changes a result


def _outcome(call):
    """design's result fields, or the class and message of its failure."""
    try:
        return _fields(design(*call))
    except (KSearchError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _oracle(call):
    """The same call without any cache: a fresh frontier, target and frame."""
    prediction, lam, bounds, k, kind = call
    try:
        target = target_point(lam, FrontierSpec(bounds, k, kind))
        return _fields(design_for_target(prediction, target, bounds, k, kind))
    except (KSearchError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _fields(d: AugmentedDesign):
    return (d.schedule.values, d.case_label, d.j_star, d.m_star, d.i_star, d.sigma_star,
            d.p_tilde_1, d.p_tilde_2, d.target, d.prediction)


@settings(max_examples=40, deadline=None)
@given(
    p_min=st.floats(min_value=0.5, max_value=200.0),
    thetas=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=2, max_size=3),
    ks=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=2),
    lams=st.lists(st.sampled_from(GRID), min_size=1, max_size=3),
    spots=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=2),
)
def test_cache_state_never_changes_a_design(p_min, thetas, ks, lams, spots):
    bands = [PriceBounds(p_min, p_min * theta) for theta in thetas]
    # consecutive calls alternate kind and band, so their frames interleave
    calls = [(min(max(b.p_min * b.theta**spot, b.p_min), b.p_max), lam, b, k, kind)
             for k in ks for lam in lams for spot in spots for b in bands
             for kind in ProblemKind]
    expected = [_oracle(call) for call in calls]
    augmented_mod._frames.cache_clear()
    assert [_outcome(call) for call in calls] == expected  # cold, then warming
    assert [_outcome(call) for call in reversed(calls)] == expected[::-1]  # warm


def test_frame_cache_holds_a_band_sweep():
    """Both kinds x 16 bands x k in {1, 10} x 11 lambdas is 704 frames,
    more than a cache of 256 holds, so an LRU that small hits none of them
    on a second pass in the same order.  Bands stop at theta = 10^3, where
    every one of these frames builds."""
    calls = [(PriceBounds(1.0, float(theta)), k, i / 10, kind) for kind in ProblemKind
             for theta in np.logspace(0.25, 3.0, 16) for k in (1, 10) for i in range(11)]
    augmented_mod._frames.cache_clear()
    for _ in range(2):
        for bounds, k, lam, kind in calls:
            design(bounds.p_max**0.5, lam, bounds, k, kind)
    info = augmented_mod._frames.cache_info()
    assert (info.hits, info.misses) == (len(calls), len(calls))


def test_target_holds_the_callers_lambda_as_a_float():
    # an int lambda shares the float's frame: the target holds float(lam)
    augmented_mod._frames.cache_clear()
    for lam in (1.0, 1, 0.0, 0):
        assert type(design(20.0, lam, BOUNDS, K, ProblemKind.MAX).target.lam) is float
    assert augmented_mod._frames.cache_info().misses == 2


def test_failed_frame_raises_the_same_error_on_every_call():
    # sigma* has no feasible block at this (lambda, band, k), whatever P is
    bounds, k, lam = PriceBounds(1.0, 5623.413251903491), 1, 0.3
    augmented_mod._frames.cache_clear()
    seen = set()
    for prediction in (1.0, 40.0, bounds.p_max, 1.0):
        with pytest.raises(ConstructionError, match="no feasible consistency block") as info:
            design(prediction, lam, bounds, k, ProblemKind.MIN)
        exc = info.value
        seen.add(str(exc))
        assert (exc.kind, exc.bounds, exc.k, exc.lam, exc.prediction) == (
            ProblemKind.MIN, bounds, k, lam, prediction)
        assert _oracle((prediction, lam, bounds, k, ProblemKind.MIN)) == (
            ConstructionError, str(exc))
    assert len(seen) == 1


def test_failed_frame_is_scanned_once_and_each_call_raises_its_own_error(monkeypatch):
    bounds, k, lam = PriceBounds(1.0, 5623.413251903491), 1, 0.3
    scans = []

    def counted(*args):
        scans.append(args)
        return sigma_star(*args)

    monkeypatch.setattr(augmented_mod, "sigma_star", counted)
    augmented_mod._frames.cache_clear()
    raised = []
    for prediction in (1.0, 40.0, bounds.p_max, 300.0):
        with pytest.raises(ConstructionError, match="no feasible consistency block") as info:
            design(prediction, lam, bounds, k, ProblemKind.MIN)
        raised.append(info.value)
    assert len(scans) == 1
    assert len({id(exc) for exc in raised}) == len(raised)
    assert [exc.prediction for exc in raised] == [1.0, 40.0, bounds.p_max, 300.0]


@pytest.mark.parametrize("k", [10.0, np.float64(10.0)], ids=["float", "numpy-float"])
def test_k_that_is_not_an_int_raises_typed_warm_or_cold(k):
    """k is checked before either cache: the frontier cache keys on k
    untyped, so after design(..., 10, ...) it holds a spec that k = 10.0
    would otherwise reach, and sigma*'s ``range`` would reject untyped."""
    bounds = PriceBounds(5.0, 50.0)
    augmented_mod._frames.cache_clear()
    augmented_mod._frontier.cache_clear()
    with pytest.raises(InvalidInputError, match="k must be an integer >= 1"):
        design(20.0, 0.5, bounds, k, ProblemKind.MAX)  # cold
    design(20.0, 0.5, bounds, 10, ProblemKind.MAX)
    with pytest.raises(InvalidInputError, match="k must be an integer >= 1"):
        design(20.0, 0.5, bounds, k, ProblemKind.MAX)  # warm


def test_construction_errors_outside_design_carry_no_call():
    with pytest.raises(ConstructionError) as info:
        design_for_target(50.0, ParetoPoint(0.5, 1.0, 2.63), BOUNDS, K, ProblemKind.MAX)
    assert info.value.kind is None and info.value.prediction is None


# --------------------------------------------------------------------------
# _verify is the reference verification


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(ProblemKind)),
    p_min=st.floats(min_value=0.01, max_value=100.0),
    theta=st.floats(min_value=1.0, max_value=1e3),
    k=st.integers(min_value=1, max_value=200),
    lam=st.floats(min_value=0.0, max_value=1.0),
    spot=st.floats(min_value=0.0, max_value=1.0),
    data=st.data(),
)
def test_verify_is_the_reference_at_every_reached_count(kind, p_min, theta, k, lam, spot, data):
    """``_verify`` reads the accurate-prediction total off the interval
    ratios' left sums, ``verify_reference`` adds it with ``left_sum``.  A
    verified design re-checked at another prediction in the band (at a
    threshold, a few ulps off one, or anywhere) and under another eta cap
    must pass both or fail both with the same message."""
    bounds = PriceBounds(p_min, p_min * theta)
    prediction = min(max(p_min * bounds.theta**spot, bounds.p_min), bounds.p_max)
    try:
        found = design(prediction, lam, bounds, k, kind)
    except (KSearchError, ArithmeticError):
        return  # no design to re-check
    moved = data.draw(st.sampled_from(found.schedule.values)
                      | st.floats(min_value=bounds.p_min, max_value=bounds.p_max))
    ulps = data.draw(st.integers(min_value=-2, max_value=2))
    for _ in range(abs(ulps)):
        moved = math.nextafter(moved, math.copysign(math.inf, ulps))
    moved = min(max(moved, bounds.p_min), bounds.p_max)
    eta = data.draw(st.floats(min_value=1.0, max_value=found.target.gamma))
    changed = replace(found, prediction=moved, target=replace(found.target, eta=eta))
    assert _result(_verify, changed) == _result(verify_reference, changed)


# --------------------------------------------------------------------------
# the one-pass construction is the plain one, bit for bit


def _built(construct, prediction, frame, bounds, k, kind):
    """A construction's result fields, or the class and message of its failure.
    Its thresholds are positive floats, equal only if their bits are."""
    try:
        return _fields(construct(prediction, frame, bounds, k, kind))
    except (KSearchError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _assert_construct_is_reference(prediction, lam, bounds, k, kind):
    prediction = augmented_mod._snap_prediction(prediction, bounds)
    try:
        frame = augmented_mod._frame_at(lam, bounds, k, kind)
    except (KSearchError, ArithmeticError):
        return  # no frame at this lambda: neither construction runs
    got = _built(_construct, prediction, frame, bounds, k, kind)
    assert got == _built(construct_reference, prediction, frame, bounds, k, kind)
    return got


# pinned points: an exact tie in an i* scan; a 19-term prefix sum and an
# 11-term running sum, long enough for a pairwise sum to round otherwise;
# a pivot on the near side of P by float noise; P one ulp past p_max
@example(case=(ProblemKind.MIN, 1.0, 10.0, 2, [("i_star", 1, 0.0, 1.0, -1)]))
@example(case=(ProblemKind.MIN, 5.0, 10.0**0.5, 19, [("inside", 0, 1.0, 0.25, 0)]))
@example(case=(ProblemKind.MAX, 1.0, 10.0**0.3671875, 11, [("i_star", 6, 0.0, 1.0, 1)]))
@example(case=(ProblemKind.MIN, 1.0, 10.0, 1, [("p_max", 0, 0.0, 0.0, -1)]))
@example(case=(ProblemKind.MIN, 10.0625, 10.0**0.375, 11, [("p_max", 0, 0.0, 0.0, 1)]))
# the min-search m* search, each at lambda = 0 or the one named: P at
# p_max and one and two ulps below it, where the flat block's slope is too
# small to bracket and m* = j* = 0 is scanned for, then i* = k; P within
# 1e-9 of p_max, bracketed to m* = j* = 0 < k
@example(case=(ProblemKind.MIN, 1.0, 100.0, 50, [
    ("p_max", 0, 0.0, 0.0, 0), ("p_max", 0, 0.0, 0.0, -1), ("p_max", 0, 0.0, 0.0, -2),
    ("inside", 0, 0.9999999999, 1.0, 0)]))
# closed-form crossings at an exact integer, whose candidate fails and
# steps up to m* = k (lambda 0.5), and at 4.0 (lambda 0.5625); one ulp above
# 33, whose candidate's predecessor passes (lambda 0.78125); one ulp below
# 19 (lambda 0.75)
@example(case=(ProblemKind.MIN, 47.46, 120.22644346174131, 50,
               [("inside", 0, 0.48554356347554045, 1.0, 0)]))
@example(case=(ProblemKind.MIN, 28.46, 6606.934480075957, 5,
               [("inside", 0, 0.8602202120291235, 1.0, 0)]))
@example(case=(ProblemKind.MIN, 31.47, 31.622776601683793, 100,
               [("inside", 0, 0.05482734022151152, 1.0, 0)]))
@example(case=(ProblemKind.MIN, 47.11, 436.5158322401661, 20,
               [("inside", 0, 0.4962142240958563, 1.0, 0)]))
# the i* scan at lambda = 1: i* = j* = m* = k in case VI, where it starts
# at its last position; and no fitting i* at all
@example(case=(ProblemKind.MIN, 90.1437, 1150.8003889444356, 33, [("p_min", 0, 0.0, 0.0, 0)]))
@example(case=(ProblemKind.MIN, 7.0611, 29308.932452503184, 5, [("p_min", 0, 0.0, 0.0, 0)]))
@settings(max_examples=100, deadline=None)
@given(case=band_cases(max_spots=3))
def test_construct_is_the_reference_construction(case):
    kind, p_min, theta, k, spots = case
    bounds = PriceBounds(p_min, p_min * theta)
    for spot in spots:
        prediction = band_prediction(spot, bounds, k, kind)
        for lam in GRID:
            _assert_construct_is_reference(prediction, lam, bounds, k, kind)


# design-grid points (PriceBounds(1, theta)) whose construction fails, each
# in _verify, then ones that succeed in cases I-VI at k = 100 and 1000, and a
# random point failing on a covered interval
@pytest.mark.parametrize("kind,theta,k,lam,prediction,failure", [
    (ProblemKind.MIN, 10000.0, 100, 0.5, 1.0, "robustness violated"),
    (ProblemKind.MIN, 316.2277660168379, 1000, 0.5, 1.0, "robustness violated"),
    (ProblemKind.MIN, 1000.0, 1000, 0.8, 2.371373705661655, "robustness violated"),
    (ProblemKind.MIN, 1000.0, 1000, 1.0, 177.82794100389228, "robustness violated"),
    (ProblemKind.MAX, 3.1622776601683795, 1000, 0.9, 1.7782794100389228, None),
    (ProblemKind.MAX, 1000.0, 1000, 0.6, 2.371373705661655, None),
    (ProblemKind.MIN, 3162.2776601683795, 1000, 0.7, 1154.781984689458, None),
    (ProblemKind.MIN, 1000.0, 100, 0.1, 1000.0, None),
    # the slowest design-grid points of each kind
    (ProblemKind.MIN, 100.0, 1000, 0.6, 3.1622776601683795, None),
    (ProblemKind.MAX, 316.2277660168379, 1000, 0.1, 17.78279410038923, None),
    # a flat block of 1,000 copies of P (cases II and V), whose pairwise
    # np.sum differs from the left sum the i* scan must take
    (ProblemKind.MAX, 1.7782794100389228, 1000, 0.0, 1.0746078283213174, None),
    (ProblemKind.MIN, 1.7782794100389228, 1000, 0.0, 1.0746078283213174, None),
])
def test_construct_is_the_reference_on_design_grid_points(
        kind, theta, k, lam, prediction, failure):
    got = _assert_construct_is_reference(prediction, lam, PriceBounds(1.0, theta), k, kind)
    if failure is None:
        assert got[1] in ("I", "II", "III", "IV", "V", "VI")
    else:
        assert got[0] is ConstructionError and got[1].startswith(failure)


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_the_long_flat_block_tells_a_left_sum_from_a_pairwise_one(kind):
    """The pinned flat-block points above hold 1,000 copies of P, and there
    a pairwise sum of them rounds otherwise than the left sum."""
    prediction = 1.0746078283213174
    got = design(prediction, 0.0, PriceBounds(1.0, 1.7782794100389228), 1000, kind)
    assert (got.case_label, got.j_star, got.m_star) == ("II" if kind.is_max else "V", 0, 1000)
    assert got.schedule.values == (prediction,) * 1000
    flat = np.full(1000, prediction)
    assert np.sum(flat) != left_sum(flat.tolist()) == np.add.accumulate(flat)[-1]


# the last or first prediction at an i* of a band, where the scan's test is
# a near tie: a running sum that rounds otherwise (numpy's pairwise sum of
# the thresholds so far, say) moves i* there
@pytest.mark.parametrize("kind,p_min,p_max,k,lam,prediction", [
    (ProblemKind.MAX, 5.151073909888309, 15414.0877698467, 52, 0.875, 40.576140051602216),
    (ProblemKind.MAX, 2.9684542615899296, 181.46920008480885, 281, 0.875, 6.944463199811082),
    (ProblemKind.MIN, 0.2248970703151755, 580.3917824550954, 142, 0.125, 509.0029623836667),
    (ProblemKind.MIN, 12.690893310459474, 69.00949327727096, 147, 0.34375, 54.01045980398191),
])
def test_construct_is_the_reference_at_i_star_steps(kind, p_min, p_max, k, lam, prediction):
    got = _assert_construct_is_reference(prediction, lam, PriceBounds(p_min, p_max), k, kind)
    assert got[1] in ("II", "V")


def test_construct_is_the_reference_on_a_covered_interval_failure():
    bounds = PriceBounds(0.1806075914582178, 1400.0244874237492)
    got = _assert_construct_is_reference(35.40526349207474, 1.0, bounds, 114, ProblemKind.MIN)
    assert got[0] is ConstructionError
    assert got[1].startswith("consistency violated on interval 113: ratio")


# frames no target gives, whose thresholds leave the band (so the band
# check decides), turn, or find no flat block, pivot or consistency endpoint;
# the last one's i* scan fits only at i* = j* = 0
@pytest.mark.parametrize("kind,change,prediction", [
    (ProblemKind.MAX, {"grow_eta": 10.0}, 5.0),
    (ProblemKind.MAX, {"grow_eta": 10.0}, 20.0),
    (ProblemKind.MAX, {"grow_eta": 10.0}, 45.0),
    (ProblemKind.MAX, {"grow_gamma": 0.5}, 5.0),
    (ProblemKind.MAX, {"grow_gamma": 0.5}, 20.0),
    (ProblemKind.MAX, {"lead_gamma": 24.0}, 45.0),
    (ProblemKind.MIN, {"grow_eta": 10.0}, 45.0),
    (ProblemKind.MIN, {"grow_gamma": 0.5}, 5.0),
    (ProblemKind.MIN, {"grow_gamma": 0.5}, 45.0),
    (ProblemKind.MIN, {"lead_gamma": -126.24434567275918}, 5.0),
    (ProblemKind.MIN, {"target": ParetoPoint(0.5, 1.2, 2.2), "sigma": 2, "grow_eta": 1.026,
                       "grow_gamma": 1.053, "lead_eta": -8.46, "lead_gamma": -27.1,
                       "tilde_1": 32.8, "tilde_2": 17.8}, 31.6),
])
def test_construct_is_the_reference_on_doctored_frames(kind, change, prediction):
    if kind.is_max:
        target = ParetoPoint(0.5, 1.5, 2.6)
    else:
        target = target_point(0.5, FrontierSpec(BOUNDS, 10, kind))
    frame = _frame(target, BOUNDS, 10, kind)._replace(**change)
    got = _built(_construct, prediction, frame, BOUNDS, 10, kind)
    assert got == _built(construct_reference, prediction, frame, BOUNDS, 10, kind)
