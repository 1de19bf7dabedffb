"""Shared hypothesis strategies for the test suite."""

import math

import hypothesis.strategies as st
import numpy as np

from ksearch import (
    KSearchError,
    PriceBounds,
    ProblemKind,
    SearchInstance,
    ThresholdSchedule,
    WindowStream,
    design,
)
from ksearch import augmented as augmented_mod
from ksearch import learner as learner_mod
from ksearch.learner import GRID

kinds = st.sampled_from([ProblemKind.MAX, ProblemKind.MIN])


@st.composite
def price_bounds(draw, max_theta=50.0):
    p_min = draw(st.floats(min_value=0.5, max_value=200.0))
    theta = draw(st.floats(min_value=1.0, max_value=max_theta))
    return PriceBounds(p_min, p_min * theta)


@st.composite
def schedule_and_instance(draw, max_k=6, max_horizon=40):
    """A consistent (schedule, instance, kind) triple sharing one bounds object."""
    kind = draw(kinds)
    bounds = draw(price_bounds())
    k = draw(st.integers(min_value=1, max_value=max_k))
    in_range = st.floats(min_value=bounds.p_min, max_value=bounds.p_max)
    raw = draw(st.lists(in_range, min_size=k, max_size=k))
    ordered = sorted(raw, reverse=not kind.is_max)
    schedule = ThresholdSchedule(kind, tuple(ordered), bounds)
    horizon = draw(st.integers(min_value=k, max_value=max_horizon))
    prices = draw(st.lists(in_range, min_size=horizon, max_size=horizon))
    instance = SearchInstance(tuple(prices), k, bounds)
    return schedule, instance, kind


def design_or_error(prediction, lam, bounds, k, kind):
    """The design, or the error it raises."""
    try:
        return design(prediction, lam, bounds, k, kind)
    except (KSearchError, ArithmeticError, ValueError) as error:
        return error


def _design_or_none(prediction, lam, bounds, k, kind):
    found = design_or_error(prediction, lam, bounds, k, kind)
    return None if isinstance(found, Exception) else found


def _i_star_step(lo, hi, lam, bounds, k, kind):
    """The last float in [lo, hi) with the i* of lo, if i* differs at hi
    (else lo): the predictions where the i* scan meets ties."""
    def i_star(prediction):
        found = _design_or_none(prediction, lam, bounds, k, kind)
        return None if found is None else found.i_star

    start = i_star(lo)
    if start is None or i_star(hi) in (None, start):
        return lo
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        if i_star(mid) == start:
            lo = mid
        else:
            hi = mid
    return lo


def band_prediction(spot, bounds, k, kind):
    """A prediction in the band: at p_min, at p_max, at a grid confidence's
    p~1 or p~2, at a fraction of the band in log space, or where that
    confidence's i* steps between two such fractions; then nudged by a few
    ulps, which at a bound overshoots it by as much as the design snaps."""
    where, g, low, high, ulps = spot
    lam = GRID[g]
    at = [bounds.p_min * bounds.theta**frac for frac in sorted((low, high))]
    at = [min(max(p, bounds.p_min), bounds.p_max) for p in at]
    prediction = at[0]
    if where == "p_min":
        prediction = bounds.p_min
    elif where == "p_max":
        prediction = bounds.p_max
    elif where in ("tilde_1", "tilde_2"):
        try:
            frame = augmented_mod._frame_at(lam, bounds, k, kind)
            prediction = min(max(getattr(frame, where), bounds.p_min), bounds.p_max)
        except (KSearchError, ArithmeticError):
            pass  # no frame at this lambda: keep the band fraction
    elif where == "i_star":
        prediction = _i_star_step(at[0], at[1], lam, bounds, k, kind)
    for _ in range(abs(ulps)):
        prediction = math.nextafter(prediction, math.copysign(math.inf, ulps))
    return prediction


def _spots(wheres, fractions, max_spots):
    return st.lists(st.tuples(
        st.sampled_from(wheres),
        st.integers(min_value=0, max_value=len(GRID) - 1),
        fractions,
        fractions,
        st.integers(min_value=-2, max_value=2),
    ), min_size=1, max_size=max_spots)


def band_cases(max_spots=60):
    """(kind, p_min, theta, k, spots), with ``band_prediction`` turning each
    spot into a prediction: any band with predictions all over it, or a
    min-search band where the designs at predictions near p_min mostly fail."""
    return st.one_of(
        st.tuples(
            st.sampled_from(list(ProblemKind)),
            st.floats(min_value=0.01, max_value=100.0),
            st.one_of(st.floats(min_value=0.0, max_value=5.0).map(lambda e: 10.0**e),
                      st.floats(min_value=0.0, max_value=1e-9).map(lambda d: 1.0 + d)),
            st.one_of(st.integers(min_value=1, max_value=12),
                      st.integers(min_value=13, max_value=300)),
            _spots(["p_min", "p_max", "tilde_1", "tilde_2", "inside", "i_star"],
                   st.floats(min_value=0.0, max_value=1.0), max_spots),
        ),
        st.tuples(
            st.just(ProblemKind.MIN),
            st.floats(min_value=0.01, max_value=100.0),
            st.floats(min_value=3.0, max_value=5.0).map(lambda e: 10.0**e),
            st.integers(min_value=20, max_value=300),
            _spots(["p_min", "inside"], st.floats(min_value=0.0, max_value=0.05), max_spots),
        ),
    )


def stream_of(windows, k, bounds, kind):
    """Hand-made ``(prices, prediction)`` windows of one horizon as one
    stream of the kind, laid end to end in a price array of their own."""
    windows = list(windows)
    horizon = len(windows[0][0]) if windows else 1
    assert all(len(prices) == horizon for prices, _ in windows)
    prices = np.concatenate([np.empty(0), *(prices for prices, _ in windows)])
    return WindowStream(prices, np.arange(len(windows)) * horizon, horizon, k, bounds,
                        [prediction for _, prediction in windows], kind)


def replay_ratios(stream, extra=()):
    """The learner's (W, G + E) ratio matrix of a stream: each window under
    every grid design, then each extra schedule, replayed as
    ``run_learning`` and ``evaluate_windows`` replay them."""
    return learner_mod._stream_ratios(stream, extra)
