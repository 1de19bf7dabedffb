"""Prediction-augmented threshold designs for k-max and k-min search.

Given a target consistency/robustness pair (eta, gamma) and a predicted
extreme price P, the schedule is stitched together from up to three pieces:

- a robustness prefix ``z`` of gamma-balanced thresholds covering prices far
  below (max) / above (min) the prediction, so a wildly wrong prediction
  cannot cost more than gamma;
- a consistency block ``c`` around the prediction — a flat run at P followed
  by a pivot and an eta-balanced geometric continuation — which keeps the
  ratio at eta whenever the prediction is accurate;
- a robustness tail ``r`` of thresholds reserved for prices beyond the
  consistency region, shaped so every remaining interval ratio stays at or
  below gamma.

Which pieces appear depends on where P falls relative to the two boundary
prices p~1 (end of the flat-free region) and p~2 (where the robustness
prefix becomes necessary): cases I/II/III for max-search and IV/V/VI for
min-search.

Both kinds share one construction skeleton, and ``ProblemKind`` holds what
differs in it.  Every threshold has the form ``near + lead * growth**n``,
where ``near`` is ``kind.near`` (p_min for max-search, p_max for
min-search), the rate is ``kind.growth`` at gamma or eta and the lead is
``sign * near * spread``: the prefix grows at the gamma rate, the block
past the pivot at the eta rate, and the tail closes onto ``kind.far`` at
the gamma rate.  Ratios come from ``kind.ratio``, and the pivot check and
clamp compare signed prices.  Only the case boundaries (a prediction on
one takes the near-side case for max-search, the far-side one for
min-search), p~2, the pivot formula, the flat-block end m*, j*'s least
count and the robustness test of the i* scan keep a branch per kind, as
their formulas differ.  Every constructed
schedule is re-verified numerically; a verification failure raises
ConstructionError and indicates an infeasible target rather than a
tolerable degradation.

A design splits into a frame and the prediction's part.  The frame (the
target, sigma*, the growth rates and leads, p~1 and p~2) depends only on
(lambda, band, k, kind); ``design`` keeps frames in a cache of 2,048,
which holds a sweep of 1,408 (2 kinds x 16 bands x 4 k x 11 lambda, as
perfbench's design-grid).  A frame that fails is kept as its
ConstructionError's message, and every call at it raises a new error
with that message, so a failing sigma* scan runs once too.  Per call
``design`` builds the thresholds of any case in one float64 array of k
entries from list comprehensions over powers taken with Python ``**``.
Case I/IV makes it from its two pieces by one ``np.fromiter``; cases
II/III and V/VI write each piece that is not empty into it by one
assignment: the prefix, the flat block (one fill) and the eta
continuation.  The i* scan reads its running sums from one
``np.add.accumulate`` over that array, which adds left to right as
``left_sum`` does, and writes the tail it keeps into the same array.
``ThresholdSchedule`` copies the array once, and ``_verify`` checks the
copy from one set of left sums.  The three index searches stop where
their answers are: sigma* tests the junction slack only where the ratio
could pass, min-search m* steps from its closed-form crossing to the
first m that passes, and the i* scan runs down from k, taking each tail
threshold when it gets there.  All of it uses the float operations of a
threshold-at-a-time loop, in its order.
The tests hold that loop as ``construct_reference`` and the sigma* scan
as ``sigma_star_reference``, and require every design and failure to
equal theirs bit for bit.

``_construct_grid`` builds the designs of a tuple of confidences at each
of several predictions as one (P·R, k) array, for the learner, which
needs its whole grid at every window and designs the new predictions of
a replay block together.  Per (confidences, band, k, kind) it caches the
frames' powers of both growth rates, taken with Python ``**``, the logs
of the gamma rates, taken with ``math.log1p``, and the case I/IV
thresholds, the prefix with its left sums, and the tail that they fix;
per call it builds every row's j* (its numerator's log from
``math.log``), flat block, pivot and i* scan and applies every check of
``_construct`` and ``_verify`` to all rows at once.  It raises wherever
one of the designs would fail; ``design`` stays the single path and the
reference its rows are tested against bit for bit.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ParetoPoint, PriceBounds, ProblemKind, ThresholdSchedule, _instance, _integer, _real, _unit,
    left_sum,
)
from .errors import ConstructionError, InvalidInputError
from .pareto import _CUT_EPS, FrontierSpec, target_point

_RATIO_TOL = 1e-9
# scan conditions hold with exact equality at balanced endpoints (lambda=1),
# so comparisons carry a hair of relative slack
_SCAN_SLACK = 1e-9


# --------------------------------------------------------------------------
# per-interval worst-case ratios


def interval_ratios(schedule: ThresholdSchedule) -> np.ndarray:
    """All k+1 per-interval worst-case ratios of a schedule, in one sweep.

    Entry i-1 is price interval i: an adversary that sweeps prices to just
    below threshold i makes the algorithm bank thresholds 1..i-1 plus
    compulsory fills at the far bound, while the optimum collects k prices
    at the interval's other end.
    """
    _instance("schedule", schedule, ThresholdSchedule)
    return _banked_ratios(schedule)[1]


def _banked_ratios(schedule: ThresholdSchedule) -> tuple[np.ndarray, np.ndarray]:
    """The left sums of the first 0..k thresholds, added as ``left_sum``
    adds them, and ``interval_ratios``, from the schedule's float64 array."""
    k, bounds, kind, values = schedule.k, schedule.bounds, schedule.kind, schedule._array
    banked = np.zeros(k + 1)
    np.add.accumulate(values, out=banked[1:])  # np.cumsum without its Python wrapper
    optimum = np.empty(k + 1)
    np.multiply(values, k, out=optimum[:k])
    optimum[k] = k * kind.far(bounds)  # interval k + 1 ends far
    return banked, kind.ratio(banked + np.arange(k, -1, -1) * kind.near(bounds), optimum)


def prediction_ratio(schedule: ThresholdSchedule, prediction: float) -> float:
    """Worst-case ratio over instances whose true extreme equals the prediction.

    The binding adversary triggers every threshold the predicted price can
    reach (banking exactly the threshold values), then offers the extreme k
    times so the optimum collects k*P while the algorithm declines, and
    finally forces compulsory fills at the far bound.  This is the quantity
    the consistency guarantee bounds by eta.
    """
    _instance("schedule", schedule, ThresholdSchedule)
    return _ratio_at(schedule, _snap_prediction(_real("prediction", prediction), schedule.bounds))


def _ratio_at(schedule: ThresholdSchedule, prediction: float) -> float:
    """prediction_ratio at a prediction already snapped into the band."""
    k, values, kind, sign = schedule.k, schedule.values, schedule.kind, schedule.kind.sign
    # the signed thresholds ascend: count the leading ones P reaches
    reached = bisect.bisect_right(values, sign * prediction, key=sign.__mul__)
    total = left_sum(values[:reached]) + (k - reached) * kind.near(schedule.bounds)
    return kind.ratio(total, k * prediction)


# --------------------------------------------------------------------------
# design containers and shared helpers


@dataclass(frozen=True)
class AugmentedDesign:
    """A designed schedule plus the structural indices that shaped it."""

    schedule: ThresholdSchedule
    case_label: str
    j_star: int
    m_star: int
    i_star: int
    sigma_star: int
    p_tilde_1: float
    p_tilde_2: float
    target: ParetoPoint
    prediction: float

    def __post_init__(self):
        k = self.schedule.k
        if not 0 <= self.j_star <= self.m_star <= self.i_star <= k:
            raise InvalidInputError(
                f"index chain violated: j*={self.j_star} m*={self.m_star} "
                f"i*={self.i_star} k={k}"
            )
        if self.case_label not in {"I", "II", "III", "IV", "V", "VI"}:
            raise InvalidInputError(f"unknown case label {self.case_label!r}")

    def segment_labels(self) -> tuple[str, ...]:
        """Per-threshold provenance: robustness prefix z, consistency block c, tail r."""
        labels = []
        for i in range(1, self.schedule.k + 1):
            if i <= self.j_star:
                labels.append("z")
            elif i <= self.i_star:
                labels.append("c")
            else:
                labels.append("r")
        return tuple(labels)


def _verify(design: AugmentedDesign) -> AugmentedDesign:
    """Re-check both guarantees on the finished schedule.

    Robustness: every interval ratio at most gamma.  Consistency: the
    accurate-prediction worst case at most eta, and the eta-balanced block
    (pivot through i*) individually at most eta.  One set of left sums,
    taken over the schedule's float64 array, serves both: the interval
    ratios' banked totals, and the accurate prediction's, which is
    ``_ratio_at``'s total bit for bit (``np.add.accumulate`` adds left to
    right, as ``left_sum`` does).  The covered intervals are tested by one
    mask, in which a NaN ratio is never over eta, as in a test one interval
    at a time.
    """
    target, schedule, prediction = design.target, design.schedule, design.prediction
    # nominal tolerance plus an ulp-scale cushion: summing k thresholds for a
    # ratio carries relative rounding noise, which matters when the margin is
    # an exact equality (e.g. degenerate spans where theta - 1 == _RATIO_TOL)
    gamma_cap = target.gamma + _RATIO_TOL + 1e-11 * target.gamma
    eta_cap = target.eta + _RATIO_TOL + 1e-11 * target.eta
    banked, ratios = _banked_ratios(schedule)
    worst = float(ratios.max())
    if worst > gamma_cap:
        raise ConstructionError(
            f"robustness violated: max ratio {worst} > gamma {target.gamma} "
            f"(case {design.case_label}, P={design.prediction})"
        )
    k, kind, sign = schedule.k, schedule.kind, schedule.kind.sign
    reached = bisect.bisect_right(schedule.values, sign * prediction, key=sign.__mul__)
    total = float(banked[reached]) + (k - reached) * kind.near(schedule.bounds)
    at_prediction = kind.ratio(total, k * prediction)
    if at_prediction > eta_cap:
        raise ConstructionError(
            f"consistency violated: accurate-prediction ratio {at_prediction} > "
            f"eta {target.eta} (case {design.case_label}, P={design.prediction})"
        )
    first = 1 if design.case_label in ("I", "IV") else design.m_star + 2
    over = ratios[first - 1 : design.i_star] > eta_cap
    if np.count_nonzero(over):
        i = first + int(over.argmax())
        raise ConstructionError(
            f"consistency violated on interval {i}: ratio {ratios[i - 1]} > "
            f"eta {target.eta} (case {design.case_label})"
        )
    return design


def _snap_prediction(prediction: float, bounds: PriceBounds) -> float:
    """Clamp roundoff-level boundary overshoot, up to 1e-12 of the band end
    overshot; reject anything larger."""
    if bounds.p_max < prediction <= bounds.p_max + 1e-12 * bounds.p_max:
        return bounds.p_max
    if bounds.p_min - 1e-12 * bounds.p_min <= prediction < bounds.p_min:
        return bounds.p_min
    if not bounds.contains(prediction):
        raise InvalidInputError(
            f"prediction {prediction} outside [{bounds.p_min}, {bounds.p_max}]"
        )
    return prediction


# --------------------------------------------------------------------------
# consistency block length sigma*


def _junction_cap(gamma: float) -> float:
    """The un-amplified allowance: ``_junction_slack`` at sigma = k, its bound elsewhere."""
    return min(gamma * 1e-11 + 1e-12, 8e-10)


def _junction_slack(gamma: float, k: int, sigma: int) -> float:
    """Float-noise allowance for the block/tail junction ratio test.

    Noise excess must be accepted (at k=1 every on-frontier target makes the
    junction test an exact equality) but genuine excess must not be: the
    balanced tail shape is a repelling fixed point, so a junction overshoot
    grows by up to ~exp(gamma*(k-sigma)/k) on its way to the sentinel.
    Dividing the allowance by that growth bound keeps whatever slips through
    below the 1e-9 guarantee tolerance even after amplification; the 8e-10
    cap keeps the un-amplified (sigma = k) pass-through below it too.
    """
    amp = math.exp(min(50.0, gamma * (k - sigma) / k))
    return _junction_cap(gamma) / amp


def sigma_star(target: ParetoPoint, bounds: PriceBounds, k: int, kind: ProblemKind) -> int:
    """Largest flat-free consistency block length compatible with gamma.

    sigma counts how many eta-balanced thresholds can precede the robustness
    tail; the tested quantity is exactly "the first tail ratio stays at or
    below gamma".
    """
    eta, gamma = target.eta, target.gamma
    theta = bounds.theta
    is_max = kind.is_max
    grow_eta, grow_gamma = kind.growth(eta, k), kind.growth(gamma, k)
    log_grow_eta, log_grow_gamma = kind.log_growth(eta, k), kind.log_growth(gamma, k)
    # the slack divides the cap by an exp >= 1, so a float ratio above
    # gamma + cap fails the junction test too: it pays no exp for its slack
    limit = gamma + _junction_cap(gamma)
    # top-down, not bisected: at lam = 1 the junction test ties at every sigma
    for sigma in range(k, 0, -1):
        if is_max:
            ratio = (eta * (1.0 + (theta - 1.0) / grow_gamma ** (k - sigma))
                     / (1.0 + (eta - 1.0) * grow_eta**sigma))
        else:
            # numer = 1 - (1-1/eta)*(1+1/(eta*k))**sigma and
            # denom = 1 - (1-1/theta)/(1+1/(gamma*k))**(k-sigma), each rewritten
            # so the subtraction happens between exactly-computed quantities
            # (both differences can be tiny relative to their operands).
            numer = 1.0 / eta - (1.0 - 1.0 / eta) * math.expm1(sigma * log_grow_eta)
            decay = -(k - sigma) * log_grow_gamma
            denom = -math.expm1(decay) + math.exp(decay) / theta
            ratio = eta * numer / denom
        if ratio <= limit and ratio <= gamma + _junction_slack(gamma, k, sigma):
            return sigma
    raise ConstructionError(
        f"no feasible consistency block: target eta={eta}, gamma={gamma} "
        f"is below the achievable frontier"
    )


# --------------------------------------------------------------------------
# the case I-VI construction


class _Frame(NamedTuple):
    """What a design needs besides the prediction: a function of (target, band, k, kind)."""

    target: ParetoPoint
    sigma: int
    grow_eta: float
    grow_gamma: float
    lead_eta: float
    lead_gamma: float
    tilde_1: float
    tilde_2: float


def _degenerate(bounds: PriceBounds) -> bool:
    # theta - 1 at or below the verification tolerance: every case boundary
    # collapses to within float noise, and the flat schedule already meets
    # every bound (no ratio can exceed theta)
    return bounds.p_max <= bounds.p_min * (1.0 + _RATIO_TOL)


def _frame(target: ParetoPoint, bounds: PriceBounds, k: int, kind: ProblemKind) -> _Frame:
    """Solve sigma* and the case boundaries of one target."""
    eta, gamma = target.eta, target.gamma
    near = kind.near(bounds)
    if _degenerate(bounds):
        return _Frame(target, k, 1.0, 1.0, 0.0, 0.0, near, near)
    # Min-search leads are negative: p_max + (-x) rounds exactly like
    # p_max - x, so both kinds share every threshold formula.
    sigma = sigma_star(target, bounds, k, kind)
    grow_eta, grow_gamma = kind.growth(eta, k), kind.growth(gamma, k)
    lead_eta = kind.sign * (near * kind.spread(eta))
    lead_gamma = kind.sign * (near * kind.spread(gamma))
    tilde_1 = near + lead_eta * grow_eta ** (sigma - 1)
    if kind.is_max:
        tilde_2 = max(tilde_1, gamma * bounds.p_min)
    else:
        tilde_2 = min(tilde_1, bounds.p_max / gamma)
    return _Frame(target, sigma, grow_eta, grow_gamma, lead_eta, lead_gamma, tilde_1, tilde_2)


def _construct(
    prediction: float, frame: _Frame, bounds: PriceBounds, k: int, kind: ProblemKind
) -> AugmentedDesign:
    """The case I-VI schedule of one frame at a snapped prediction, verified."""
    target = frame.target
    eta, gamma = target.eta, target.gamma
    is_max, sign = kind.is_max, kind.sign
    labels = ("I", "II", "III") if is_max else ("IV", "V", "VI")
    near, far = kind.near(bounds), kind.far(bounds)
    sigma, tilde_1, tilde_2 = frame.sigma, frame.tilde_1, frame.tilde_2
    grow_eta, grow_gamma = frame.grow_eta, frame.grow_gamma
    lead_eta, lead_gamma = frame.lead_eta, frame.lead_gamma
    # the tail threshold i is near + reach / grow_gamma**(k - i + 1): reserved
    # so the interval ratios decay onto gamma at the far end
    reach = far - near

    # a prediction on a case boundary takes the near-side case for
    # max-search and the far-side case for min-search; a degenerate band's
    # frame (sigma = k, lead 0, growth 1) makes case I/IV the flat schedule
    if _degenerate(bounds) or ((prediction <= tilde_1) if is_max else (prediction > tilde_1)):
        label, j_star, m_star, i_star = labels[0], 0, 0, sigma
        values = np.fromiter([near + lead_eta * grow_eta**n for n in range(sigma)]
                             + [near + reach / grow_gamma**n for n in range(k - sigma, 0, -1)],
                             float, k)
    else:
        values = np.empty(k)
        if (prediction <= tilde_2) if is_max else (prediction > tilde_2):
            label, j_star = labels[1], 0
        else:
            label, j_star = labels[2], _prefix_length(prediction, gamma, bounds, k, kind)
        prefix = [near + lead_gamma * grow_gamma**n for n in range(j_star)]
        prefix_sum = left_sum(prefix)
        if j_star:
            values[:j_star] = prefix
        # m*: the smallest flat-block end that lets the pivot reach P
        if is_max:
            if label == "II":
                span = k * prediction / eta - k * near
            else:
                # the display folds the prefix sum into closed form via the
                # extended z value at j*+1; both agree by the balancing identity
                z_next = near * (1.0 + (gamma - 1.0) * grow_gamma**j_star)
                span = k * prediction / eta - k * z_next / gamma
            m_star = j_star + math.ceil(span / (prediction - near))
            m_star = min(max(m_star, j_star), k)
        else:
            m_star = _min_flat_end(prediction, prefix_sum, eta, bounds, j_star, k)
            if m_star > k:
                raise ConstructionError(
                    f"no feasible flat block for eta={eta}, gamma={gamma}, P={prediction}"
                )

        flat_sum = prefix_sum + (m_star - j_star) * prediction + (k - m_star) * near
        pivot = eta * flat_sum / k if is_max else flat_sum / (eta * k)
        # signed, the pivot may fall short of P by float noise only
        if sign * pivot < sign * prediction * (1.0 - sign * 1e-9):
            moved = "fell below" if is_max else "rose above"
            raise ConstructionError(f"pivot {pivot} {moved} the prediction {prediction}")
        if sign * pivot < sign * prediction:
            pivot = prediction  # float noise on the near side of P

        # thresholds j*+1..k: the flat block at P, then the eta continuation
        rise = pivot - near
        if m_star > j_star:
            values[j_star:m_star] = prediction
        if m_star < k:
            values[m_star:] = [near + rise * grow_eta**n for n in range(k - m_star)]
        # the i* scan: the largest i in j*..k whose successor ratio (the
        # tail threshold i+1, or the far bound at i = k) still meets the
        # robustness budget with thresholds 1..i banked.  It runs down from
        # i = k and takes each tail threshold when it gets there, so the
        # thresholds it takes are the tail i*+1..k that the schedule keeps.
        # running[i - 1] is the left sum of thresholds 1..i, as left_sum adds
        # them: np.add.accumulate adds left to right.
        budget = gamma + _RATIO_TOL / 2
        running = np.add.accumulate(values)
        i_star, succ = k, far
        while True:
            banked = (running.item(i_star - 1) if i_star else 0.0) + (k - i_star) * near
            if (k * succ <= budget * banked) if is_max else (banked <= budget * k * succ):
                break
            if i_star == j_star:
                raise ConstructionError(
                    f"no feasible consistency endpoint for eta={eta}, gamma={gamma}, "
                    f"P={prediction}"
                )
            i_star -= 1
            succ = near + reach / grow_gamma ** (k - i_star)
            values[i_star] = succ
        m_star = min(m_star, i_star)

    try:
        schedule = ThresholdSchedule(kind, values, bounds)
    except InvalidInputError as exc:  # the construction's fault, not the caller's
        raise ConstructionError(f"designed {exc}") from exc
    return _verify(
        AugmentedDesign(
            schedule, label, j_star, m_star, i_star, sigma, tilde_1, tilde_2, target, prediction
        )
    )


def _prefix_length(
    prediction: float, gamma: float, bounds: PriceBounds, k: int, kind: ProblemKind
) -> int:
    """j*: how many gamma-balanced prefix thresholds precede the prediction."""
    ratio = kind.sign * (prediction / kind.near(bounds) - 1.0) / kind.spread(gamma)
    least = 1 if kind.is_max else 0
    if not least and ratio <= 1.0:
        return 0
    raw = math.log(ratio) / kind.log_growth(gamma, k)
    return min(k, max(least, math.ceil(raw - _CUT_EPS)))


def _min_flat_end(
    prediction: float, prefix_sum: float, eta: float, bounds: PriceBounds, j_star: int, k: int
) -> int:
    """Min-search m*: the first m in j*..k whose flat block lets the pivot
    reach P, or k + 1 if none does.

    The closed form for case V is division-degenerate at P = p_max, and the
    case VI display is garbled, so m* is the first m that passes the
    defining test ``lhs(m) <= bar`` itself.
    """
    p_max = bounds.p_max
    bar = eta * k * prediction * (1.0 + _SCAN_SLACK)

    def lhs(m: int) -> float:
        return prefix_sum + (m - j_star) * prediction + (k - m) * p_max

    m = j_star
    # Exactly, lhs falls by slope = p_max - P per step.  Each of its four
    # roundings errs by at most u = 2**-53 of its result: the two products
    # add up to at most size and each sum is at most size, so a float lhs
    # lies within 3u·size of the exact one and cannot rise from m to m + 1
    # while slope > 6u·size.  Past 2**-49·size = 16u·size the test fails up
    # to some m and passes from it on, so the first pass is bracketed from
    # the closed-form crossing and confirmed by the test itself: it passes
    # there and fails one step before.  Below that slope (P at or within a
    # few ulps of p_max) the float lhs may wobble, and m* is scanned for.
    size = abs(prefix_sum) + (k - j_star) * p_max
    slope = p_max - prediction
    if slope > 2.0**-49 * size:
        gap = (lhs(j_star) - bar) / slope
        if gap > 0.0:
            m += math.ceil(min(gap, k - j_star))
    while m <= k and not lhs(m) <= bar:
        m += 1
    while m > j_star and lhs(m - 1) <= bar:
        m -= 1
    return m


# --------------------------------------------------------------------------
# many confidences at many predictions


class _GridFrame(NamedTuple):
    """The frames of several confidences, one row each, and the schedule parts they fix.

    The powers ``grow ** n`` (n = 0..k) are taken with Python ``**`` (inf
    where one overflows, as no design reads it) and the logs with
    ``math.log1p``: numpy's ``power`` and ``log1p`` round some of them
    differently, and ``_construct`` is the reference for every bit.
    """

    sigma: np.ndarray  # (R,)
    tilde_1: np.ndarray  # (R,)
    tilde_2: np.ndarray  # (R,)
    eta: np.ndarray  # (R,)
    gamma: np.ndarray  # (R,)
    log_grow_gamma: np.ndarray  # (R,) the denominator of _prefix_length's j*
    pow_eta: np.ndarray  # (R, k+1) grow_eta ** n
    pow_gamma: np.ndarray  # (R, k+1) grow_gamma ** n
    head: np.ndarray  # (R, k) case I/IV thresholds, near + lead_eta * grow_eta**(i-1)
    prefix: np.ndarray  # (R, k) prefix thresholds, near + lead_gamma * grow_gamma**(i-1)
    prefix_sums: np.ndarray  # (R, k+1) left sums of the first j prefix thresholds
    succ: np.ndarray  # (R, k+1) tail(i+1) in column i < k, the far bound in column k


@functools.lru_cache(maxsize=16)
def _grid_frame(
    lams: tuple[float, ...], bounds: PriceBounds, k: int, kind: ProblemKind
) -> _GridFrame:
    frames = tuple(_frame_at(lam, bounds, k, kind) for lam in lams)
    near, far = kind.near(bounds), kind.far(bounds)
    pow_eta = np.array([_powers(f.grow_eta, k) for f in frames])
    pow_gamma = np.array([_powers(f.grow_gamma, k) for f in frames])
    lead_eta = np.array([[f.lead_eta] for f in frames])
    lead_gamma = np.array([[f.lead_gamma] for f in frames])
    gammas = [f.target.gamma for f in frames]
    with np.errstate(all="ignore"):  # overflow gives inf, as Python float arithmetic does
        head = near + lead_eta * pow_eta[:, :k]
        prefix = near + lead_gamma * pow_gamma[:, :k]
        prefix_sums = np.zeros((len(frames), k + 1))
        np.cumsum(prefix, axis=1, out=prefix_sums[:, 1:])
    succ = np.empty((len(frames), k + 1))
    succ[:, :k] = near + (far - near) / pow_gamma[:, k:0:-1]
    succ[:, k] = far
    return _GridFrame(
        np.array([f.sigma for f in frames]),
        np.array([f.tilde_1 for f in frames]),
        np.array([f.tilde_2 for f in frames]),
        np.array([f.target.eta for f in frames]),
        np.array(gammas),
        np.array([kind.log_growth(gamma, k) for gamma in gammas]),
        pow_eta, pow_gamma, head, prefix, prefix_sums, succ,
    )


def _powers(base: float, k: int) -> list[float]:
    """``base**n`` for n = 0..k, by Python ``**``, and inf from the first
    that overflows on: a growth rate is at least 1, so its powers ascend."""
    powers = []
    with contextlib.suppress(OverflowError):
        for n in range(k + 1):
            powers.append(base**n)
    return powers + [math.inf] * (k + 1 - len(powers))


def _construct_grid(
    predictions, lams: tuple[float, ...], bounds: PriceBounds, k: int, kind: ProblemKind
) -> np.ndarray:
    """The thresholds of ``design(P, lam, ...)`` for every snapped prediction P
    and every lam, as (P·R, k) rows: the R rows of each prediction in turn,
    each in ``lams`` order.

    Each row is built with the float operations of ``_construct`` in its
    order (sums run left to right through ``np.cumsum``, logs come from
    ``math``), and every check of ``_construct`` and ``_verify`` is applied
    to all rows.  Whenever one of the designs would fail, this raises, but
    its error need not be that design's: the caller reruns ``design`` for
    it.  It may also raise where every design succeeds (on an infinite
    power no design uses, say).
    """
    grid = _grid_frame(lams, bounds, k, kind)
    index = np.arange(k + 1)
    prediction = np.repeat(np.asarray(predictions, dtype=float), len(lams))
    frame = np.tile(np.arange(len(lams)), len(predictions))  # each row's grid row
    values, cut = grid.head[frame], grid.sigma[frame]  # thresholds past the cut are the tail's
    j_star, m_star = np.zeros(len(frame), dtype=int), np.zeros(len(frame), dtype=int)
    first_covered = np.ones(len(frame), dtype=int)
    if _degenerate(bounds):
        block_rows = index[:0]  # case I/IV with sigma = k: the flat schedule at the near bound
    else:
        tilde_1 = grid.tilde_1[frame]
        block_rows = np.flatnonzero(prediction > tilde_1 if kind.is_max else prediction <= tilde_1)
    with np.errstate(all="ignore"):  # overflow follows Python floats; NaN is rejected below
        if block_rows.size:
            (values[block_rows], cut[block_rows], j_star[block_rows],
             m_star[block_rows]) = _block_rows(
                prediction[block_rows], grid, frame[block_rows], bounds, k, kind)
            first_covered[block_rows] = m_star[block_rows] + 2
        values = np.where(index[1:] <= cut[:, None], values, grid.succ[frame, :k])
        if not ((values >= bounds.p_min) & (values <= bounds.p_max)).all():  # False for NaN
            raise ConstructionError("designed thresholds leave the band")
        if (kind.sign * np.diff(values, axis=1) < 0).any():
            raise ConstructionError("designed thresholds turn")
        if not ((0 <= j_star) & (j_star <= m_star) & (m_star <= cut) & (cut <= k)).all():
            raise ConstructionError("index chain violated")
        _verify_rows(values, prediction, grid, frame, first_covered, cut, bounds, k, kind)
    return values


def _block_rows(
    prediction: np.ndarray, grid: _GridFrame, rows: np.ndarray,
    bounds: PriceBounds, k: int, kind: ProblemKind,
):
    """Cases II/III (V/VI) of ``_construct``: one design per prediction, at
    the frame of its grid row in ``rows``.

    Returns the designs' consistency thresholds (valid through i*), i*, j*
    and m* (already capped at i*).
    """
    is_max, sign, near = kind.is_max, kind.sign, kind.near(bounds)
    index = np.arange(k + 1)
    eta, gamma, tilde_2 = grid.eta[rows], grid.gamma[rows], grid.tilde_2[rows]
    case_2 = prediction <= tilde_2 if is_max else prediction > tilde_2
    j_star = np.zeros(len(rows), dtype=int)
    past_2 = np.flatnonzero(~case_2)
    if past_2.size:
        j_star[past_2] = _prefix_lengths(
            prediction[past_2], gamma[past_2], grid.log_grow_gamma[rows[past_2]], bounds, k, kind)
    prefix_sum = grid.prefix_sums[rows, j_star]
    if is_max:
        z_next = near * (1.0 + (gamma - 1.0) * grid.pow_gamma[rows, j_star])
        span = np.where(case_2, k * prediction / eta - k * near,
                        k * prediction / eta - k * z_next / gamma)
        flat = np.ceil(span / (prediction - near))
        if not np.isfinite(flat).all():
            raise ConstructionError("flat block length is not finite")
        m_star = np.minimum(np.maximum(j_star + flat, j_star), k).astype(int)
    else:
        lhs = (prefix_sum[:, None] + (index - j_star[:, None]) * prediction[:, None]
               + (k - index) * near)
        allowed = (lhs <= (eta * k * prediction * (1.0 + _SCAN_SLACK))[:, None]) & (
            index >= j_star[:, None])
        if not allowed.any(axis=1).all():
            raise ConstructionError("no feasible flat block")
        m_star = allowed.argmax(axis=1)

    flat_sum = prefix_sum + (m_star - j_star) * prediction + (k - m_star) * near
    pivot = eta * flat_sum / k if is_max else flat_sum / (eta * k)
    if (sign * pivot < sign * prediction * (1.0 - sign * 1e-9)).any():
        raise ConstructionError(f"pivot {'fell below' if is_max else 'rose above'} the prediction")
    pivot = np.where(sign * pivot < sign * prediction, prediction, pivot)

    i = index[1:]
    block = near + (pivot - near)[:, None] * grid.pow_eta[
        rows[:, None], np.maximum(i - m_star[:, None] - 1, 0)]
    values = np.where(i <= j_star[:, None], grid.prefix[rows],
                      np.where(i <= m_star[:, None], prediction[:, None], block))
    # the i* scan: running[:, i] is the left sum of thresholds 1..i
    running = np.zeros((len(rows), k + 1))
    np.cumsum(values, axis=1, out=running[:, 1:])
    banked = running + (k - index) * near
    succ = grid.succ[rows]
    budget = (gamma + _RATIO_TOL / 2)[:, None]
    fits = k * succ <= budget * banked if is_max else banked <= budget * k * succ
    fits &= index >= j_star[:, None]
    if not fits.any(axis=1).all():
        raise ConstructionError("no feasible consistency endpoint")
    i_star = k - fits[:, ::-1].argmax(axis=1)
    return values, i_star, j_star, np.minimum(m_star, i_star)


def _prefix_lengths(
    prediction: np.ndarray, gamma: np.ndarray, log_grow_gamma: np.ndarray,
    bounds: PriceBounds, k: int, kind: ProblemKind,
) -> np.ndarray:
    """``_prefix_length`` at each prediction and gamma, with its logs from ``math``.

    Where ``_prefix_length`` would divide by zero or round an infinite or
    NaN j*, this raises too.
    """
    ratio = kind.sign * (prediction / kind.near(bounds) - 1.0) / kind.spread(gamma)
    least = 1 if kind.is_max else 0
    if not least:
        ratio = np.where(ratio <= 1.0, 1.0, ratio)  # j* = 0 there: log(1) = 0
    raw = np.array([math.log(x) for x in ratio.tolist()]) / log_grow_gamma
    if not np.isfinite(raw).all():
        raise ConstructionError("prefix length is not finite")
    return np.minimum(k, np.maximum(least, np.ceil(raw - _CUT_EPS))).astype(int)


def _verify_rows(
    values: np.ndarray, prediction: np.ndarray, grid: _GridFrame, rows: np.ndarray,
    first_covered: np.ndarray, i_star: np.ndarray,
    bounds: PriceBounds, k: int, kind: ProblemKind,
) -> None:
    """``_verify`` on every design, at its prediction and the frame of its
    grid row in ``rows``: the interval ratios as ``interval_ratios`` computes
    them, the accurate-prediction ratio, and the eta-covered intervals."""
    near, sign = kind.near(bounds), kind.sign
    gamma, eta = grid.gamma[rows], grid.eta[rows]
    gamma_cap = gamma + _RATIO_TOL + 1e-11 * gamma
    eta_cap = eta + _RATIO_TOL + 1e-11 * eta
    extended = np.empty((len(values), k + 1))
    extended[:, :k] = values
    extended[:, k] = kind.far(bounds)
    banked = np.zeros((len(values), k + 1))
    np.cumsum(values, axis=1, out=banked[:, 1:])
    ratios = kind.ratio(banked + (k - np.arange(k + 1)) * near, k * extended)
    reached = (sign * values <= sign * prediction[:, None]).sum(axis=1)
    total = banked[np.arange(len(values)), reached] + (k - reached) * near
    at_prediction = kind.ratio(total, k * prediction)
    if (ratios.max(axis=1) > gamma_cap).any():
        raise ConstructionError("robustness violated")
    if (at_prediction > eta_cap).any():
        raise ConstructionError("consistency violated")
    interval = np.arange(1, k + 2)
    covered = (interval >= first_covered[:, None]) & (interval <= i_star[:, None])
    if (covered & (ratios > eta_cap[:, None])).any():
        raise ConstructionError("consistency violated on a covered interval")


# --------------------------------------------------------------------------
# entry points


def design(
    prediction: float, lam: float, bounds: PriceBounds, k: int, kind: ProblemKind
) -> AugmentedDesign:
    """Design at the Pareto target implied by confidence lam (harness and CLI entry).

    The frame of (lam, bounds, k, kind), or the failure of building it,
    comes from a bounded cache, so a stream of predictions pays for sigma*
    once per confidence, whether the frame builds or not.  A
    ConstructionError raised here is the call's own and carries its kind,
    bounds, k, lam and snapped prediction, which reproduce it.  Arguments
    of the wrong type raise InvalidInputError, and a lam outside [0, 1]
    DomainError, before any cache is read.
    """
    _instance("kind", kind, ProblemKind)
    k = _integer("k", k, 1)
    _instance("bounds", bounds, PriceBounds)
    lam = _unit("confidence", lam)
    prediction = _snap_prediction(_real("prediction", prediction), bounds)  # before any solve
    try:
        return _construct(prediction, _frame_at(lam, bounds, k, kind), bounds, k, kind)
    except ConstructionError as exc:
        exc.kind, exc.bounds, exc.k, exc.lam, exc.prediction = kind, bounds, k, lam, prediction
        raise


def _frame_at(lam: float, bounds: PriceBounds, k: int, kind: ProblemKind) -> _Frame:
    frame = _frames(lam, bounds, k, kind)
    if isinstance(frame, str):  # each call gets its own error, to carry its own call
        raise ConstructionError(frame)
    return frame


@functools.lru_cache(maxsize=2048)
def _frames(lam: float, bounds: PriceBounds, k: int, kind: ProblemKind) -> _Frame | str:
    """The frame, or the message of the ConstructionError that building it
    raised: a kept exception would keep its traceback's frames alive."""
    try:
        return _frame(target_point(lam, _frontier(bounds, k, kind)), bounds, k, kind)
    except ConstructionError as exc:
        return str(exc)


@functools.lru_cache(maxsize=256)
def _frontier(bounds: PriceBounds, k: int, kind: ProblemKind) -> FrontierSpec:
    return FrontierSpec(bounds, k, kind)
