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

Both kinds share one construction skeleton.  Every threshold has the form
``near + lead * growth**n``, where ``near`` is the schedule's start sentinel
(p_min for max-search, p_max for min-search): the prefix grows at the gamma
rate, the block past the pivot at the eta rate, and the tail closes onto the
far sentinel at the gamma rate.  Only the growth rates and leads, the case
boundaries, the prefix length j*, the flat-block end m*, the pivot and the
robustness test of the i* scan differ between the kinds.  Every constructed
schedule is re-verified numerically; a verification failure raises
ConstructionError and indicates an infeasible target rather than a
tolerable degradation.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ParetoPoint, PriceBounds, ProblemKind, ThresholdSchedule, left_sum
from .errors import ConstructionError, InvalidInputError
from .pareto import FrontierSpec, target_point

_RATIO_TOL = 1e-9
# scan conditions hold with exact equality at balanced endpoints (lambda=1),
# so comparisons carry a hair of relative slack
_SCAN_SLACK = 1e-9

# Nudge for integer crossings that are analytically exact; must stay above
# float noise (~1e-13) but below genuine fractional parts near domain ends.
_CROSS_EPS = 1e-11


# --------------------------------------------------------------------------
# per-interval worst-case ratios


def interval_ratios(schedule: ThresholdSchedule) -> np.ndarray:
    """All k+1 per-interval worst-case ratios of a schedule, in one sweep.

    Entry i-1 is price interval i: an adversary that sweeps prices to just
    below threshold i makes the algorithm bank thresholds 1..i-1 plus
    compulsory fills at the far bound, while the optimum collects k prices
    at the interval's other end.
    """
    k = schedule.k
    values = np.asarray(schedule.values, dtype=float)
    extended = np.append(values, schedule.value_at(k + 1))
    banked = np.concatenate(([0.0], np.cumsum(values)))
    remaining = k - np.arange(k + 1)
    if schedule.kind.is_max:
        return k * extended / (banked + remaining * schedule.bounds.p_min)
    return (banked + remaining * schedule.bounds.p_max) / (k * extended)


def prediction_ratio(schedule: ThresholdSchedule, prediction: float) -> float:
    """Worst-case ratio over instances whose true extreme equals the prediction.

    The binding adversary triggers every threshold the predicted price can
    reach (banking exactly the threshold values), then offers the extreme k
    times so the optimum collects k*P while the algorithm declines, and
    finally forces compulsory fills at the far bound.  This is the quantity
    the consistency guarantee bounds by eta.
    """
    k = schedule.k
    bounds = schedule.bounds
    prediction = _snap_prediction(prediction, bounds)
    if schedule.kind.is_max:
        reached = bisect.bisect_right(schedule.values, prediction)
        banked = left_sum(schedule.values[:reached]) + (k - reached) * bounds.p_min
        return k * prediction / banked
    descending = [-v for v in schedule.values]
    reached = bisect.bisect_right(descending, -prediction)
    banked = left_sum(schedule.values[:reached]) + (k - reached) * bounds.p_max
    return banked / (k * prediction)


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


@functools.lru_cache(maxsize=256)
def _frontier(bounds: PriceBounds, k: int, kind: ProblemKind) -> FrontierSpec:
    return FrontierSpec(bounds, k, kind)


def _snap_monotone(values: list[float], ascending: bool, scale: float) -> list[float]:
    """Remove float-noise inversions; larger ones indicate a real bug."""
    out = list(values)
    for idx in range(1, len(out)):
        prev, cur = out[idx - 1], out[idx]
        bad = cur < prev if ascending else cur > prev
        if bad:
            if abs(cur - prev) > 1e-9 * scale:
                raise ConstructionError(
                    f"designed thresholds not monotone at index {idx + 1}: "
                    f"{prev} -> {cur}"
                )
            out[idx] = prev
    return out


def _verify(design: AugmentedDesign) -> AugmentedDesign:
    """Re-check both guarantees on the finished schedule.

    Robustness: every interval ratio at most gamma.  Consistency: the
    accurate-prediction worst case at most eta, and the eta-balanced block
    (pivot through i*) individually at most eta.
    """
    target = design.target
    # nominal tolerance plus an ulp-scale cushion: summing k thresholds for a
    # ratio carries relative rounding noise, which matters when the margin is
    # an exact equality (e.g. degenerate spans where theta - 1 == _RATIO_TOL)
    gamma_cap = target.gamma + _RATIO_TOL + 1e-11 * target.gamma
    eta_cap = target.eta + _RATIO_TOL + 1e-11 * target.eta
    ratios = interval_ratios(design.schedule)
    worst = float(ratios.max())
    if worst > gamma_cap:
        raise ConstructionError(
            f"robustness violated: max ratio {worst} > gamma {target.gamma} "
            f"(case {design.case_label}, P={design.prediction})"
        )
    at_prediction = prediction_ratio(design.schedule, design.prediction)
    if at_prediction > eta_cap:
        raise ConstructionError(
            f"consistency violated: accurate-prediction ratio {at_prediction} > "
            f"eta {target.eta} (case {design.case_label}, P={design.prediction})"
        )
    if design.case_label in ("I", "IV"):
        covering = range(1, design.i_star + 1)
    else:
        covering = range(design.m_star + 2, design.i_star + 1)
    for i in covering:
        if ratios[i - 1] > eta_cap:
            raise ConstructionError(
                f"consistency violated on interval {i}: ratio {ratios[i - 1]} > "
                f"eta {target.eta} (case {design.case_label})"
            )
    return design


def _snap_prediction(prediction: float, bounds: PriceBounds) -> float:
    """Clamp roundoff-level boundary overshoot; reject anything larger."""
    tol = 1e-12 * bounds.p_max
    if bounds.p_max < prediction <= bounds.p_max + tol:
        return bounds.p_max
    if bounds.p_min - tol <= prediction < bounds.p_min:
        return bounds.p_min
    if not bounds.contains(prediction):
        raise InvalidInputError(
            f"prediction {prediction} outside [{bounds.p_min}, {bounds.p_max}]"
        )
    return prediction


# --------------------------------------------------------------------------
# consistency block length sigma*


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
    return min(gamma * 1e-11 + 1e-12, 8e-10) / amp


def sigma_star_max(target: ParetoPoint, bounds: PriceBounds, k: int) -> int:
    """Largest flat-free consistency block length compatible with gamma.

    sigma counts how many eta-balanced thresholds can precede the robustness
    tail; the tested quantity is exactly "the first tail ratio stays at or
    below gamma".
    """
    eta, gamma = target.eta, target.gamma
    theta = bounds.theta
    for sigma in range(k, 0, -1):
        ratio = (
            eta
            * (1.0 + (theta - 1.0) / (1.0 + gamma / k) ** (k - sigma))
            / (1.0 + (eta - 1.0) * (1.0 + eta / k) ** sigma)
        )
        if ratio <= gamma + _junction_slack(gamma, k, sigma):
            return sigma
    raise ConstructionError(
        f"no feasible consistency block: target eta={eta}, gamma={gamma} "
        f"is below the achievable frontier"
    )


def sigma_star_min(target: ParetoPoint, bounds: PriceBounds, k: int) -> int:
    """Min-search mirror of sigma_star_max."""
    eta, gamma = target.eta, target.gamma
    theta = bounds.theta
    for sigma in range(k, 0, -1):
        # numer = 1 - (1-1/eta)*(1+1/(eta*k))**sigma and
        # denom = 1 - (1-1/theta)/(1+1/(gamma*k))**(k-sigma), each rewritten
        # so the subtraction happens between exactly-computed quantities
        # (both differences can be tiny relative to their operands).
        numer = 1.0 / eta - (1.0 - 1.0 / eta) * math.expm1(
            sigma * math.log1p(1.0 / (eta * k))
        )
        tail_decay = math.exp(-(k - sigma) * math.log1p(1.0 / (gamma * k)))
        denom = -math.expm1(-(k - sigma) * math.log1p(1.0 / (gamma * k))) + (
            tail_decay / theta
        )
        if eta * numer / denom <= gamma + _junction_slack(gamma, k, sigma):
            return sigma
    raise ConstructionError(
        f"no feasible consistency block: target eta={eta}, gamma={gamma} "
        f"is below the achievable frontier"
    )


# --------------------------------------------------------------------------
# the case I-VI construction


def design_for_target(
    prediction: float, target: ParetoPoint, bounds: PriceBounds, k: int, kind: ProblemKind
) -> AugmentedDesign:
    """Build and verify the schedule of either kind for an explicit (eta, gamma)."""
    prediction = _snap_prediction(prediction, bounds)
    p_min, p_max = bounds.p_min, bounds.p_max
    eta, gamma = target.eta, target.gamma
    is_max = kind.is_max
    labels = ("I", "II", "III") if is_max else ("IV", "V", "VI")
    near, far = (p_min, p_max) if is_max else (p_max, p_min)

    # Degenerate span: when theta - 1 is at or below the verification
    # tolerance every case boundary collapses to within float noise, and the
    # flat schedule already meets every bound (no ratio can exceed theta).
    if p_max <= p_min * (1.0 + _RATIO_TOL):
        schedule = ThresholdSchedule(kind, (near,) * k, bounds)
        return _verify(
            AugmentedDesign(schedule, labels[0], 0, 0, k, k, near, near, target, prediction)
        )

    # Min-search leads are negative: p_max + (-x) rounds exactly like
    # p_max - x, so both kinds share every threshold formula below.
    if is_max:
        sigma = sigma_star_max(target, bounds, k)
        grow_eta, grow_gamma = 1.0 + eta / k, 1.0 + gamma / k
        lead_eta, lead_gamma = p_min * (eta - 1.0), p_min * (gamma - 1.0)
    else:
        sigma = sigma_star_min(target, bounds, k)
        grow_eta, grow_gamma = 1.0 + 1.0 / (eta * k), 1.0 + 1.0 / (gamma * k)
        lead_eta = -(p_max * (1.0 - 1.0 / eta))
        lead_gamma = -(p_max * (1.0 - 1.0 / gamma))
    tilde_1 = near + lead_eta * grow_eta ** (sigma - 1)
    tilde_2 = max(tilde_1, gamma * p_min) if is_max else min(tilde_1, p_max / gamma)

    def tail(i: int) -> float:
        # reserve thresholds so interval ratios decay onto gamma at the far end
        return near + (far - near) / grow_gamma ** (k - i + 1)

    # a prediction on a case boundary takes the near-side case for
    # max-search and the far-side case for min-search
    if (prediction <= tilde_1) if is_max else (prediction > tilde_1):
        label, j_star, m_star, i_star = labels[0], 0, 0, sigma
        values = [near + lead_eta * grow_eta ** (i - 1) for i in range(1, sigma + 1)]
        values += [tail(i) for i in range(sigma + 1, k + 1)]
    else:
        if (prediction <= tilde_2) if is_max else (prediction > tilde_2):
            label, j_star = labels[1], 0
        else:
            label, j_star = labels[2], _prefix_length(prediction, gamma, bounds, k, kind)
        prefix = [near + lead_gamma * grow_gamma ** (i - 1) for i in range(1, j_star + 1)]
        prefix_sum = left_sum(prefix)
        # m*: the smallest flat-block end that lets the pivot reach P
        if is_max:
            if label == "II":
                span = k * prediction / eta - k * p_min
            else:
                # the display folds the prefix sum into closed form via the
                # extended z value at j*+1; both agree by the balancing identity
                z_next = p_min * (1.0 + (gamma - 1.0) * grow_gamma**j_star)
                span = k * prediction / eta - k * z_next / gamma
            m_star = j_star + math.ceil(span / (prediction - p_min))
            m_star = min(max(m_star, j_star), k)
        else:
            # the closed form for case V is division-degenerate at P=p_max,
            # and the case VI display is garbled, so min-search scans the
            # defining property
            m_star = -1
            for m in range(j_star, k + 1):
                lhs = prefix_sum + (m - j_star) * prediction + (k - m) * p_max
                if lhs <= eta * k * prediction * (1.0 + _SCAN_SLACK):
                    m_star = m
                    break
            if m_star < 0:
                raise ConstructionError(
                    f"no feasible flat block for eta={eta}, gamma={gamma}, P={prediction}"
                )

        flat_sum = prefix_sum + (m_star - j_star) * prediction + (k - m_star) * near
        if is_max:
            pivot = eta * flat_sum / k
            if pivot < prediction * (1.0 - 1e-9):
                raise ConstructionError(
                    f"pivot {pivot} fell below the prediction {prediction}"
                )
        else:
            pivot = flat_sum / (eta * k)
            if pivot > prediction * (1.0 + 1e-9):
                raise ConstructionError(
                    f"pivot {pivot} rose above the prediction {prediction}"
                )
        if (pivot < prediction) if is_max else (pivot > prediction):
            pivot = prediction  # float noise on the near side of P

        def block(i: int) -> float:
            if i <= m_star:
                return prediction
            return near + (pivot - near) * grow_eta ** (i - m_star - 1)

        # largest i whose successor ratio still meets the robustness budget
        budget = gamma + _RATIO_TOL / 2
        i_star = -1
        running = prefix_sum
        block_values: list[float] = []
        for i in range(j_star, k + 1):
            succ = far if i == k else tail(i + 1)
            banked = running + (k - i) * near
            fits = k * succ <= budget * banked if is_max else banked <= budget * k * succ
            if fits:
                i_star = i
            if i < k:
                nxt = block(i + 1)
                block_values.append(nxt)
                running += nxt
        if i_star < j_star:
            raise ConstructionError(
                f"no feasible consistency endpoint for eta={eta}, gamma={gamma}, "
                f"P={prediction}"
            )
        m_star = min(m_star, i_star)
        values = prefix + block_values[: i_star - j_star]
        values += [tail(i) for i in range(i_star + 1, k + 1)]

    clipped = [bounds.clip(v) for v in values]
    clipped = _snap_monotone(clipped, ascending=is_max, scale=p_max)
    schedule = ThresholdSchedule(kind, tuple(clipped), bounds)
    return _verify(
        AugmentedDesign(
            schedule, label, j_star, m_star, i_star, sigma, tilde_1, tilde_2, target, prediction
        )
    )


def _prefix_length(
    prediction: float, gamma: float, bounds: PriceBounds, k: int, kind: ProblemKind
) -> int:
    """j*: how many gamma-balanced prefix thresholds precede the prediction."""
    if kind.is_max:
        raw = math.log((prediction / bounds.p_min - 1.0) / (gamma - 1.0)) / math.log1p(
            gamma / k
        )
        return min(k, max(1, math.ceil(raw - _CROSS_EPS)))
    ratio = (1.0 - prediction / bounds.p_max) / (1.0 - 1.0 / gamma)
    if ratio <= 1.0:
        return 0
    raw = math.log(ratio) / math.log1p(1.0 / (gamma * k))
    return min(k, max(0, math.ceil(raw - _CROSS_EPS)))


# --------------------------------------------------------------------------
# entry points


def design(
    prediction: float, lam: float, bounds: PriceBounds, k: int, kind: ProblemKind
) -> AugmentedDesign:
    """Design at the Pareto target implied by confidence lam (harness and CLI entry)."""
    _snap_prediction(prediction, bounds)  # reject a bad prediction before solving
    target = target_point(lam, _frontier(bounds, k, kind))
    return design_for_target(prediction, target, bounds, k, kind)
