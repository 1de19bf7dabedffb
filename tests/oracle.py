"""Reference implementations the library is checked against.

``ota_total`` is the per-run replay oracle for the batched kernel
``ksearch.core.ota_totals``: it replays one schedule on one price sequence
the plain way, one selection at a time, and adds the total with the numpy
reductions the kernel uses, so the kernel's totals must equal it bit for bit.

``design_for_target`` designs at an explicit (eta, gamma) target with a
freshly solved frame: the cache-free reference for ``ksearch.design``.

``construct_reference`` is the case I-VI construction written the plain
way: each threshold from its own closure call, the min-search m* and the
i* scans as Python loops over every index (the i* one with a running
sum), and ``verify_reference`` checking the eta-covered intervals one by
one; ``ThresholdSchedule``'s band and monotone check rejects a schedule
that leaves the band or turns.
``ksearch.augmented._construct`` builds each piece in one pass and stops
its index searches where their answers are, with the same float
operations in the same order, so its designs, indices and failures must
equal this one's bit for bit.

``interval_ratios_reference`` gives each interval's worst-case ratio from
the thresholds alone, one interval at a time in Python floats: the
independent reference for ``ksearch.interval_ratios``, which must equal it
bit for bit, and the ratios ``verify_reference`` checks.
``exact_interval_ratios`` gives the same ratios as ``Fraction``s, exactly,
which the float ones are judged against.  ``schedule_check_reference`` is
``ThresholdSchedule``'s order and band check on the tuple of Python floats,
as it was made before the schedule held a float64 array; the array's check
must give the same message for every input.

``sigma_star_reference`` is the sigma* scan of either kind the plain way:
from sigma = k down, each junction ratio tested against gamma plus its
own ``_junction_slack``.  ``ksearch.augmented.sigma_star`` skips the
slack where the ratio cannot pass, and must return the same sigma or raise
the same error.

``solve_cr_reference`` solves each kind's worst-case balance spelled out
on its own, max-search's (a - 1)(1 + a/k)^k = theta - 1 and min-search's
(1 - 1/p)(1 + 1/(kp))^k = 1 - 1/theta, by plain bisection.
``ksearch.worstcase.solve_cr`` solves the one balance of
``ProblemKind.spread`` and ``ProblemKind.growth``, and must return the same
root bit for bit or raise the same class of error.

``balance_root_reference`` is the true root of the same balance, to 60
digits: a ``decimal`` bisection, which the float roots are judged against.

``lower_bound_reference`` is ``pareto.lower_bound``'s Gamma (max) or
Lambda (min) to 60 digits: the module's formulas in ``decimal``, at the
float's own sweep count and unclamped, which the float bound is judged
against.

``harden_reference`` is the sweep's tail hardening one window at a time,
from the public API: its own ``Generator(Philox(key)).random()`` draw per
window and its own tail.  ``run_sweep`` hardens inside its cell groups, from
one batch of draws, and must pick and build the same windows.

``adjust_error_reference`` is the error dial of one window in Python
floats; ``ksearch.adjust_error`` dials a whole stream in one numpy pass and
must give the same predictions bit for bit.
"""

import decimal
import itertools
import math
from fractions import Fraction

import numpy as np

from ksearch import (
    AugmentedDesign,
    ConstructionError,
    InvalidInputError,
    ParetoPoint,
    PriceBounds,
    ProblemKind,
    ThresholdSchedule,
    WindowStream,
)
from ksearch.augmented import (
    _RATIO_TOL,
    _SCAN_SLACK,
    _construct,
    _degenerate,
    _Frame,
    _frame,
    _junction_slack,
    _prefix_length,
    _ratio_at,
    _snap_prediction,
)
from ksearch.core import left_sum
from ksearch.pareto import FrontierSpec, _checked_gamma, _sweep_count


def design_for_target(
    prediction: float, target: ParetoPoint, bounds: PriceBounds, k: int, kind: ProblemKind
) -> AugmentedDesign:
    """Build and verify the schedule of either kind for an explicit (eta, gamma)."""
    prediction = _snap_prediction(prediction, bounds)
    return _construct(prediction, _frame(target, bounds, k, kind), bounds, k, kind)


def sigma_star_reference(
    target: ParetoPoint, bounds: PriceBounds, k: int, kind: ProblemKind
) -> int:
    """The largest sigma in 1..k whose block/tail junction ratio stays at or
    below gamma plus the junction slack, scanned from sigma = k down."""
    eta, gamma = target.eta, target.gamma
    theta = bounds.theta
    for sigma in range(k, 0, -1):
        if kind.is_max:
            ratio = (
                eta
                * (1.0 + (theta - 1.0) / (1.0 + gamma / k) ** (k - sigma))
                / (1.0 + (eta - 1.0) * (1.0 + eta / k) ** sigma)
            )
        else:
            # both differences rewritten through expm1, as sigma_star does
            grow_eta = math.expm1(sigma * math.log1p(1.0 / (eta * k)))
            decay = -(k - sigma) * math.log1p(1.0 / (gamma * k))
            numer = 1.0 / eta - (1.0 - 1.0 / eta) * grow_eta
            denom = -math.expm1(decay) + math.exp(decay) / theta
            ratio = eta * numer / denom
        if ratio <= gamma + _junction_slack(gamma, k, sigma):
            return sigma
    raise ConstructionError(
        f"no feasible consistency block: target eta={eta}, gamma={gamma} "
        f"is below the achievable frontier"
    )


def construct_reference(
    prediction: float, frame: _Frame, bounds: PriceBounds, k: int, kind: ProblemKind
) -> AugmentedDesign:
    """The case I-VI schedule of one frame at a snapped prediction, verified,
    built one threshold at a time."""
    p_min, p_max = bounds.p_min, bounds.p_max
    target = frame.target
    eta, gamma = target.eta, target.gamma
    is_max = kind.is_max
    labels = ("I", "II", "III") if is_max else ("IV", "V", "VI")
    near, far = (p_min, p_max) if is_max else (p_max, p_min)

    if _degenerate(bounds):
        schedule = ThresholdSchedule(kind, (near,) * k, bounds)
        return verify_reference(
            AugmentedDesign(schedule, labels[0], 0, 0, k, k, near, near, target, prediction)
        )

    sigma, tilde_1, tilde_2 = frame.sigma, frame.tilde_1, frame.tilde_2
    grow_eta, grow_gamma = frame.grow_eta, frame.grow_gamma
    lead_eta, lead_gamma = frame.lead_eta, frame.lead_gamma

    def tail(i: int) -> float:
        # reserve thresholds so interval ratios decay onto gamma at the far end;
        # a power that overflows puts the threshold at the near end
        try:
            return near + (far - near) / grow_gamma ** (k - i + 1)
        except OverflowError:
            return near

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

    try:
        schedule = ThresholdSchedule(kind, tuple(values), bounds)
    except InvalidInputError as exc:  # the construction's fault, not the caller's
        raise ConstructionError(f"designed {exc}") from exc
    return verify_reference(
        AugmentedDesign(
            schedule, label, j_star, m_star, i_star, sigma, tilde_1, tilde_2, target, prediction
        )
    )


def verify_reference(design: AugmentedDesign) -> AugmentedDesign:
    """Re-check both guarantees on the finished schedule, one covered interval at a time.

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
    ratios = interval_ratios_reference(design.schedule)
    worst = max(ratios)
    if worst > gamma_cap:
        raise ConstructionError(
            f"robustness violated: max ratio {worst} > gamma {target.gamma} "
            f"(case {design.case_label}, P={design.prediction})"
        )
    at_prediction = _ratio_at(design.schedule, design.prediction)
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


def interval_ratios_reference(schedule: ThresholdSchedule, number=float) -> list:
    """Each of the k + 1 price intervals' worst-case ratio, from the
    thresholds alone: an adversary stops prices just short of threshold i,
    so the search banks thresholds 1 .. i - 1 and fills the rest at the
    band's worst price, while the optimum takes k prices at threshold i
    (the band's far end for interval k + 1).  Every threshold and band end
    is taken as ``number`` of its float, and the arithmetic is that type's."""
    kind, values, bounds, k = schedule.kind, schedule.values, schedule.bounds, schedule.k
    is_max = kind is ProblemKind.MAX
    ends = [number(v) for v in (*values, bounds.p_max if is_max else bounds.p_min)]
    banked = itertools.accumulate(ends[:k], initial=number(0))
    worst = number(bounds.p_min if is_max else bounds.p_max)
    ratios = []
    for i, (end, bank) in enumerate(zip(ends, banked)):
        online = bank + (k - i) * worst
        ratios.append(k * end / online if is_max else online / (k * end))
    return ratios


def exact_interval_ratios(schedule: ThresholdSchedule) -> list[Fraction]:
    """``interval_ratios_reference`` in exact arithmetic: each ratio of the
    thresholds' ``Fraction``s, with every sum, product and quotient exact."""
    return interval_ratios_reference(schedule, Fraction)


def schedule_check_reference(kind: ProblemKind, values: tuple, bounds: PriceBounds):
    """The message of the InvalidInputError that ``ThresholdSchedule``'s
    order and band checks raise for a tuple of Python floats, or None if
    both pass: the order by Python comparisons of neighbours (a NaN is
    never in order), then the band at the two ends."""
    if not values:
        return "schedule needs at least one threshold"
    is_max = kind is ProblemKind.MAX
    if not all(a <= b if is_max else a >= b for a, b in zip(values, values[1:])):
        return f"thresholds not monotone for {kind}"
    lo, hi = (values[0], values[-1]) if is_max else (values[-1], values[0])
    if not (lo >= bounds.p_min and hi <= bounds.p_max):
        return (f"thresholds span [{lo}, {hi}], outside bounds "
                f"[{bounds.p_min}, {bounds.p_max}]")
    return None


def _bisect_reference(f, lo: float, hi: float) -> float:
    """Root of a sign-changing f on [lo, hi]: halve for at most 200 steps,
    or until the bracket is within 1e-15 of its upper end (or of 1)."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not flo * fhi < 0:
        raise ConstructionError(f"bisection bracket [{lo}, {hi}] does not straddle the root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def solve_cr_reference(bounds: PriceBounds, k: int, kind: ProblemKind) -> float:
    """alpha* (max) or phi* (min), each from its own balance function."""
    theta = bounds.theta
    if theta == 1.0:
        return 1.0
    if kind is ProblemKind.MAX:

        def f(a: float) -> float:
            try:
                return (a - 1.0) * (1.0 + a / k) ** k - (theta - 1.0)
            except OverflowError:  # far above the root
                return math.inf

        name, scale = "alpha*", max(1.0, theta - 1.0)
    else:
        target = 1.0 - 1.0 / theta

        def f(p: float) -> float:
            return (1.0 - 1.0 / p) * (1.0 + 1.0 / (k * p)) ** k - target

        name, scale = "phi*", 1.0
    lo = 1.0 + 1e-12  # a root under it is bracketed from 1
    root = _bisect_reference(f, 1.0, lo) if f(lo) > 0.0 else _bisect_reference(f, lo, theta)
    residual = abs(f(root))
    if not residual < 1e-10 * scale:
        raise ConstructionError(f"{name}={root} leaves balance residual {residual}")
    return root


def balance_root_reference(theta: float, k: int, kind: ProblemKind) -> decimal.Decimal:
    """The worst-case ratio at fluctuation ratio theta and budget k, to 60
    digits: the root of max-search's (a - 1)(1 + a/k)^k = theta - 1 or
    min-search's (1 - 1/p)(1 + 1/(kp))^k = 1 - 1/theta, by 190 halvings of
    [1, theta] in 60-digit ``decimal`` arithmetic.  Both left sides
    increase in the ratio, so the midpoint of the last bracket is within
    theta * 2^-191 of the root (under 1e-51 for theta up to 1e6)."""
    with decimal.localcontext(decimal.Context(prec=60)):
        one, theta, k = decimal.Decimal(1), decimal.Decimal(theta), decimal.Decimal(k)
        if kind is ProblemKind.MAX:
            def balance(a):
                return (a - one) * (one + a / k) ** k - (theta - one)
        else:
            def balance(p):
                return (one - one / p) * (one + one / (k * p)) ** k - (one - one / theta)
        lo, hi = one, theta
        for _ in range(190):
            mid = (lo + hi) / 2
            if balance(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def lower_bound_reference(gamma: float, spec: FrontierSpec) -> decimal.Decimal:
    """Gamma(gamma) = theta / ([1 + (gamma-1)(1+gamma/k)^xi]/gamma + (theta-1)(1 - xi/k))
    for max-search, or Lambda(gamma) = theta[gamma - (gamma-1)(1+1/(gamma k))^zeta]
    - (theta-1)(1 - zeta/k) for min-search, in 60-digit ``decimal`` from
    the float gamma (snapped onto [cr*, theta] as ``lower_bound`` snaps it)
    and the float theta, at ``_sweep_count``'s xi* or zeta*, and not
    clamped to [1, cr*]."""
    gamma, count = _checked_gamma(gamma, spec), _sweep_count(gamma, spec)
    if spec.theta == 1.0:
        return decimal.Decimal(1)
    with decimal.localcontext(decimal.Context(prec=60)):
        one, g = decimal.Decimal(1), decimal.Decimal(gamma)
        theta, k = decimal.Decimal(spec.theta), decimal.Decimal(spec.k)
        unswept = (theta - one) * (one - count / k)
        if spec.kind is ProblemKind.MAX:
            return theta / ((one + (g - one) * (one + g / k) ** count) / g + unswept)
        return theta * (g - (g - one) * (one + one / (g * k)) ** count) - unswept


def ota_total(schedule: ThresholdSchedule, prices: np.ndarray) -> tuple[float, int]:
    """Total value and voluntary-selection count of a run, without the trace.

    Equivalent to ``run_ota`` (property-tested) but skips per-step Python
    objects: voluntary selection times are found by jump-scanning for the
    next qualifying price, then the earliest step where the compulsory rule
    fires is located on the resulting selection-count staircase.
    """
    arr = np.asarray(prices, dtype=float)
    vals = np.asarray(schedule.values, dtype=float)
    if not schedule.kind.is_max:
        # min-search is max-search on negated prices/thresholds
        arr, vals = -arr, -vals
    T = arr.shape[0]
    k = vals.shape[0]
    if T < k:
        raise InvalidInputError(f"horizon {T} shorter than budget {k}")

    sel_times: list[int] = []
    t = 0
    for m in range(k):
        if t >= T:
            break
        hits = arr[t:] >= vals[m]
        j = int(hits.argmax())
        if not hits[j]:
            break
        t += j
        sel_times.append(t)
        t += 1

    n_vol = len(sel_times)
    comp_start = -1
    m_before = 0
    for m in range(n_vol + 1):
        tc = T - k + m
        if tc >= T:
            break
        lo = sel_times[m - 1] + 1 if m > 0 else 0
        hi = sel_times[m] if m < n_vol else T - 1
        if lo <= tc <= hi:
            comp_start = tc
            m_before = m
            break

    if comp_start < 0:
        if n_vol != k:
            raise ConstructionError(
                f"replay ended with {n_vol} of {k} selections and no compulsory fill"
            )
        total = float(arr[sel_times].sum())
        voluntary = k
    else:
        total = float(arr[sel_times[:m_before]].sum() + arr[comp_start:].sum())
        voluntary = m_before
    if not schedule.kind.is_max:
        total = -total
    return total, voluntary


def harden_reference(stream: WindowStream, rho: float, seed: int):
    """The stream's windows laid end to end as a stream of their own, with
    window i hardened where the uniform draw of the Philox stream keyed by
    seed * 2^20 + i + 2^63 falls below rho: its last k prices become p_min
    for max-search and p_max for min-search, and it keeps its prediction."""
    rows = stream.rows().copy()
    tail = stream.bounds.p_min if stream.kind.is_max else stream.bounds.p_max
    for i, row in enumerate(rows):
        draw = np.random.Generator(np.random.Philox(seed * 2**20 + i + 2**63)).random()
        if draw < rho:
            row[-stream.k:] = tail
    return WindowStream(rows.ravel(), np.arange(len(rows)) * stream.horizon, stream.horizon,
                        stream.k, stream.bounds, stream.predictions, stream.kind)


def adjust_error_reference(prices, prediction: float, level: float, kind: ProblemKind,
                           bounds: PriceBounds) -> float:
    """One window's prediction with its error scaled to ``level``: with the
    window's actual extreme, actual + level * (prediction - actual), clipped
    to the band."""
    actual = float(max(prices) if kind.is_max else min(prices))
    return bounds.clip(actual + level * (prediction - actual))
