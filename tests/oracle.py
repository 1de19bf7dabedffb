"""Reference implementations the library is checked against.

``ota_total`` is the per-run replay oracle for the batched kernel
``ksearch.core.ota_totals``: it replays one schedule on one price sequence
the plain way, one selection at a time, and adds the total with the numpy
reductions the kernel uses, so the kernel's totals must equal it bit for bit.

``design_for_target`` designs at an explicit (eta, gamma) target with a
freshly solved frame: the cache-free reference for ``ksearch.design``.
"""

import numpy as np

from ksearch import (
    AugmentedDesign,
    ConstructionError,
    InvalidInputError,
    ParetoPoint,
    PriceBounds,
    ProblemKind,
    ThresholdSchedule,
)
from ksearch.augmented import _construct, _frame, _snap_prediction


def design_for_target(
    prediction: float, target: ParetoPoint, bounds: PriceBounds, k: int, kind: ProblemKind
) -> AugmentedDesign:
    """Build and verify the schedule of either kind for an explicit (eta, gamma)."""
    prediction = _snap_prediction(prediction, bounds)
    return _construct(prediction, _frame(target, bounds, k, kind), bounds, k, kind)


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
