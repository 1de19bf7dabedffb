#!/usr/bin/env python3
"""Fingerprint every design result over a fixed set of points, one SHA-256 per section.

Run it on two checkouts and compare the digests: equal digests mean the
two trees give bit-identical designs (or identical failures) on every point::

    PYTHONPATH=src python3 scripts/design_identity.py [--dump DIR]

With ``--dump DIR`` it also writes one line per record to
``DIR/<section>.txt`` (spaces in the name become hyphens), in point order:
the record's index, its call's arguments, its outcome (``built``, or the
failure's class and message) and the SHA-256 of the record the section
digest hashes.  A tree's dump is about 20 MB, and one ``diff -r`` of two
trees' dumps names every point that moved.

Each ``design`` call's record is its threshold reprs, case label, j*, m*,
i*, sigma*, p~1, p~2, eta, gamma and prediction, and each failure's is its
class and message.  The sections are:

- ``design-grid``: the 12,672 points of perfbench's ``design-grid`` workload
  (kind x 16 theta x k in 1, 10, 100, 1000 x 11 lambda x 9 P);
- ``random``: 20,000 points from ``random.Random(20261017)``: theta =
  10^U(0,4), p_min = 10^U(-2,2), k = floor(10^U(0,3)), lambda uniform, on
  the learner's grid, 0 or 1, and P log-uniform in the band;
- ``design-grid rows`` and ``random rows``: the learner's grid thresholds
  (``learner._design_grids``) at each distinct (P, band, k, kind) of
  the section, or the failure with the call it carries;
- ``random blocks``: the learner's grid thresholds of 1,000 blocks, each of
  1-64 distinct predictions at one (band, k, kind), stacked, or the first
  failing prediction's failure.  The blocks take the first 1,000 (band, k,
  kind) of the ``random`` section, in order, and draw their predictions
  from ``random.Random(20261018)``, log-uniform in the band or at a bound;
- ``worst-case``: at each distinct (band, k, kind) of the ``design-grid``
  and ``random`` sections, in order, the solved cr, the
  ``worst_case_thresholds`` cr and values, and ``frontier_curve`` at 33
  points, each as its value or its failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import pathlib
import random

import numpy as np

from ksearch import augmented, learner, pareto, worstcase
from ksearch.core import PriceBounds, ProblemKind

SEED = 20261017
RANDOM_POINTS = 20_000
RANDOM_BLOCKS, BLOCK_SIZE = 1_000, 64


def design_grid_points():
    """The design-grid workload's points, in its order."""
    points = []
    for kind in (ProblemKind.MAX, ProblemKind.MIN):
        for theta in np.logspace(0.25, 4.0, 16):
            bounds = PriceBounds(1.0, float(theta))
            preds = [min(max(float(p), 1.0), bounds.p_max)
                     for p in np.logspace(0.0, math.log10(bounds.p_max), 9)]
            for k in (1, 10, 100, 1000):
                for i in range(11):
                    for prediction in preds:
                        points.append((kind, bounds, k, i / 10, prediction))
    return points


def random_points():
    rng = random.Random(SEED)
    points = []
    for _ in range(RANDOM_POINTS):
        kind = rng.choice((ProblemKind.MAX, ProblemKind.MIN))
        p_min = 10.0 ** rng.uniform(-2.0, 2.0)
        bounds = PriceBounds(p_min, p_min * 10.0 ** rng.uniform(0.0, 4.0))
        k = int(10.0 ** rng.uniform(0.0, 3.0))
        lam = rng.choice((rng.random(), rng.choice(learner.GRID), 0.0, 1.0))
        prediction = min(max(p_min * bounds.theta ** rng.random(), p_min), bounds.p_max)
        points.append((kind, bounds, k, lam, prediction))
    return points


def random_blocks():
    rng = random.Random(SEED + 1)
    blocks = []
    for kind, bounds, k, _, _ in random_points()[:RANDOM_BLOCKS]:
        draws = []
        for _ in range(rng.randint(1, BLOCK_SIZE)):
            spot = rng.choice((0.0, 1.0) + (rng.random(),) * 18)  # a bound one time in ten
            draws.append(min(max(bounds.p_min * bounds.theta ** spot, bounds.p_min), bounds.p_max))
        blocks.append((kind, bounds, k, *dict.fromkeys(draws)))
    return blocks


def _failure(exc, *carried) -> tuple[str, str]:
    """A failure's record, its class and message (and what it carries),
    with its outcome."""
    return repr((type(exc).__name__, str(exc), *carried)), f"{type(exc).__name__}: {exc}"


def design_record(kind, bounds, k, lam, prediction) -> tuple[str, str]:
    try:
        d = augmented.design(prediction, lam, bounds, k, kind)
    except Exception as exc:  # noqa: BLE001  (the points include failing inputs)
        return _failure(exc)
    return repr((d.schedule.values, d.case_label, d.j_star, d.m_star, d.i_star,
                 d.sigma_star, d.p_tilde_1, d.p_tilde_2, d.target.eta, d.target.gamma,
                 d.prediction)), "built"


def rows_record(kind, bounds, k, *predictions, raw=False) -> tuple[str, str]:
    """The stacked grid thresholds at the predictions, as their reprs or
    (raw) the SHA-256 of their bytes, or the failure with the call it carries."""
    try:
        rows = np.concatenate(learner._design_grids(list(predictions), bounds, k, kind))
    except Exception as exc:  # noqa: BLE001
        carried = (exc.kind, exc.bounds, exc.k, exc.lam, exc.prediction) \
            if hasattr(exc, "lam") else None
        return _failure(exc, carried)
    return hashlib.sha256(rows.tobytes()).hexdigest() if raw else repr(rows.tolist()), "built"


def _outcome(function, *args):
    """What a call returns, or the class and message of its failure, with
    the outcome: ``built`` or that class and message."""
    try:
        return function(*args), "built"
    except Exception as exc:  # noqa: BLE001  (the bands include failing inputs)
        return (type(exc).__name__, str(exc)), f"{type(exc).__name__}: {exc}"


def _worst_case(bounds, k, kind):
    solution = worstcase.worst_case_thresholds(bounds, k, kind)
    return solution.cr, solution.schedule.values


def worst_case_record(kind, bounds, k) -> tuple[str, str]:
    """The cr, the worst-case schedule and the 33-point frontier of one
    (band, k, kind), with the outcomes of the three."""
    parts = (_outcome(worstcase.solve_cr, bounds, k, kind), _outcome(_worst_case, bounds, k, kind),
             _outcome(lambda: pareto.frontier_curve(pareto.FrontierSpec(bounds, k, kind), 33)))
    return repr(tuple(value for value, _ in parts)), " | ".join(outcome for _, outcome in parts)


def _arguments(call) -> str:
    """A call's arguments, a kind as its value and a band as [p_min, p_max]."""
    return " ".join(arg.value if isinstance(arg, ProblemKind)
                    else f"[{arg.p_min!r}, {arg.p_max!r}]" if isinstance(arg, PriceBounds)
                    else repr(arg) for arg in call)


def report(name, calls, record, dump) -> None:
    """Print the section's digest, the SHA-256 of the records of its calls
    one a line; with a ``dump`` directory, write each record's index,
    arguments, outcome and SHA-256 there, one a line."""
    sha = hashlib.sha256()
    path = None if dump is None else dump / f"{name.replace(' ', '-')}.txt"
    with contextlib.nullcontext() if path is None else path.open("w") as out:
        for index, call in enumerate(calls):
            text, outcome = record(*call)
            sha.update(f"{text}\n".encode())
            if out is not None:
                digest = hashlib.sha256(text.encode()).hexdigest()
                out.write(f"{index}\t{_arguments(call)}\t{outcome}\t{digest}\n")
    print(f"{name}: {sha.hexdigest()}", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=pathlib.Path, metavar="DIR",
                        help="also write each section's records to DIR/<section>.txt")
    dump = parser.parse_args().dump
    if dump is not None:
        dump.mkdir(parents=True, exist_ok=True)
    sections = (("design-grid", design_grid_points()), ("random", random_points()))
    for name, points in sections:
        report(name, points, design_record, dump)
        calls = dict.fromkeys((kind, bounds, k, prediction)
                              for kind, bounds, k, _, prediction in points)
        report(f"{name} rows", calls, rows_record, dump)
    report("random blocks", random_blocks(), lambda *block: rows_record(*block, raw=True), dump)
    bands = dict.fromkeys((kind, bounds, k) for _, points in sections
                          for kind, bounds, k, _, _ in points)
    report("worst-case", bands, worst_case_record, dump)


if __name__ == "__main__":
    main()
