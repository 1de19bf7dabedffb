#!/usr/bin/env python3
"""Evaluate the policies over a window stream through the library's window API.

Cuts a seeded synthetic feed into overlapping windows (``sliding_windows``,
a ``WindowStream`` of offsets into the feed that carries its kind), scales their prediction error
(``adjust_error``), and prints each policy's mean ratio per error level
(``evaluate_windows``) and the confidence the learner trusts most after the
last round (``run_learning``).  The ``ksearch simulate`` and ``ksearch
learn`` commands run the same calls on a feed.
"""

from __future__ import annotations

import argparse
import statistics

from ksearch import (
    ALGORITHMS,
    ProblemKind,
    adjust_error,
    evaluate_windows,
    gen_synthetic_series,
    run_learning,
    sliding_windows,
)
from ksearch.learner import GRID


def run() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("max", "min"), default="max")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--samples", type=int, default=12000)
    ap.add_argument("--window", type=int, default=1000)
    ap.add_argument("--stride", type=int, default=250)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--error-levels", default="0.0,0.5,1.0")
    args = ap.parse_args()

    series = gen_synthetic_series(num_samples=args.samples, seed=args.seed)
    stream = sliding_windows(series, args.window, args.stride, args.k, ProblemKind(args.kind))
    print(f"{len(stream)} windows; mean ratio per policy")
    print("error_level," + ",".join(ALGORITHMS))
    for level in (float(text) for text in args.error_levels.split(",")):
        results = evaluate_windows(adjust_error(stream, level), args.seed)
        means = (statistics.fmean(results[algorithm][0]) for algorithm in ALGORITHMS)
        print(f"{level!r}," + ",".join(f"{mean:.6f}" for mean in means))
    weights, _ = run_learning(stream, args.seed)
    top = max(range(len(GRID)), key=weights.__getitem__)
    print(f"learner's heaviest confidence: {GRID[top]!r} (weight {weights[top]:.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
