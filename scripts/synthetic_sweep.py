#!/usr/bin/env python3
"""Run the stress sweep on a seeded synthetic feed.

Quick by default (a short feed and a small parameter grid, a few seconds);
``--full`` switches to the five-year feed with three-week windows and the
full rho / budget / band-multiplier grid, which takes minutes.
"""

from __future__ import annotations

import argparse
import pathlib
import tempfile

from ksearch import gen_synthetic_series
from ksearch.cli import main as ksearch


def run() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("max", "min"), default="max")
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--full", action="store_true",
                    help="five-year feed and the full parameter grid")
    ap.add_argument("--output", default="results/sweep.csv")
    args = ap.parse_args()

    pathlib.Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmpdir:  # the quick feed is removed on exit
        if args.full:
            grid = ["--rho", "0.0,0.1,0.2,0.3", "--error-level", "1.0",
                    "--k", "5,25,125", "--theta-mult", "1.0,4.0"]
            feed = []  # experiment defaults to the full five-year synthetic feed
        else:
            grid = ["--rho", "0.0,0.2", "--error-level", "1.0",
                    "--k", "10,25", "--theta-mult", "1.0"]
            series = gen_synthetic_series(num_samples=12000, seed=args.seed)
            tmp = pathlib.Path(tmpdir) / "feed.csv"
            tmp.write_text(
                "price\n" + "\n".join(repr(p) for p in series.prices) + "\n"
            )
            feed = ["--input", str(tmp), "--window", "1000", "--stride", "500"]
        code = ksearch([
            "experiment", "--kind", args.kind, "--seed", str(args.seed),
            *feed, *grid, "--workers", str(args.workers),
            "--output", args.output,
        ])
    if code == 0:
        print(f"wrote {args.output}")
    return code


if __name__ == "__main__":
    raise SystemExit(run())
